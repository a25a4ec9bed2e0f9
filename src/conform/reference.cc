/**
 * @file
 * Reference-model implementation.
 */

#include "conform/reference.hh"

#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <utility>

#include "core/cycle_cache.hh"
#include "gan/models.hh"
#include "sim/json.hh"
#include "sim/phase.hh"
#include "sim/stats_diff.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace fs = std::filesystem;

namespace ganacc {
namespace conform {

namespace {

/**
 * Mirrors of the engine's model/family resolution, with the *exact*
 * error messages of serve/engine.cc — the conformance differ compares
 * error text verbatim, so a drift in either copy fails the harness
 * (which is the point: the wire error contract is pinned).
 */
gan::GanModel
modelByName(const std::string &name)
{
    if (name == "dcgan")
        return gan::makeDcgan();
    if (name == "mnist-gan")
        return gan::makeMnistGan();
    if (name == "cgan")
        return gan::makeCgan();
    if (name == "context-encoder")
        return gan::makeContextEncoder();
    util::fatal("unknown model \"", name,
                "\" (dcgan, mnist-gan, cgan, context-encoder)");
}

sim::PhaseFamily
familyByName(const std::string &name)
{
    if (name == "D")
        return sim::PhaseFamily::D;
    if (name == "G")
        return sim::PhaseFamily::G;
    if (name == "Dw")
        return sim::PhaseFamily::Dw;
    if (name == "Gw")
        return sim::PhaseFamily::Gw;
    util::fatal("unknown phase family \"", name,
                "\" (D, G, Dw, Gw)");
}

/** The per-layer jobs of a (model, family) request; memoized because
 *  network construction is pure and the fuzzer repeats pairs. Throws
 *  with the engine's exact message on an unknown pair. */
const std::vector<sim::ConvSpec> &
jobsFor(const std::string &model, const std::string &family)
{
    static std::map<std::string, std::vector<sim::ConvSpec>> memo;
    static std::mutex m;
    const std::string key = model + '|' + family;
    std::lock_guard<std::mutex> lk(m);
    auto it = memo.find(key);
    if (it != memo.end())
        return it->second;
    const gan::GanModel gm = modelByName(model);
    auto jobs = sim::familyJobs(gm, familyByName(family));
    if (jobs.empty())
        util::fatal("model \"", model, "\" family \"", family,
                    "\" has no jobs");
    return memo.emplace(key, std::move(jobs)).first->second;
}

/** Mirror of the daemon's best-effort id salvage for broken lines. */
std::uint64_t
salvageId(const std::string &line)
{
    std::uint64_t id = 0;
    try {
        const auto doc = util::json::parse(line);
        if (doc.isObject() && doc.asObject().contains("id"))
            id = doc.asObject().at("id").asUint64();
    } catch (...) {
        const auto at = line.find("\"id\":");
        if (at != std::string::npos) {
            std::size_t p = at + 5;
            while (p < line.size() && line[p] >= '0' &&
                   line[p] <= '9')
                id = id * 10 + std::uint64_t(line[p++] - '0');
        }
    }
    return id;
}

int
coldness(const std::string &tier)
{
    if (tier == "mem")
        return 0;
    if (tier == "disk")
        return 1;
    return 2;
}

const char *
tierName(int coldness_rank)
{
    switch (coldness_rank) {
      case 0: return "mem";
      case 1: return "disk";
      default: return "sim";
    }
}

} // namespace

std::string
Interval::str() const
{
    if (lo == hi)
        return std::to_string(lo);
    std::string s = "[";
    s += std::to_string(lo);
    s += ',';
    s += std::to_string(hi);
    s += ']';
    return s;
}

ReferenceModel::ReferenceModel(std::string storeDir)
    : storeDir_(std::move(storeDir))
{
}

const sim::RunStats &
ReferenceModel::directStats(core::ArchKind kind, const sim::Unroll &u,
                            const sim::ConvSpec &spec)
{
    // Process-wide memo: the stats are a pure function of the triple,
    // and the shrinker re-runs the harness dozens of times over the
    // same triples — map nodes are address-stable, so references
    // handed out survive later insertions.
    static std::map<std::string, sim::RunStats> memo;
    static std::mutex m;
    const std::string key = serve::contentKey(kind, u, spec);
    std::lock_guard<std::mutex> lk(m);
    auto it = memo.find(key);
    if (it == memo.end())
        it = memo.emplace(key, core::makeArch(kind, u)->run(spec))
                 .first;
    return it->second;
}

std::string
ReferenceModel::entryPath(core::ArchKind kind, const sim::Unroll &u,
                          const sim::ConvSpec &spec) const
{
    const std::string key = serve::contentKey(kind, u, spec);
    return (fs::path(storeDir_) / key.substr(0, 2) / (key + ".json"))
        .string();
}

std::string
ReferenceModel::entryBody(core::ArchKind kind, const sim::Unroll &u,
                          const sim::ConvSpec &spec,
                          const sim::RunStats &stats,
                          const std::string &version)
{
    std::ostringstream body;
    body << "{\"version\":\"" << version << "\",\"arch\":\""
         << core::archKindName(kind)
         << "\",\"unroll\":" << sim::toJson(u)
         << ",\"spec\":" << sim::specShapeKey(spec)
         << ",\"stats\":" << sim::toJson(stats) << "}\n";
    return body.str();
}

ReferenceModel::Entry &
ReferenceModel::entryOf(core::ArchKind kind, const sim::Unroll &u,
                        const sim::ConvSpec &spec)
{
    const std::string key = serve::contentKey(kind, u, spec);
    auto it = disk_.find(key);
    if (it == disk_.end()) {
        Entry e;
        e.kind = kind;
        e.unroll = u;
        e.spec = spec;
        it = disk_.emplace(key, std::move(e)).first;
    }
    return it->second;
}

std::string
ReferenceModel::lookupJob(core::ArchKind kind, const sim::Unroll &u,
                          const sim::ConvSpec &spec)
{
    const std::string key = serve::contentKey(kind, u, spec);
    if (mem_.count(key)) {
        c_.cacheHits.bump();
        return "mem";
    }
    c_.cacheMisses.bump();
    Entry &e = entryOf(kind, u, spec);
    // Store load, mirroring ResultStore::load's seam order: an armed
    // read fault is consumed before the file is even looked at.
    if (readFaults_ > 0) {
        --readFaults_;
        c_.storeMisses.bump();
    } else {
        switch (e.state) {
          case DiskState::Absent:
            c_.storeMisses.bump();
            break;
          case DiskState::Good:
            c_.storeHits.bump();
            mem_.insert(key);
            return "disk";
          case DiskState::PlantedStale:
            c_.storeStale.bump();
            break;
          case DiskState::Corrupt:
            c_.storeCorrupt.bump();
            e.state = DiskState::Absent;
            e.quarantineFile = true;
            break;
        }
    }
    // Cycle walk plus write-through.
    writeThrough(e);
    mem_.insert(key);
    return "sim";
}

void
ReferenceModel::writeThrough(Entry &e)
{
    // Mirrors ResultStore::store's seam order: a write fault drops
    // the entry entirely (previous disk state survives), a torn
    // write lands half an entry.
    if (writeFaults_ > 0) {
        --writeFaults_;
    } else if (tornWrites_ > 0) {
        --tornWrites_;
        c_.storeWrites.bump();
        e.state = DiskState::Corrupt;
    } else {
        c_.storeWrites.bump();
        e.state = DiskState::Good;
    }
}

void
ReferenceModel::notePut(core::ArchKind kind, const sim::Unroll &u,
                        const sim::ConvSpec &spec)
{
    c_.requests.bump();
    c_.puts.bump();
    writeThrough(entryOf(kind, u, spec));
    mem_.insert(serve::contentKey(kind, u, spec));
}

ExpectedResponse
ReferenceModel::handleDecoded(const serve::Request &req)
{
    ExpectedResponse r;
    r.id = req.id;
    if (req.statsProbe) {
        c_.probes.bump();
        c_.cacheEntries = mem_.size();
        r.ok = true;
        r.isProbe = true;
        return r;
    }
    if (req.metricsProbe) {
        c_.metricsProbes.bump();
        r.ok = true;
        r.isMetricsProbe = true;
        return r;
    }
    if (req.traceDrainProbe) {
        c_.traceDrains.bump();
        r.ok = true;
        r.isTraceDrain = true;
        return r;
    }
    if (req.fleetProbe) {
        // A daemon started without --fleet answers topology probes
        // with this exact error, outside the request counters (the
        // probe bypasses admission like a stats probe).
        r.ok = false;
        r.checkError = true;
        r.error = "daemon is not part of a fleet";
        return r;
    }
    if (req.put) {
        try {
            req.spec.validate();
            if (req.putSimVersion != serve::simulatorVersion())
                util::fatal("put carries simulator version \"",
                            req.putSimVersion,
                            "\", this daemon runs \"",
                            serve::simulatorVersion(), "\"");
        } catch (const std::exception &e) {
            c_.requests.bump();
            c_.errors.bump();
            r.ok = false;
            r.checkError = true;
            r.error = e.what();
            return r;
        }
        notePut(req.kind, req.unroll, req.spec);
        r.ok = true;
        r.arch = core::archKindName(req.kind);
        r.unrollJson = sim::toJson(req.unroll);
        r.stats = req.putStats;
        r.allowedTiers = {"put"};
        return r;
    }
    try {
        sim::RunStats sum;
        int worst = 0;
        if (req.hasSpec) {
            req.spec.validate();
            const std::string tier =
                lookupJob(req.kind, req.unroll, req.spec);
            worst = coldness(tier);
            sum = directStats(req.kind, req.unroll, req.spec);
        } else {
            const auto &jobs = jobsFor(req.model, req.family);
            for (const auto &job : jobs) {
                const std::string tier =
                    lookupJob(req.kind, req.unroll, job);
                worst = std::max(worst, coldness(tier));
                sum += directStats(req.kind, req.unroll, job);
            }
        }
        c_.requests.bump();
        switch (worst) {
          case 0:
            c_.memHits.bump();
            c_.memPlusDup.bump();
            break;
          case 1:
            c_.diskHits.bump();
            break;
          default:
            c_.simulated.bump();
            break;
        }
        r.ok = true;
        r.arch = core::archKindName(req.kind);
        r.unrollJson = sim::toJson(req.unroll);
        r.stats = sum;
        r.allowedTiers = {tierName(worst)};
    } catch (const std::exception &e) {
        c_.requests.bump();
        c_.errors.bump();
        r.ok = false;
        r.checkError = true;
        r.error = e.what();
    }
    return r;
}

std::vector<ExpectedResponse>
ReferenceModel::apply(const Op &op)
{
    switch (op.kind) {
      case OpKind::SimRequest: {
        serve::Request req;
        req.id = op.id;
        req.kind = op.arch;
        req.unroll = op.unroll;
        req.spec = op.spec;
        req.hasSpec = true;
        return {handleDecoded(req)};
      }
      case OpKind::NetRequest: {
        serve::Request req;
        req.id = op.id;
        req.kind = op.arch;
        req.unroll = op.unroll;
        req.model = op.model;
        req.family = op.family;
        return {handleDecoded(req)};
      }
      case OpKind::DupBurst: {
        serve::Request req;
        req.id = op.id;
        req.kind = op.arch;
        req.unroll = op.unroll;
        req.spec = op.spec;
        req.hasSpec = true;
        ExpectedResponse leader = handleDecoded(req);
        std::vector<ExpectedResponse> out;
        out.push_back(leader);
        const std::uint64_t followers =
            op.count > 1 ? std::uint64_t(op.count - 1) : 0;
        // Followers either coalesce into the leader ("dup") or race
        // past its completion into the freshly warm memory tier
        // ("mem") — the split is scheduling-dependent, but the sum
        // is not, and nothing past the memory tier can run twice.
        c_.requests.bump(followers);
        c_.deduped.widen(followers);
        c_.memHits.widen(followers);
        c_.memPlusDup.bump(followers);
        c_.cacheHits.widen(followers);
        if (!leader.ok)
            c_.errors.widen(followers);
        for (std::uint64_t i = 1; i <= followers; ++i) {
            ExpectedResponse f = leader;
            f.id = op.id + i;
            f.checkError = false;
            f.allowedTiers = {"mem", "dup"};
            out.push_back(std::move(f));
        }
        return out;
      }
      case OpKind::Malformed: {
        serve::Request req;
        try {
            req = serve::decodeRequest(op.raw);
        } catch (const std::exception &e) {
            ExpectedResponse r;
            r.id = salvageId(op.raw);
            r.ok = false;
            r.checkError = true;
            r.error = e.what();
            return {r};
        }
        return {handleDecoded(req)};
      }
      case OpKind::StatsProbe: {
        serve::Request req;
        req.id = op.id;
        req.statsProbe = true;
        return {handleDecoded(req)};
      }
      case OpKind::MetricsProbe: {
        serve::Request req;
        req.id = op.id;
        req.metricsProbe = true;
        return {handleDecoded(req)};
      }
      case OpKind::TraceDrain: {
        serve::Request req;
        req.id = op.id;
        req.traceDrainProbe = true;
        return {handleDecoded(req)};
      }
      case OpKind::EvictMemory:
        noteEvictMemory();
        return {};
      case OpKind::EvictEntry:
        noteEvictEntry(op);
        return {};
      case OpKind::CorruptEntry:
        noteCorruptEntry(op);
        return {};
      case OpKind::PlantStale:
        notePlantStale(op);
        return {};
      case OpKind::FsFault:
        noteFsFaults(op.faults);
        return {};
      case OpKind::Restart:
        noteRestart();
        return {};
    }
    return {};
}

void
ReferenceModel::noteEvictMemory()
{
    // CycleCache::clear() drops the memo *and* zeroes its counters,
    // so the cache expectations restart from zero too.
    mem_.clear();
    c_.cacheHits = Interval{};
    c_.cacheMisses = Interval{};
    c_.cacheEntries = 0;
}

void
ReferenceModel::noteEvictEntry(const Op &t)
{
    entryOf(t.arch, t.unroll, t.spec).state = DiskState::Absent;
}

void
ReferenceModel::noteCorruptEntry(const Op &t)
{
    entryOf(t.arch, t.unroll, t.spec).state = DiskState::Corrupt;
}

void
ReferenceModel::notePlantStale(const Op &t)
{
    entryOf(t.arch, t.unroll, t.spec).state = DiskState::PlantedStale;
}

void
ReferenceModel::noteFsFaults(const fault::FsFaultPlan &plan)
{
    readFaults_ += plan.failReads;
    writeFaults_ += plan.failWrites;
    tornWrites_ += plan.tornWrites;
}

void
ReferenceModel::noteRestart()
{
    // A restart emulates process death: the memory tier and the store
    // session counters reset, the on-disk entries and the process-
    // global serve counters (the obs registry outlives engines) do
    // not. Armed fault budgets are process-global too.
    noteEvictMemory();
    c_.storeHits = Interval{};
    c_.storeMisses = Interval{};
    c_.storeStale = Interval{};
    c_.storeCorrupt = Interval{};
    c_.storeWrites = Interval{};
}

std::string
ReferenceModel::diffStore() const
{
    std::vector<std::string> bad;
    std::set<std::string> seenLive;
    std::set<std::string> seenQuarantine;
    std::error_code ec;
    for (fs::recursive_directory_iterator
             it(storeDir_,
                fs::directory_options::skip_permission_denied, ec),
         end;
         !ec && it != end; it.increment(ec)) {
        if (!it->is_regular_file(ec))
            continue;
        const std::string name = it->path().filename().string();
        if (name.find(".tmp.") != std::string::npos) {
            bad.push_back("leaked tmp file " + name);
            continue;
        }
        const std::string qsuffix = ".json.quarantined";
        if (name.size() > qsuffix.size() &&
            name.compare(name.size() - qsuffix.size(),
                         qsuffix.size(), qsuffix) == 0) {
            const std::string key =
                name.substr(0, name.size() - qsuffix.size());
            seenQuarantine.insert(key);
            auto e = disk_.find(key);
            if (e == disk_.end() || !e->second.quarantineFile)
                bad.push_back("unexpected quarantine file " + name);
            continue;
        }
        const std::string jsuffix = ".json";
        if (name.size() > jsuffix.size() &&
            name.compare(name.size() - jsuffix.size(),
                         jsuffix.size(), jsuffix) == 0) {
            const std::string key =
                name.substr(0, name.size() - jsuffix.size());
            seenLive.insert(key);
            auto e = disk_.find(key);
            if (e == disk_.end()) {
                bad.push_back("unexpected store entry " + key);
                continue;
            }
            switch (e->second.state) {
              case DiskState::Absent:
                bad.push_back("entry " + key +
                              " present but expected absent");
                break;
              case DiskState::Corrupt:
                break; // damaged bytes: any content admissible
              case DiskState::Good:
              case DiskState::PlantedStale: {
                std::ifstream is(it->path(), std::ios::binary);
                std::ostringstream text;
                text << is.rdbuf();
                try {
                    const auto doc = util::json::parse(text.str());
                    const auto &o = doc.asObject();
                    const bool stale =
                        o.at("version").asString() !=
                        serve::simulatorVersion();
                    if (e->second.state == DiskState::PlantedStale) {
                        if (!stale)
                            bad.push_back(
                                "entry " + key +
                                " should carry a stale version");
                        break;
                    }
                    if (stale) {
                        bad.push_back("entry " + key +
                                      " has a stale version stamp");
                        break;
                    }
                    const sim::RunStats got =
                        sim::runStatsFromJson(o.at("stats"));
                    const sim::RunStats &want = directStats(
                        e->second.kind, e->second.unroll,
                        e->second.spec);
                    const std::string d = sim::diffRunStats(got, want);
                    if (!d.empty())
                        bad.push_back("entry " + key +
                                      " stats diverge: " + d);
                    if (o.at("arch").asString() !=
                        core::archKindName(e->second.kind))
                        bad.push_back("entry " + key +
                                      " names the wrong arch");
                } catch (const std::exception &ex) {
                    bad.push_back("entry " + key +
                                  " unparseable: " + ex.what());
                }
                break;
              }
            }
            continue;
        }
        bad.push_back("unexpected file " + name);
    }
    for (const auto &[key, e] : disk_) {
        if (e.state != DiskState::Absent && !seenLive.count(key))
            bad.push_back("entry " + key + " missing (expected " +
                          (e.state == DiskState::Good
                               ? "good"
                               : e.state == DiskState::Corrupt
                                     ? "corrupt"
                                     : "stale") +
                          ")");
        if (e.quarantineFile && !seenQuarantine.count(key))
            bad.push_back("quarantine file for " + key + " missing");
    }
    std::string out;
    for (const std::string &b : bad) {
        if (!out.empty())
            out += "; ";
        out += b;
    }
    return out;
}

} // namespace conform
} // namespace ganacc
