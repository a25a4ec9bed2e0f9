/**
 * @file
 * Result-store implementation.
 */

#include "serve/result_store.hh"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "fault/fs_faults.hh"
#include "obs/metrics.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace fs = std::filesystem;

namespace ganacc {
namespace serve {

namespace {

std::atomic<StoreBug> g_store_bug{StoreBug::None};

/** Read a whole file; nullopt when it does not exist or is unreadable. */
std::optional<std::string>
slurp(const fs::path &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return std::nullopt;
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

} // namespace

void
setStoreBugForTesting(StoreBug bug)
{
    g_store_bug.store(bug, std::memory_order_relaxed);
}

StoreBug
storeBugForTesting()
{
    return g_store_bug.load(std::memory_order_relaxed);
}

ResultStore::ResultStore(std::string dir, std::string version)
    : dir_(std::move(dir)), version_(std::move(version))
{
    if (dir_.empty())
        util::fatal("result store needs a non-empty directory");
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec)
        util::fatal("result store: cannot create '", dir_,
                    "': ", ec.message());
    // Publish this store's counters to the telemetry registry for
    // the store's lifetime. Values across stores accumulate into one
    // series, so a sweep that reopens its store still reports totals.
    collector_ = obs::Registry::instance().addCollector(
        [this](obs::Snapshot &snap) {
            const StoreCounters c = storeStats();
            snap.counter("ganacc_store_hits_total", c.hits);
            snap.counter("ganacc_store_misses_total", c.misses);
            snap.counter("ganacc_store_stale_misses_total",
                         c.staleMisses);
            snap.counter("ganacc_store_corrupt_misses_total",
                         c.corruptMisses);
            snap.counter("ganacc_store_writes_total", c.writes);
        });
}

ResultStore::~ResultStore()
{
    obs::Registry::instance().removeCollector(collector_);
}

std::string
ResultStore::entryPath(core::ArchKind kind, const sim::Unroll &u,
                       const sim::ConvSpec &spec) const
{
    const std::string key = contentKey(kind, u, spec, version_);
    return (fs::path(dir_) / key.substr(0, 2) / (key + ".json"))
        .string();
}

std::optional<sim::RunStats>
ResultStore::load(core::ArchKind kind, const sim::Unroll &u,
                  const sim::ConvSpec &spec)
{
    const fs::path path = entryPath(kind, u, spec);
    // Fallible-filesystem seam: an armed read fault makes this entry
    // unreadable (EIO-equivalent), which the store reports as a plain
    // miss — the caller re-simulates and write-through repairs.
    if (fault::consumeReadFault()) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
    }
    std::optional<std::string> text = slurp(path);
    if (!text) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
    }
    auto quarantine = [&](const char *why) {
        corrupt_.fetch_add(1, std::memory_order_relaxed);
        if (storeBugForTesting() == StoreBug::SkipQuarantine)
            return; // deliberate bug: corrupt entry left in place
        std::error_code ec;
        fs::rename(path, fs::path(path.string() + ".quarantined"), ec);
        if (ec)
            fs::remove(path, ec);
        util::warn("result store: quarantined ", path.string(), " (",
                   why, ")");
    };
    try {
        const util::json::Value doc = util::json::parse(*text);
        const util::json::Object &o = doc.asObject();
        if (o.at("version").asString() != version_ &&
            storeBugForTesting() != StoreBug::SkipStaleCheck) {
            // Written by a different simulator: self-invalidates.
            stale_.fetch_add(1, std::memory_order_relaxed);
            return std::nullopt;
        }
        // The shape must match the probe — a content-hash collision
        // or foreign file must never alias a different job's numbers.
        if (o.at("spec").dump() !=
                util::json::parse(sim::specShapeKey(spec)).dump() ||
            o.at("arch").asString() != core::archKindName(kind) ||
            o.at("unroll").dump() !=
                util::json::parse(sim::toJson(u)).dump()) {
            quarantine("key mismatch");
            return std::nullopt;
        }
        sim::RunStats st = sim::runStatsFromJson(o.at("stats"));
        hits_.fetch_add(1, std::memory_order_relaxed);
        return st;
    } catch (const util::FatalError &e) {
        quarantine(e.what());
        return std::nullopt;
    }
}

void
ResultStore::store(core::ArchKind kind, const sim::Unroll &u,
                   const sim::ConvSpec &spec,
                   const sim::RunStats &stats)
{
    const fs::path path = entryPath(kind, u, spec);
    std::error_code ec;
    fs::create_directories(path.parent_path(), ec);
    if (ec) {
        util::warn("result store: cannot create ",
                   path.parent_path().string(), ": ", ec.message());
        return;
    }

    // Fallible-filesystem seam: an armed write fault drops this
    // write-through on the floor — the entry simply never lands.
    if (fault::consumeWriteFault())
        return;

    std::ostringstream body;
    body << "{\"version\":\"" << version_ << "\",\"arch\":\""
         << core::archKindName(kind)
         << "\",\"unroll\":" << sim::toJson(u)
         << ",\"spec\":" << sim::specShapeKey(spec)
         << ",\"stats\":" << sim::toJson(stats) << "}\n";
    std::string bytes = body.str();
    // A torn write emulates a writer that died mid-file *before* the
    // atomic-rename discipline existed: half an object lands at the
    // live address, which the next load must quarantine.
    if (fault::consumeTornWrite())
        bytes.resize(bytes.size() / 2);

    // Private tmp name (pid + process-wide sequence disambiguate
    // concurrent writers), then an atomic rename into place. The
    // sequence must be shared across store handles: two threads with
    // their own handles share a pid, and per-handle counters would
    // let them collide on the same tmp name and tear each other's
    // writes.
    static std::atomic<std::uint64_t> tmpSeq{0};
    std::ostringstream tmpName;
    tmpName << path.string() << ".tmp."
            << static_cast<unsigned long>(::getpid()) << "."
            << tmpSeq.fetch_add(1, std::memory_order_relaxed);
    const fs::path tmp(tmpName.str());
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os) {
            util::warn("result store: cannot write ", tmp.string());
            return;
        }
        os << bytes;
        os.flush();
        if (!os) {
            util::warn("result store: short write to ", tmp.string());
            fs::remove(tmp, ec);
            return;
        }
    }
    fs::rename(tmp, path, ec);
    if (ec) {
        util::warn("result store: rename to ", path.string(),
                   " failed: ", ec.message());
        fs::remove(tmp, ec);
        return;
    }
    writes_.fetch_add(1, std::memory_order_relaxed);
}

StoreCounters
ResultStore::counters() const
{
    StoreCounters c;
    c.hits = hits_.load();
    c.misses = misses_.load();
    c.staleMisses = stale_.load();
    c.corruptMisses = corrupt_.load();
    c.writes = writes_.load();
    return c;
}

std::size_t
ResultStore::entryCount() const
{
    std::size_t n = 0;
    std::error_code ec;
    for (fs::recursive_directory_iterator
             it(dir_, fs::directory_options::skip_permission_denied,
                ec),
         end;
         !ec && it != end; it.increment(ec)) {
        if (it->is_regular_file(ec) &&
            it->path().extension() == ".json")
            ++n;
    }
    return n;
}

std::string
ResultStore::summary() const
{
    const StoreCounters c = counters();
    std::ostringstream os;
    os << "result store '" << dir_ << "': " << c.hits << " hits, "
       << c.misses << " misses (" << c.staleMisses << " stale, "
       << c.corruptMisses << " quarantined), " << c.writes
       << " writes";
    return os.str();
}

} // namespace serve
} // namespace ganacc
