/**
 * @file
 * Serving-throughput bench: requests/second of the simulation service
 * across the three tiers (cold = simulation under the process engine:
 * the closed form by default, the cycle walk under GANACC_ENGINE=walk;
 * warm disk = persistent result store; warm memory = in-process cycle
 * cache), for one client and for eight concurrent clients driving the
 * same engine.
 *
 * Once a figure's (arch, unrolling, layer) population is on disk,
 * every later regeneration — same process or not — replays it at disk
 * speed. The summary line reports the warm-over-cold speedup and the
 * engine it ran under; the >= 5x bar applies to the walk engine only,
 * since the closed form costs about what a cache lookup does.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_common.hh"
#include "core/cycle_cache.hh"
#include "core/unrolling.hh"
#include "fleet/router.hh"
#include "gan/models.hh"
#include "serve/daemon.hh"
#include "serve/engine.hh"
#include "sim/closed_form.hh"
#include "sim/phase.hh"
#include "util/args.hh"
#include "util/table.hh"

namespace {

using namespace ganacc;

/**
 * The request population: every job of every Table V row of every
 * model on every architecture, as individual spec requests — the same
 * simulations the figure benches perform, phrased as service traffic.
 */
std::vector<serve::Request>
makeRequests()
{
    struct Row
    {
        sim::PhaseFamily family;
        core::BankRole role;
        int pes;
    };
    const Row rows[] = {
        {sim::PhaseFamily::D, core::BankRole::ST, 1200},
        {sim::PhaseFamily::G, core::BankRole::ST, 1200},
        {sim::PhaseFamily::Dw, core::BankRole::W, 480},
        {sim::PhaseFamily::Gw, core::BankRole::W, 480},
    };
    std::vector<serve::Request> reqs;
    std::uint64_t id = 1;
    for (const auto &m : gan::allModels()) {
        for (const Row &row : rows) {
            for (core::ArchKind kind : core::allArchKinds()) {
                const sim::Unroll u = core::paperUnroll(
                    kind, row.role, row.family, row.pes);
                for (const auto &job :
                     sim::familyJobs(m, row.family)) {
                    serve::Request req;
                    req.id = id++;
                    req.kind = kind;
                    req.unroll = u;
                    req.hasSpec = true;
                    req.spec = job;
                    reqs.push_back(req);
                }
            }
        }
    }
    return reqs;
}

struct PhaseResult
{
    double seconds = 0.0;
    double reqPerSec = 0.0;
    serve::EngineCounters counters;
};

/**
 * Drive `clients` threads against the engine, each pipelining its
 * share of the request list with a bounded window of outstanding
 * futures (a client library replaying a file behaves the same way).
 */
PhaseResult
runPhase(serve::Engine &engine, const std::vector<serve::Request> &reqs,
         int clients)
{
    const serve::EngineCounters before = engine.counters();
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            const std::size_t window = 32;
            std::vector<std::future<serve::Response>> pending;
            for (std::size_t i = std::size_t(c); i < reqs.size();
                 i += std::size_t(clients)) {
                pending.push_back(engine.submit(reqs[i]));
                if (pending.size() >= window) {
                    pending.front().get();
                    pending.erase(pending.begin());
                }
            }
            for (auto &f : pending)
                f.get();
        });
    }
    for (auto &t : threads)
        t.join();
    const auto t1 = std::chrono::steady_clock::now();

    PhaseResult r;
    r.seconds = std::chrono::duration<double>(t1 - t0).count();
    r.reqPerSec = double(reqs.size()) / r.seconds;
    const serve::EngineCounters after = engine.counters();
    r.counters.memHits = after.memHits - before.memHits;
    r.counters.diskHits = after.diskHits - before.diskHits;
    r.counters.simulated = after.simulated - before.simulated;
    r.counters.deduped = after.deduped - before.deduped;
    return r;
}

/** One in-process TCP fleet: N shards on ephemeral loopback ports,
 *  each with its own cache tiers and store directory. */
class BenchFleet
{
  public:
    BenchFleet(int n, int jobs, const std::string &root)
    {
        namespace fs = std::filesystem;
        fs::remove_all(root);
        fs::create_directories(root);
        for (int i = 0; i < n; ++i) {
            auto sh = std::make_unique<Shard>();
            serve::EngineOptions eo;
            eo.jobs = jobs;
            eo.cacheDir = root + "/store" + std::to_string(i);
            eo.ownCache = true;
            eo.shedOverload = true;
            sh->engine = std::make_unique<serve::Engine>(eo);
            const int listener =
                serve::listenTcp("127.0.0.1:0", &sh->bound);
            Shard *raw = sh.get();
            sh->thread = std::thread([raw, listener] {
                serve::serveListener(listener, *raw->engine,
                                     raw->stop);
            });
            shards_.push_back(std::move(sh));
        }
    }

    ~BenchFleet()
    {
        for (auto &sh : shards_) {
            sh->stop.store(true);
            sh->thread.join();
        }
    }

    std::vector<std::string>
    addresses() const
    {
        std::vector<std::string> out;
        for (const auto &sh : shards_)
            out.push_back(sh->bound);
        return out;
    }

  private:
    struct Shard
    {
        std::string bound;
        std::unique_ptr<serve::Engine> engine;
        std::thread thread;
        std::atomic<bool> stop{false};
    };
    std::vector<std::unique_ptr<Shard>> shards_;
};

std::uint64_t
percentile(std::vector<std::uint64_t> sorted, double q)
{
    if (sorted.empty())
        return 0;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t idx =
        std::size_t(q * double(sorted.size() - 1) + 0.5);
    return sorted[idx];
}

/** Fleet scaling: route the full population through 1/2/4 TCP shards
 *  and report throughput plus the service-side latency tail per cache
 *  tier (Response.latencyUs, so socket time is excluded — the curve
 *  isolates shard-side queueing). */
void
runFleetScaling(const std::vector<serve::Request> &reqs, int jobs,
                const std::string &scratch, util::Table &t,
                std::map<int, double> &coldRate)
{
    std::vector<std::string> lines;
    for (const auto &req : reqs)
        lines.push_back(serve::encodeRequest(req));

    for (int shards : {1, 2, 4}) {
        BenchFleet fleet(shards, jobs,
                         scratch + "-fleet" + std::to_string(shards));
        fleet::RouterOptions ropt;
        ropt.topology.shards = fleet.addresses();
        fleet::Router router(std::move(ropt));

        for (const char *pass : {"cold", "warm"}) {
            const auto t0 = std::chrono::steady_clock::now();
            const auto out = router.transactLines(lines);
            const auto t1 = std::chrono::steady_clock::now();
            const double secs =
                std::chrono::duration<double>(t1 - t0).count();

            // Latency tail per serving tier.
            std::map<std::string, std::vector<std::uint64_t>> byTier;
            for (const std::string &line : out) {
                const serve::Response rsp =
                    serve::decodeResponse(line);
                if (rsp.ok)
                    byTier[rsp.cache].push_back(rsp.latencyUs);
            }
            for (const auto &[tier, lat] : byTier)
                t.addRow(shards, pass, secs,
                         double(lines.size()) / secs, tier,
                         lat.size(), percentile(lat, 0.50),
                         percentile(lat, 0.99));
            if (std::string(pass) == "cold")
                coldRate[shards] = double(lines.size()) / secs;
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    util::ArgParser args(argc, argv);
    const int jobs = args.getJobs();
    std::string cache_dir = args.getString(
        "cache-dir", "",
        "result-store directory the bench wipes and refills (default: "
        "a directory under the system temp path)");
    if (args.helpRequested()) {
        args.usage(std::cout);
        return 0;
    }
    args.finish();
    if (cache_dir.empty())
        cache_dir = (std::filesystem::temp_directory_path() /
                     "ganacc-serve-bench")
                        .string();

    bench::banner(
        "Serving throughput — cold vs warm, 1 vs 8 clients",
        "a warm result store replays figure populations >= 5x faster "
        "than cold cycle-walk simulation (GANACC_ENGINE=walk)");

    const auto reqs = makeRequests();
    std::cout << "\n" << reqs.size() << " spec requests (3 models x 4 "
              << "phase families x 5 architectures), " << jobs
              << " engine workers, store at " << cache_dir << "\n\n";

    util::Table t({"phase", "clients", "seconds", "req/s", "sim",
                   "disk", "mem", "dup"});
    auto addRow = [&](const std::string &name, int clients,
                      const PhaseResult &r) {
        t.addRow(name, clients, r.seconds, r.reqPerSec,
                 r.counters.simulated, r.counters.diskHits,
                 r.counters.memHits, r.counters.deduped);
    };

    double cold1 = 0, warm_disk1 = 0, warm_mem1 = 0;
    for (int clients : {1, 8}) {
        // Cold: empty store, empty memory cache — every request is
        // simulated afresh (concurrent duplicates may single-flight).
        std::filesystem::remove_all(cache_dir);
        core::CycleCache::instance().clear();
        serve::EngineOptions opts;
        opts.jobs = jobs;
        opts.cacheDir = cache_dir;
        PhaseResult cold;
        {
            serve::Engine engine(opts);
            cold = runPhase(engine, reqs, clients);
            engine.drain();
        }
        addRow("cold", clients, cold);

        // Warm disk: a *new* engine (new process, morally) over the
        // populated store, memory cache dropped.
        core::CycleCache::instance().clear();
        serve::Engine engine(opts);
        const PhaseResult disk = runPhase(engine, reqs, clients);
        addRow("warm disk", clients, disk);

        // Warm memory: same engine again; everything is memoized.
        const PhaseResult mem = runPhase(engine, reqs, clients);
        addRow("warm mem", clients, mem);
        engine.drain();

        if (clients == 1) {
            cold1 = cold.reqPerSec;
            warm_disk1 = disk.reqPerSec;
            warm_mem1 = mem.reqPerSec;
        }
    }
    t.print(std::cout);

    std::cout << "\nwarm-over-cold (1 client, engine "
              << sim::simEngineName(sim::simEngine()) << "): disk "
              << warm_disk1 / cold1 << "x, memory "
              << warm_mem1 / cold1
              << "x (target: >= 5x under the walk engine only)\n";

    // --- Fleet scaling: the same population through 1/2/4 TCP
    // shards behind fleet::Router (RF=2 replication on) ---
    std::cout << "\nFleet scaling — " << jobs
              << " workers per shard, loopback TCP, RF=2\n\n";
    util::Table ft({"shards", "pass", "seconds", "req/s", "tier",
                    "n", "p50us", "p99us"});
    std::map<int, double> coldRate;
    runFleetScaling(reqs, jobs, cache_dir, ft, coldRate);
    ft.print(std::cout);
    std::cout << "\nfleet cold scaling vs 1 shard: 2 shards "
              << coldRate[2] / coldRate[1] << "x, 4 shards "
              << coldRate[4] / coldRate[1] << "x\n";
    return 0;
}
