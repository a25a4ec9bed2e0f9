/**
 * @file
 * fleet-repeat: a two-shard loopback-TCP fleet (--shed, a store
 * directory per shard, RF=2) replays the Table V spec matrix of the
 * three paper models (360 requests) through fleet::Router in a closed
 * loop, pass after pass. The first pass is cold; every later pass
 * repeats its keys, so the cycle cache, the result store's read path,
 * replication puts and the router do the work — the opposite mix of
 * daemon-unique.
 */

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "fleet/router.hh"
#include "fleet/topology.hh"
#include "serve/protocol.hh"
#include "serve/result_store.hh"
#include "workloads.hh"

namespace perfbench {

using namespace ganacc;

namespace {

constexpr int kShards = 2;

/** Passes of the router micro-measure, each timed against a direct
 *  replay of the same pass. */
constexpr int kRouterPasses = 10;

/** Shard workers; with the router's one thread per shard the run
 *  stays within a 4-thread budget. */
constexpr const char *kShardJobs = "1";

struct Setup
{
    std::vector<SpecJob> jobs;
    std::vector<std::string> lines;    ///< request i has id i + 1
    std::vector<std::string> expected; ///< canonical stats per request
    std::vector<std::unique_ptr<Daemon>> shards;
    std::unique_ptr<fleet::Router> router;

    Setup() = default;
    Setup(const Setup &) = delete;
    Setup &operator=(const Setup &) = delete;
    /// A stopping shard drains its open connections: close the
    /// router's before the shards are stopped.
    ~Setup() { router.reset(); }
};

std::unique_ptr<Setup>
setUp(const Options &o, bool traced)
{
    auto ps = std::make_unique<Setup>();
    Setup &s = *ps;
    s.jobs = tableVJobs();
    s.lines = requestLines(s.jobs);
    s.expected = expectedStats(s.jobs, o.nproc);
    std::string csv;
    for (int i = 0; i < kShards; ++i) {
        const std::string dir =
            o.outDir + "/fleet-store" + std::to_string(i);
        removeTree(dir);
        std::vector<std::string> args = {"--tcp",      "127.0.0.1:0",
                                         "--shed",     "--cache-dir",
                                         dir,          "--jobs",
                                         kShardJobs,   "--quiet"};
        if (traced)
            args.insert(args.end(), {"--trace-live", "--trace-sample",
                                     kTraceSample});
        s.shards.push_back(std::make_unique<Daemon>(
            o.served, args,
            o.outDir + "/fleet-shard" + std::to_string(i) + ".addr",
            o.outDir + "/fleet-shard" + std::to_string(i) + ".log"));
        csv += (i ? "," : "") + s.shards.back()->address();
    }
    fleet::RouterOptions ro;
    ro.topology = fleet::parseShardList(csv, 64, 2);
    s.router = std::make_unique<fleet::Router>(ro);
    s.router->statsAll(); // connects every shard
    return ps;
}

/** Serve-layer counters summed over every shard. */
std::map<std::string, std::uint64_t>
fleetCounters(fleet::Router &router)
{
    std::map<std::string, std::uint64_t> sum;
    for (const auto &[addr, telemetry] : router.statsAll())
        for (const auto &[name, v] : telemetryCounters(telemetry))
            sum[name] += v;
    return sum;
}

/** What the closed loop keeps: per-pass times and accounting, not
 *  the responses, so memory does not grow with the number of passes. */
struct Loop
{
    std::vector<double> passS;
    PhaseCount count{"closed-loop"};
    std::vector<double> serviceUs;     ///< latencyUs of every response
    std::vector<std::string> lastPass; ///< the final pass's responses
};

/** Check one pass; every pass's stats must agree with pass 1's. */
void
verifyPass(const std::vector<std::string> &pass, const Setup &s,
           std::size_t index, std::uint64_t &firstDigest, Loop &l,
           RunResult &r)
{
    std::vector<std::string> stats;
    for (std::size_t i = 0; i < pass.size(); ++i) {
        const std::string &line = pass[i];
        l.serviceUs.push_back(double(lineField(line, "latencyUs")));
        if (!tallyResponse(line, i + 1, s.expected[i], Shed::Counted,
                           l.count, r))
            continue;
        const std::size_t at = line.find("\"stats\":");
        stats.push_back(line.substr(at, line.find('}', at) - at));
    }
    const std::uint64_t d = digest(stats);
    if (index == 0)
        firstDigest = d;
    else if (d != firstDigest)
        r.fail("pass " + std::to_string(index + 1) +
               " disagrees with pass 1");
}

/** Replay whole passes, one transactLines call each, as
 *  `ganacc-client --fleet --requests FILE` sends a file, until
 *  `seconds` have passed (at least two passes: cold and warm). Each
 *  pass is checked between calls, outside its timing. */
Loop
closedLoop(Setup &s, double seconds, RunResult &r)
{
    Loop l;
    std::uint64_t firstDigest = 0;
    const auto t0 = Clock::now();
    do {
        const auto p0 = Clock::now();
        l.lastPass = s.router->transactLines(s.lines);
        l.passS.push_back(secondsSince(p0));
        verifyPass(l.lastPass, s, l.passS.size() - 1, firstDigest, l, r);
    } while (secondsSince(t0) < seconds || l.passS.size() < 2);
    return l;
}

/** Warm passes through the router against direct pipelined replays
 *  of the same pass on shard 0. Direct pass k numbers its lines from
 *  1 + k * lines, so a span's id names its pass and line; rtt[id - 1]
 *  is that request's round trip. Shard 0 keeps only the direct
 *  passes' spans. */
void
measureRouter(Setup &s, Layers &layers, std::vector<double> &rtt)
{
    for (int i = 0; i < kRouterPasses; ++i)
        layers.time("fleet.Router.transactLines",
                    [&] { s.router->transactLines(s.lines); });

    serve::Client direct;
    direct.connect(s.shards[0]->address());
    serve::Request drain;
    drain.traceDrainProbe = true;
    direct.roundTrip(drain);
    const std::size_t n = s.lines.size();
    rtt.assign(n * kRouterPasses, 0.0);
    std::vector<Clock::time_point> sent(n);
    for (int i = 0; i < kRouterPasses; ++i) {
        const std::vector<std::string> lines =
            requestLines(s.jobs, 1 + std::uint64_t(i) * n);
        const auto p0 = Clock::now();
        std::size_t next = 0, got = 0;
        while (got < n) {
            while (next < n && next - got < 64) {
                sent[next] = Clock::now();
                direct.sendLine(lines[next]);
                ++next;
            }
            direct.recvLine();
            rtt[i * n + got] = usBetween(sent[got], Clock::now());
            ++got;
        }
        layers.add("serve.Client.replay", usBetween(p0, Clock::now()));
    }
}

RunResult
measure(const Options &o, Setup &s, bool traced)
{
    RunResult r;
    const auto before = fleetCounters(*s.router);
    const fleet::Router::Counters rc0 = s.router->counters();

    TraceCapture capture;
    if (traced) {
        capture.arm();
        obs::TraceSink::instance().setSampling(std::atof(kTraceSample), 0);
    }
    const Loop l = closedLoop(s, o.seconds, r);

    const auto after = fleetCounters(*s.router);
    const fleet::Router::Counters rc1 = s.router->counters();
    auto delta = [&](const char *name) {
        auto a = after.find(name);
        auto b = before.find(name);
        return (a == after.end() ? 0 : a->second) -
               (b == before.end() ? 0 : b->second);
    };

    r.phases.push_back(l.count);
    r.attempted = l.count.sent;
    r.failed = l.count.failed;

    std::vector<double> passUs, rates;
    for (double p : l.passS) {
        passUs.push_back(p * 1e6);
        rates.push_back(double(s.lines.size()) / p);
    }
    const Summary lat = summarize(passUs);
    r.add("lat_p50_us", lat.p50, "us");
    r.add("bench.lat_p99_us", lat.p99, "us");
    r.add("req_per_s", median(rates), "1/s");
    r.add("wall_s", median(l.passS), "s");
    double rss = selfPeakRssMb();
    for (const auto &d : s.shards)
        rss += d->peakRssMb();
    r.add("peak_rss_mb", rss, "MB");

    const std::uint64_t requests = delta("ganacc_serve_requests_total");
    const std::uint64_t mem = delta("ganacc_serve_mem_hits_total");
    r.add("serve.tier.sim", double(delta("ganacc_serve_simulated_total")),
          "count");
    r.add("serve.tier.mem", double(mem), "count");
    r.add("serve.tier.disk", double(delta("ganacc_serve_disk_hits_total")),
          "count");
    r.add("serve.tier.dup", double(delta("ganacc_serve_deduped_total")),
          "count");
    r.add("serve.tier.put", double(delta("ganacc_serve_puts_total")),
          "count");
    r.add("core.cache_hit_ratio",
          requests ? double(mem) / double(requests) : 0.0, "ratio");
    r.add("fleet.puts", double(rc1.puts - rc0.puts), "count");
    r.add("fleet.overload_retries",
          double(rc1.overloadRetries - rc0.overloadRetries), "count");
    r.add("fleet.failovers", double(rc1.failovers - rc0.failovers),
          "count");
    double maxSent = 0.0, sumSent = 0.0;
    for (std::size_t i = 0; i < rc1.sentPerShard.size(); ++i) {
        const double sent =
            double(rc1.sentPerShard[i] - rc0.sentPerShard[i]);
        maxSent = std::max(maxSent, sent);
        sumSent += sent;
    }
    r.add("fleet.shard_skew",
          sumSent > 0 ? maxSent * double(kShards) / sumSent : 0.0, "ratio");

    if (!traced)
        return r;

    for (const auto &[addr, batch] : s.router->drainTracesAll())
        capture.addDaemon("shard " + addr, batch);
    capture.finish();
    std::vector<double> waits;
    for (const auto &d : s.shards)
        for (double us : capture.durations("shard " + d->address(),
                                           "serve.queue_wait"))
            waits.push_back(us);
    const Summary qw = summarize(waits);
    r.add("serve.queue_wait_us.p50", qw.p50, "us");
    r.add("serve.queue_wait_us.p99", qw.p99, "us");
    const Summary sv = summarize(l.serviceUs);
    r.add("serve.service_us.p50", sv.p50, "us");
    r.add("serve.service_us.p99", sv.p99, "us");

    Layers layers;
    std::vector<double> rtt;
    measureRouter(s, layers, rtt);
    serve::Client probe;
    probe.connect(s.shards[0]->address());
    serve::Request drain;
    drain.traceDrainProbe = true;
    for (const obs::TraceEvent &ev :
         serve::decodeSpanBatch(probe.roundTrip(drain).spans)) {
        const std::uint64_t id = lineField(ev.args, "id");
        if (ev.name == "serve.request" && id >= 1 && id <= rtt.size())
            layers.add("transport", rtt[id - 1] - double(ev.dur));
    }
    r.add("serve.transport_us.p50", layers.summary("transport").p50, "us");
    r.add("fleet.router_us",
          layers.summary("fleet.Router.transactLines").p50 -
              layers.summary("serve.Client.replay").p50,
          "us");

    // The result store's read and write paths on the workload's keys.
    const std::string dir = o.outDir + "/fleet-microstore";
    removeTree(dir);
    {
        serve::ResultStore store(dir);
        for (std::size_t i = 0; i < s.jobs.size(); ++i) {
            const SpecJob &j = s.jobs[i];
            const sim::RunStats st = directRun(j);
            layers.time("serve.ResultStore.store", [&] {
                store.store(j.kind, j.unroll, j.spec, st);
            });
        }
        for (const SpecJob &j : s.jobs)
            layers.time("serve.ResultStore.load", [&] {
                return store.load(j.kind, j.unroll, j.spec);
            });
    }
    removeTree(dir);
    r.add("serve.store_store_us",
          layers.summary("serve.ResultStore.store").p50, "us");
    r.add("serve.store_load_us", layers.summary("serve.ResultStore.load").p50,
          "us");

    measureCodecAndCache(s.lines, l.lastPass, s.jobs, layers);
    measureClosedForm(s.jobs, layers);
    addP50P99(r, layers, "serve.decode", "serve.decode_us");
    addP50P99(r, layers, "serve.encode", "serve.encode_us");
    addP50P99(r, layers, "sim.closed_form", "sim.closed_form_us");
    r.add("core.cached_run_hit_us",
          layers.summary("core.cached_run_hit").p50, "us");
    finishTrace(o, capture, layers, r);
    return r;
}

} // namespace

RunResult
runFleetRepeat(const Options &o)
{
    std::vector<double> setups;
    std::unique_ptr<Setup> s;
    for (int i = 0; i < kSetupRepeats; ++i) {
        s.reset(); // stops the previous repetition's shards
        const auto t0 = Clock::now();
        s = setUp(o, false);
        setups.push_back(secondsSince(t0));
    }
    RunResult r = measure(o, *s, false);
    r.add("setup_s", median(setups), "s");
    s.reset();
    if (!o.trace)
        return r;
    s = setUp(o, true);
    RunResult t = measure(o, *s, true);
    addTraceOverhead(t, r);
    return combineTraced(std::move(r), std::move(t));
}

} // namespace perfbench
