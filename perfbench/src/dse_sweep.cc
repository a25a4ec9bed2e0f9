/**
 * @file
 * dse-sweep: core::sweepFrontierParallel over the three paper models
 * with the static verifier and schedule prefilter on, the cycle cache
 * cleared before every sweep (a user pays a cold sweep per process).
 * The only workload where the closed form and the schedule analysis
 * dominate.
 */

#include <cstdio>

#include "core/cycle_cache.hh"
#include "core/dse.hh"
#include "workloads.hh"

namespace perfbench {

using namespace ganacc;

namespace {

/** Constraint sets per round; one round sweeps each over each model. */
constexpr int kVariants = 4;

/** Digest of the seed-1 frontiers (every point of every sweep). */
constexpr std::uint64_t kSeed1Digest = 0x08e4009b90ed7487ULL;

std::string
pointText(const core::DsePoint &p)
{
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "%d %d %d %llu %.17g %llu %llu %d %d %d %d %d %d %s",
                  p.wPof, p.stPof, p.totalPes,
                  (unsigned long long)p.iterationCycles,
                  p.samplesPerSecond,
                  (unsigned long long)p.resources.luts,
                  (unsigned long long)p.resources.flipFlops,
                  p.resources.bram36, p.resources.dsp, int(p.fitsDevice),
                  int(p.bandwidthFeasible), int(p.verifierRejected),
                  int(p.scheduleRejected), p.verifierCode.c_str());
    return buf;
}

std::string
frontierText(const std::vector<core::DsePoint> &pts)
{
    std::string s;
    for (const core::DsePoint &p : pts)
        s += pointText(p) + "\n";
    return s;
}

struct Setup
{
    std::vector<gan::GanModel> models;
    std::vector<core::DseConstraints> cons;
    /// Serial frontier per (variant, model): the reference.
    std::vector<std::string> expected;
};

Setup
setUp(std::uint64_t seed)
{
    Setup s;
    s.models = paperModels();
    s.cons = dseConstraints(seed, kVariants);
    for (const core::DseConstraints &c : s.cons)
        for (const gan::GanModel &m : s.models) {
            core::CycleCache::instance().clear();
            s.expected.push_back(frontierText(core::sweepFrontier(c, m)));
        }
    core::CycleCache::instance().clear();
    return s;
}

RunResult
measure(const Options &o, const Setup &s, bool traced)
{
    RunResult r;
    TraceCapture capture;
    if (traced)
        capture.arm();
    // Sweep times per (constraint set, model) cell.
    std::vector<std::vector<double>> cellUs(s.expected.size());
    std::uint64_t points = 0;
    std::vector<std::string> firstRound;
    const auto t0 = Clock::now();
    do {
        std::vector<std::string> round;
        for (const core::DseConstraints &c : s.cons)
            for (const gan::GanModel &m : s.models) {
                core::CycleCache::instance().clear();
                const auto w0 = Clock::now();
                std::vector<core::DsePoint> pts;
                {
                    obs::Span span("core.sweepFrontierParallel", "bench");
                    pts = core::sweepFrontierParallel(c, m, o.nproc);
                }
                cellUs[round.size()].push_back(usBetween(w0, Clock::now()));
                points += pts.size();
                round.push_back(frontierText(pts));
            }
        ++r.attempted;
        if (round != s.expected) {
            ++r.failed;
            r.fail("parallel frontier differs from the serial sweep");
        }
        if (firstRound.empty())
            firstRound = std::move(round);
    } while (secondsSince(t0) < o.seconds);
    core::CycleCache::instance().clear();

    const std::uint64_t d = digest(firstRound);
    std::fprintf(stderr, "dse-sweep: digest %016llx\n",
                 (unsigned long long)d);
    if (o.seed == 1 && d != kSeed1Digest)
        r.fail("seed-1 frontier digest changed");

    // A round's time is the sum of its cells' median sweep times:
    // each median is over every round of the run, so a burst of host
    // noise moves a few samples of each cell, not the figure.
    std::vector<double> all;
    double roundUs = 0.0;
    for (const std::vector<double> &v : cellUs) {
        all.insert(all.end(), v.begin(), v.end());
        roundUs += median(v);
    }
    const Summary lat = summarize(all);
    r.add("lat_p50_us", lat.p50, "us");
    r.add("bench.lat_p99_us", lat.p99, "us");
    r.add("req_per_s", double(points) / double(r.attempted) / roundUs * 1e6,
          "1/s");
    r.add("wall_s", roundUs / 1e6, "s");
    r.phases.push_back({"sweep-rounds", r.attempted,
                        r.attempted - r.failed, r.failed, 0});

    if (traced) {
        capture.finish();
        Layers layers;
        measureDseLayers(s.cons.front(), layers, r);
        std::vector<SpecJob> jobs;
        for (const SpecJob &j : tableVJobs())
            if (j.kind == core::ArchKind::ZFOST ||
                j.kind == core::ArchKind::ZFWST)
                jobs.push_back(j);
        measureClosedForm(jobs, layers);
        addP50P99(r, layers, "sim.closed_form", "sim.closed_form_us");
        finishTrace(o, capture, layers, r);
    }
    return r;
}

} // namespace

RunResult
runDseSweep(const Options &o)
{
    std::vector<double> setups;
    Setup s;
    for (int i = 0; i < kSetupRepeats; ++i) {
        const auto t0 = Clock::now();
        s = setUp(o.seed);
        setups.push_back(secondsSince(t0));
    }
    RunResult r = measure(o, s, false);
    r.add("setup_s", median(setups), "s");
    r.add("peak_rss_mb", selfPeakRssMb(), "MB");
    if (!o.trace)
        return r;
    RunResult t = measure(o, s, true);
    addTraceOverhead(t, r);
    return combineTraced(std::move(r), std::move(t));
}

} // namespace perfbench
