/**
 * @file
 * fault-campaign: fault::runResilienceCampaign on MNIST-GAN, the seed
 * as the plan seed, `nproc` jobs. Almost all of its time is
 * functional cycle walks and sim::genericConvRef; serve and fleet are
 * not involved. The baseline for an O(armed sites) campaign engine.
 */

#include <cstdio>

#include "core/unrolling.hh"
#include "fault/campaign.hh"
#include "sim/phase.hh"
#include "util/random.hh"
#include "workloads.hh"

namespace perfbench {

using namespace ganacc;

namespace {

constexpr int kSitesPerJob = 64;

/**
 * Set-up repetitions. One set-up is about 0.13 s of single-threaded
 * reference convolutions, whose speed on a shared host drifts by a
 * quarter within a second, so the median is taken over about two
 * seconds of set-ups.
 */
constexpr int kSetups = 15;

/**
 * Digest of the seed-1 campaign: armed/fired/masked and output RMSE
 * of every cell. A change that moves any of them fails the run.
 */
constexpr std::uint64_t kSeed1Digest = 0x76f5b6affc44c5ecULL;

std::uint64_t
campaignDigest(const fault::CampaignResult &res)
{
    std::vector<std::string> parts;
    for (const fault::CellResult &c : res.cells) {
        char buf[256];
        std::snprintf(buf, sizeof buf, "%s %s %llu %llu %llu %.17g",
                      c.arch.c_str(), c.row.c_str(),
                      (unsigned long long)c.mac.armed,
                      (unsigned long long)c.mac.fired,
                      (unsigned long long)c.mac.masked(), c.outputRmse);
        parts.push_back(buf);
    }
    return digest(parts);
}

/** Jobs of each campaign cell: cells are row-major, rows x columns. */
std::size_t
cellJobs(const fault::CampaignResult &res,
         const std::vector<std::size_t> &rowJobs, std::size_t cell)
{
    return rowJobs[cell / (res.cells.size() / rowJobs.size())];
}

/** The invariants that hold for any seed. */
void
checkInvariants(const fault::CampaignResult &res,
                const std::vector<std::size_t> &rowJobs, RunResult &r)
{
    for (std::size_t i = 0; i < res.cells.size(); ++i) {
        const fault::CellResult &c = res.cells[i];
        const std::uint64_t want =
            std::uint64_t(kSitesPerJob) * cellJobs(res, rowJobs, i);
        if (c.mac.armed != want)
            r.fail(c.arch + " " + c.row + ": armed " +
                   std::to_string(c.mac.armed) + " != sites x jobs " +
                   std::to_string(want));
        if (c.mac.fired > c.mac.armed)
            r.fail(c.arch + " " + c.row + ": fired > armed");
        // Zero-executing NLR and OST visit the whole dense lattice.
        if ((c.arch == "NLR" || c.arch == "OST") &&
            c.mac.fired != c.mac.armed)
            r.fail(c.arch + " " + c.row + ": did not fire every site");
    }
}

/** Operands and reference output of one kernel-check job. */
struct KernelJob
{
    TableVRow row;
    sim::ConvSpec spec;
    tensor::Tensor in, w, ref;
};

struct Setup
{
    gan::GanModel model;
    fault::FaultPlan plan;
    std::vector<std::size_t> rowJobs; ///< jobs per campaign row
    /// The first job of each campaign row, with seeded operands and
    /// the sim::genericConvRef output the walks are checked against.
    std::vector<KernelJob> kernelJobs;
};

Setup
setUp(std::uint64_t seed)
{
    Setup s;
    s.model = gan::makeMnistGan();
    s.plan = campaignPlan(seed, kSitesPerJob);
    for (const TableVRow &row : kTableVRows) {
        const auto jobs = sim::familyJobs(s.model, row.family);
        s.rowJobs.push_back(jobs.size());
        KernelJob k{row, jobs.front(), {}, {}, {}};
        util::Rng rng(seed);
        k.in = sim::makeStreamedInput(k.spec, rng);
        k.w = sim::makeStreamedKernel(k.spec, rng);
        k.ref = sim::genericConvRef(k.spec, k.in, k.w);
        s.kernelJobs.push_back(std::move(k));
    }
    return s;
}

/**
 * The fault-free functional walk of every architecture on the kernel
 * jobs must match the reference kernel to 1e-3, the tolerance the
 * walks are held to against sim::genericConvRef. With `layers` the
 * walks and the reference are also timed, as MMAC/s of effective MACs.
 */
void
checkKernels(const Setup &s, RunResult &r, Layers *layers)
{
    for (core::ArchKind kind : core::allArchKinds()) {
        double macs = 0.0, us = 0.0;
        for (const KernelJob &k : s.kernelJobs) {
            const auto arch = core::makeArch(
                kind, core::paperUnroll(kind, k.row.role, k.row.family,
                                        k.row.pes));
            tensor::Tensor out = sim::makeOutputTensor(k.spec);
            const auto t0 = Clock::now();
            arch->run(k.spec, &k.in, &k.w, &out);
            us += usBetween(t0, Clock::now());
            macs += double(k.spec.effectiveMacs());
            if (!tensor::approxEqual(k.ref, out, 1e-3f))
                r.fail(core::archKindName(kind) +
                       " walk differs from genericConvRef on " +
                       k.spec.label);
        }
        if (layers)
            r.add("sim.walk_mmac_per_s." + core::archKindName(kind),
                  macs / us, "MMAC/s");
    }
    if (!layers)
        return;
    double macs = 0.0, us = 0.0;
    for (const KernelJob &k : s.kernelJobs) {
        const auto t0 = Clock::now();
        layers->time("sim.genericConvRef", [&] {
            return sim::genericConvRef(k.spec, k.in, k.w);
        });
        us += usBetween(t0, Clock::now());
        macs += double(k.spec.effectiveMacs());
    }
    r.add("sim.conv_ref_mmac_per_s", macs / us, "MMAC/s");
}

RunResult
measure(const Options &o, const Setup &s, bool traced)
{
    RunResult r;
    TraceCapture capture;
    if (traced)
        capture.arm();
    fault::CampaignOptions opt;
    opt.jobs = o.nproc;
    std::vector<double> seconds;
    std::uint64_t first = 0;
    fault::CampaignResult last;
    // At least two campaigns; another only if it should end in time.
    const auto t0 = Clock::now();
    do {
        const auto c0 = Clock::now();
        {
            obs::Span span("fault.runResilienceCampaign", "bench");
            last = fault::runResilienceCampaign(s.model, s.plan, opt);
        }
        seconds.push_back(secondsSince(c0));
        ++r.attempted;
        const std::uint64_t d = campaignDigest(last);
        if (first == 0)
            first = d;
        else if (d != first)
            r.fail("campaign results differ between repetitions");
    } while (seconds.size() < 2 ||
             secondsSince(t0) + median(seconds) <= o.seconds);

    checkInvariants(last, s.rowJobs, r);
    if (o.seed == 1 && first != kSeed1Digest)
        r.fail("seed-1 campaign digest changed");
    std::fprintf(stderr, "fault-campaign: digest %016llx\n",
                 (unsigned long long)first);

    std::size_t jobsPerCampaign = 0;
    for (std::size_t i = 0; i < last.cells.size(); ++i)
        jobsPerCampaign += cellJobs(last, s.rowJobs, i);
    const double wall = median(seconds);
    r.add("lat_p50_us", wall * 1e6, "us");
    r.add("bench.lat_p99_us", percentile(seconds, 0.99) * 1e6, "us");
    r.add("req_per_s", double(jobsPerCampaign) / wall, "1/s");
    r.add("wall_s", wall, "s");
    r.phases.push_back({"campaign", r.attempted, r.attempted - r.failed,
                        r.failed, 0});

    std::uint64_t armed = 0, fired = 0;
    for (const fault::ArchSummary &a : last.archs) {
        armed += a.armed;
        fired += a.fired;
    }
    r.add("fault.armed", double(armed), "count");
    r.add("fault.fired", double(fired), "count");
    if (!traced) {
        checkKernels(s, r, nullptr);
    } else {
        capture.finish();
        Layers layers;
        checkKernels(s, r, &layers);
        std::vector<SpecJob> jobs;
        const auto table = tableVJobs();
        for (const SpecJob &j : table)
            if (j.spec.label.rfind("MNIST-GAN", 0) == 0)
                jobs.push_back(j);
        measureClosedForm(jobs, layers);
        addP50P99(r, layers, "sim.closed_form", "sim.closed_form_us");
        // dse-sweep is outside the gated workloads, so the other batch
        // workload also measures the design-space layers.
        measureDseLayers(dseConstraints(o.seed, 1).front(), layers, r);
        finishTrace(o, capture, layers, r);
    }
    return r;
}

} // namespace

RunResult
runFaultCampaign(const Options &o)
{
    std::vector<double> setups;
    Setup s;
    for (int i = 0; i < kSetups; ++i) {
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
