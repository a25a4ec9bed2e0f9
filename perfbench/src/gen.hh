/**
 * @file
 * Seeded input generators. Every input a workload sends or runs is a
 * pure function of the seed: the same seed gives byte-identical
 * request lines, plans and constraint sets.
 */

#ifndef PERFBENCH_GEN_HH
#define PERFBENCH_GEN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/dse.hh"
#include "core/unrolling.hh"
#include "fault/fault_plan.hh"
#include "gan/models.hh"
#include "sim/arch.hh"
#include "sim/conv_spec.hh"
#include "sim/phase.hh"

namespace perfbench {

/** One single-job simulation: what a spec request asks for. */
struct SpecJob
{
    ganacc::core::ArchKind kind = ganacc::core::ArchKind::NLR;
    ganacc::sim::Unroll unroll;
    ganacc::sim::ConvSpec spec;
};

/** A Table V evaluation row: phase family on its PE bank. */
struct TableVRow
{
    ganacc::sim::PhaseFamily family;
    ganacc::core::BankRole role;
    int pes;
};

inline constexpr TableVRow kTableVRows[] = {
    {ganacc::sim::PhaseFamily::D, ganacc::core::BankRole::ST, 1200},
    {ganacc::sim::PhaseFamily::G, ganacc::core::BankRole::ST, 1200},
    {ganacc::sim::PhaseFamily::Dw, ganacc::core::BankRole::W, 480},
    {ganacc::sim::PhaseFamily::Gw, ganacc::core::BankRole::W, 480},
};

/** The three paper models: DCGAN, MNIST-GAN, cGAN. */
std::vector<ganacc::gan::GanModel> paperModels();

/**
 * The Table V matrix of every paper model as single-job spec
 * requests — the same 360 jobs as `ganacc-client --emit specs` over
 * dcgan, mnist-gan and cgan, in that order.
 */
std::vector<SpecJob> tableVJobs();

/**
 * `n` spec jobs with pairwise distinct content keys: a phase-family
 * job of a paper model, an architecture, and an unrolling drawn from
 * the seed that verify::checkUnroll passes without an error or a
 * warning.
 */
std::vector<SpecJob> uniqueJobs(std::uint64_t seed, std::size_t n);

/** Request lines for `jobs`, ids counting up from `firstId`. */
std::vector<std::string> requestLines(const std::vector<SpecJob> &jobs,
                                      std::uint64_t firstId = 1);

/** The content key the daemon caches the job under. */
std::string contentKeyOf(const SpecJob &job);

/** Direct simulation: core::makeArch(kind, unroll)->run(spec). */
ganacc::sim::RunStats directRun(const SpecJob &job);

/** The transient-upset plan of the fault campaign: plan seed = seed. */
ganacc::fault::FaultPlan campaignPlan(std::uint64_t seed,
                                      int sitesPerJob);

/**
 * `n` DSE constraint sets: the paper's 192 Gbps / XCVU9P point with
 * off-chip bandwidth and device budget perturbed from the seed.
 */
std::vector<ganacc::core::DseConstraints>
dseConstraints(std::uint64_t seed, int n);

/** True when `name` matches [A-Za-z0-9_.-]+. */
bool validMetricName(const std::string &name);

/** FNV-1a over a sequence of strings (a digest of outputs). */
std::uint64_t digest(const std::vector<std::string> &parts);

} // namespace perfbench

#endif // PERFBENCH_GEN_HH
