/**
 * @file
 * Closed-form performance bounds.
 *
 * Every dataflow in the simulator walks its schedule cycle by cycle,
 * but each walk's counters are expressible in closed form: cycles,
 * PE-slot occupancy, and buffer accesses are sums over loop bounds
 * whose per-axis structure factorizes. staticRunStats() evaluates
 * those sums directly — no per-cycle loop over the output map — and is
 * required to match the cycle walk of makeArch(kind, unroll) *bit for
 * bit*. A divergence on any counter is, by construction, a bug in one
 * of the two derivations; the randomized property test in
 * tests/test_static_bounds.cc enforces the equivalence, and
 * checkBoundsAgainstSim() reports divergence as GA-BOUNDS-DIVERGE.
 *
 * The closed forms are what make the DSE pre-filter and the
 * GA-UNROLL-DIVIDE utilization figures cheap: deriving a design
 * point's bounds costs O(z * (kh*oh + kw*ow)), z the zero-insertion
 * stride, not O(simulated cycles).
 */

#ifndef GANACC_VERIFY_STATIC_BOUNDS_HH
#define GANACC_VERIFY_STATIC_BOUNDS_HH

#include <vector>

#include "core/unrolling.hh"
#include "sim/conv_spec.hh"
#include "sim/segments.hh"
#include "sim/stats.hh"
#include "verify/diagnostics.hh"

namespace ganacc {
namespace verify {

/** The design knobs that change a schedule; the defaults are what
 *  makeArch() configures. The ablation checks flip them. */
struct DataflowKnobs
{
    bool zeroSkip = true;      ///< NLR: skip structural zeros
    bool reorderedFeed = true; ///< ZFOST: parity-grouped weight feed
};

/** One job's closed-form model on one dataflow: the exact RunStats of
 *  the walk and the output-class description (sim/segments) they were
 *  derived from — the one Dense class for NLR, WST and OST, the
 *  parity classes for ZFOST and ZFWST. */
struct StaticModel
{
    core::ArchKind kind = core::ArchKind::NLR;
    sim::RunStats stats;
    std::vector<sim::ClassSegment> classes;
};

/**
 * The one place an ArchKind is mapped to its closed form, its segment
 * split and its knobs. Panics on the same preconditions the simulator
 * asserts (ZFOST/ZFWST reject stuffed inputs streamed with stride > 1)
 * — run checkConvSpec first.
 */
StaticModel staticModel(core::ArchKind kind, const sim::Unroll &unroll,
                        const sim::ConvSpec &spec,
                        const DataflowKnobs &knobs = {});

/** The exact RunStats makeArch(kind, unroll)->run(spec) would return,
 *  derived without simulating: staticModel(kind, unroll, spec).stats. */
sim::RunStats staticRunStats(core::ArchKind kind,
                             const sim::Unroll &unroll,
                             const sim::ConvSpec &spec);

/**
 * Cross-check a simulated run against the closed forms; every counter
 * that diverges gets a GA-BOUNDS-DIVERGE error naming both values.
 * Returns true when all counters agree.
 */
bool checkBoundsAgainstSim(core::ArchKind kind,
                           const sim::Unroll &unroll,
                           const sim::ConvSpec &spec,
                           const sim::RunStats &simulated,
                           Report &report);

} // namespace verify
} // namespace ganacc

#endif // GANACC_VERIFY_STATIC_BOUNDS_HH
