/**
 * @file
 * Transient-fault outcomes without hooked cycle walks.
 *
 * A hooked walk of a dataflow visits every dense MAC it issues and
 * folds the products into each output in the dataflow's order; an
 * armed upset fires when the walk issues its lattice point. JobSites
 * reaches the same outputs and counters in O(effective MACs + fired
 * sites) for every dataflow of a campaign row at once:
 *
 *  (a) fired = the armed sites predicate (d) issues
 *      (sim::issuesMac), so no replay decides whether an upset fires;
 *  (b) one fault-free pass per distinct accumulation order accumulates
 *      each output in that order (sim::macGroups), skipping zero
 *      products, which is exact because x + (+-0) == x for an
 *      accumulator that starts at +0;
 *  (c) each output element hit by a fired site is recomputed along the
 *      dataflow's whole chain with the flipped products substituted.
 *
 * Orders are compared per output parity class after dropping the
 * kernel positions whose products are structural zeros for that class
 * (and, for four-dimension outputs, the grouping, since each output
 * folds one input channel), so e.g. OST, ZFOST and a single-chunk
 * ZFWST share one pass. The result is bit-identical to the hooked
 * walk when the operands honour the spec's zero structure
 * (sim::makeStreamedInput / makeStreamedKernel), which fold()
 * asserts. Stuck-at PE lanes depend on the physical lane of each
 * product and are not modeled here: plans with `pe` faults take the
 * walk.
 */

#ifndef GANACC_FAULT_SITE_ENGINE_HH
#define GANACC_FAULT_SITE_ENGINE_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "fault/fault_plan.hh"
#include "fault/injector.hh"
#include "sim/conv_spec.hh"
#include "sim/mac_schedule.hh"
#include "sim/stats.hh"
#include "tensor/tensor.hh"

namespace ganacc {
namespace fault {

/** One job under one FaultPlan, evaluated for several dataflows. */
class JobSites
{
  public:
    /**
     * Arm the plan's transient sites exactly as
     * FaultInjector::beginJob(spec, job_key) does and allocate one
     * fault-free output per distinct order among `schedules`. `in` and
     * `w` are read by fold() and outcome() and must outlive the
     * object; they may still be filled in between.
     */
    JobSites(const FaultPlan &plan, const sim::ConvSpec &spec,
             const tensor::Tensor &in, const tensor::Tensor &w,
             std::uint64_t job_key,
             std::vector<sim::MacSchedule> schedules);

    /** The number of distinct accumulation orders. */
    std::size_t orders() const { return faultFree_.size(); }

    /**
     * Run the fault-free pass of order `order_index` into its output. Folds of
     * distinct orders may run concurrently; every order must be folded
     * before outcome(). Construction and folding are split so a caller
     * can allocate on one thread and fold on another.
     */
    void fold(std::size_t order_index);

    /** What the hooked walk of one dataflow produces for the job. */
    struct Outcome
    {
        /** The fault-free output in the dataflow's order; shared by
         *  every dataflow with the same order. */
        const tensor::Tensor *faultFree = nullptr;
        /** (flat output index, value) of the elements fired sites
         *  changed, ascending by index. */
        std::vector<std::pair<std::size_t, float>> fixups;
        FaultInjector::Counters mac;

        /** faultFree with the fix-ups applied. */
        tensor::Tensor output() const;
    };

    /**
     * The outcome of schedule `i`. `stats` is that dataflow's RunStats
     * for the job; its effective + ineffectual MACs are the products a
     * hook that visits ineffectual slots observes.
     */
    Outcome outcome(std::size_t i, const sim::RunStats &stats) const;

  private:
    /** Flat output index of a lattice point. */
    std::size_t outputIndex(const sim::MacContext &p) const;

    /** Output (p.of, [p.c,] p.oy, p.ox) of schedule `m`, folded with the
     *  upsets at `fired` (sites of this output, ascending) applied. */
    float refold(const sim::MacSchedule &m, const sim::MacContext &p,
                 const std::vector<std::uint64_t> &fired) const;

    /** Issued points whose input value is non-zero, x nof. */
    std::uint64_t nonzeroInputVisits(const sim::MacSchedule &m) const;

    FaultInjector injector_; ///< armed on the job; flips products
    sim::ConvSpec spec_;
    const tensor::Tensor *in_;
    const tensor::Tensor *w_;
    std::vector<sim::MacSchedule> schedules_;
    int z_ = 1; ///< output classes are z x z (1 for strided jobs)
    /** Per distinct order, its groups per output class. */
    std::vector<std::vector<sim::MacGroups>> orders_;
    std::vector<tensor::Tensor> faultFree_; ///< one per distinct order
    std::vector<std::size_t> orderOf_;      ///< schedule -> orders_
};

} // namespace fault
} // namespace ganacc

#endif // GANACC_FAULT_SITE_ENGINE_HH
