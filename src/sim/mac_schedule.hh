/**
 * @file
 * Which dense-lattice MACs a dataflow issues, and in which order each
 * output accumulates them.
 *
 * The fault model arms transient upsets on the dense MAC lattice
 * (of, c, oy, ox, ky, kx); an upset fires when the dataflow issues
 * that multiply. Whether it does is a fact about the schedule, not
 * about the data, because the zero-free designs skip structural zeros
 * in address generation. MacSchedule states that fact per dataflow as
 * predicate (d) of issuesMac(), plus the order in which a functional
 * walk folds an output's products: an ordered list of kernel-position
 * groups, with the input channels looped inside each group and the
 * group's positions inside the channel loop. Four-dimension outputs
 * have one channel per output, so only the flattened position order
 * matters there.
 *
 *   dataflow   issue            order
 *   NLR        All              one group per (ky, kx)
 *   NLR-skip   NonzeroOperands  one group per (ky, kx)
 *   WST        InBoundsInput    pKy x pKx weight tiles
 *   OST        All              one group, every position
 *   ZFOST      ClassKernel      one group, every position
 *   ZFWST      ClassKernel      pKy*pKx chunks of the class's list
 *
 * ClassKernel keeps the kernel rows and columns the output's parity
 * class streams (sim/segments classKernelLive). The walks remain the
 * reference: tests/test_fault.cc holds the count of issued points to
 * the closed forms' effective + ineffectual MACs and the fault engine
 * built on this description to the hooked walks, bit for bit.
 */

#ifndef GANACC_SIM_MAC_SCHEDULE_HH
#define GANACC_SIM_MAC_SCHEDULE_HH

#include <vector>

#include "sim/conv_spec.hh"

namespace ganacc {
namespace sim {

/** One kernel position. */
struct KernelPos
{
    int ky = 0;
    int kx = 0;

    bool operator==(const KernelPos &) const = default;
};

/** Ordered kernel-position groups of one output's accumulation. */
using MacGroups = std::vector<std::vector<KernelPos>>;

/** How a dataflow's functional walk issues and folds MACs. */
struct MacSchedule
{
    /** Predicate (d): which dense lattice points are issued. */
    enum class Issue
    {
        All,             ///< every point, zeros and padding included
        NonzeroOperands, ///< drops structural kernel zeros and
                         ///< in-bounds stuffed inputs
        InBoundsInput,   ///< drops points whose input is padding
        ClassKernel,     ///< the parity class's live rows x columns
    };

    /** How an output's products are grouped. */
    enum class Order
    {
        PerPosition, ///< one group per (ky, kx), row-major
        OneGroup,    ///< every position in one group, row-major
        KernelTiles, ///< pKy x pKx tiles, tile-major then row-major
        ClassChunks, ///< pKy*pKx chunks of the class's live positions
    };

    Issue issue = Issue::All;
    Order order = Order::OneGroup;
    int pKy = 1; ///< tile rows (KernelTiles); chunk = pKy*pKx
    int pKx = 1; ///< tile columns (KernelTiles)
    /** Without a hook that asks for ineffectual slots, the walk still
     *  visits every issued point whose input value is non-zero (OST,
     *  ZFOST) rather than only the effective ones. */
    bool visitsNonzeroInputs = false;
};

/** Predicate (d): true when the dataflow issues the multiply of output
 *  (oy, ox) with kernel position (ky, kx), for every (of, c) alike. */
bool issuesMac(const MacSchedule &m, const ConvSpec &s, int oy, int ox,
               int ky, int kx);

/** The accumulation groups of output (oy, ox); they depend on the
 *  output's parity class only. Positions the dataflow does not issue
 *  may appear (they contribute nothing). */
MacGroups macGroups(const MacSchedule &m, const ConvSpec &s, int oy,
                    int ox);

} // namespace sim
} // namespace ganacc

#endif // GANACC_SIM_MAC_SCHEDULE_HH
