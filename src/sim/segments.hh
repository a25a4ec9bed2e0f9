/**
 * @file
 * The output classes of the five dataflows, enumerated once per job.
 *
 * ZFOST and ZFWST split a zero-inserted T-CONV output into the z x z
 * zero-free parity classes of Fig. 12; each class streams only the
 * kernel rows and columns that are parity-compatible with the input
 * stuffing and not structural zeros. NLR, WST and OST see the one
 * Dense class: the whole output with every kernel position scheduled.
 *
 * The closed forms, the symbolic schedule relation and the legality
 * checks interpret this description. The cycle walks do not: they
 * enumerate the classes by hand and stay the independent reference
 * the parity suites diff the interpretations against.
 */

#ifndef GANACC_SIM_SEGMENTS_HH
#define GANACC_SIM_SEGMENTS_HH

#include <cstdint>
#include <vector>

#include "sim/conv_spec.hh"

namespace ganacc {
namespace sim {

/** ceil(a / b) for b > 0. */
constexpr std::uint64_t
ceilDiv(std::uint64_t a, std::uint64_t b)
{
    return (a + b - 1) / b;
}

/** One output class of a job and the kernel part it schedules. */
struct ClassSegment
{
    std::uint64_t nY = 0;  ///< output rows of the class
    std::uint64_t nX = 0;  ///< output columns of the class
    std::uint64_t kRows = 0; ///< kernel rows the class schedules
    std::uint64_t kCols = 0; ///< kernel columns the class schedules
    /** The scheduled kernel rows that are not structural zeros, |R|.
     *  kColsNz likewise for columns, |C|. */
    std::uint64_t kRowsNz = 0;
    std::uint64_t kColsNz = 0;
    /** Over every scheduled kernel row: the sum of the class rows
     *  whose input row is in bounds (InAllR). colIn likewise. */
    std::uint64_t rowIn = 0;
    std::uint64_t colIn = 0;
    /** rowIn over the non-zero kernel rows only (InR). colInNz
     *  likewise (InC). */
    std::uint64_t rowInNz = 0;
    std::uint64_t colInNz = 0;
    /** rowInNz restricted to the input rows that are not structural
     *  zeros (countNonzeroCoords). colSum likewise for columns. */
    std::uint64_t rowSum = 0;
    std::uint64_t colSum = 0;

    /** True when the class schedules no kernel position at all. */
    bool empty() const { return kRows == 0 || kCols == 0; }
};

/** How a dataflow partitions the output map and the kernel. */
enum class ClassSplit
{
    Dense,    ///< NLR/WST/OST: one class, every kernel position scheduled
    ZeroFree, ///< ZFOST/ZFWST: z x z parity classes, zeros skipped
};

/**
 * True when an output class whose origin on this axis is `c0` streams
 * kernel coordinate `k` under a z x z zero-free split: `k` is not a
 * structural kernel zero and, for z > 1, it is parity-compatible with
 * the input stuffing. The per-axis fact the ZeroFree classes and the
 * zero-free MAC issue predicate (sim/mac_schedule) are built from.
 * Plain C++ `%` on the parity test: negative remainders match the
 * walks.
 */
bool classKernelLive(const ConvSpec &s, bool row, int z, int c0, int k);

/**
 * The job's classes in the walks' order (cy outer, cx inner). Empty
 * classes are kept: they still partition the output map. ZeroFree
 * panics on a stuffed input streamed with stride > 1, which is not a
 * GAN pattern and which the zero-free walks reject too.
 */
std::vector<ClassSegment> classSegments(const ConvSpec &s,
                                        ClassSplit split);

} // namespace sim
} // namespace ganacc

#endif // GANACC_SIM_SEGMENTS_HH
