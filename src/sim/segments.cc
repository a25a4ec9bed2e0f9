/**
 * @file
 * Output-class segment enumeration.
 */

#include "sim/segments.hh"

#include "util/logging.hh"

namespace ganacc {
namespace sim {

namespace {

/** One axis of a ClassSegment, as references into it. */
struct AxisFields
{
    std::uint64_t &scheduled, &nonzero, &in, &inNz, &sum;
};

/** Fill one axis of class `c` (origin `c0`, `n` outputs): count the
 *  scheduled kernel coordinates and the ones among them that are not
 *  structural zeros, and sum over them the outputs whose input is in
 *  bounds and, for the non-zero ones, in bounds and non-zero. */
void
classAxis(const ConvSpec &s, bool row, bool zero_free, int c0, int z,
          std::uint64_t n, AxisFields f)
{
    const int k_extent = row ? s.kh : s.kw;
    const int extent = row ? s.ih : s.iw;
    for (int k = 0; k < k_extent; ++k) {
        const bool k_zero = row ? s.kernelRowZero(k) : s.kernelColZero(k);
        if (zero_free && !classKernelLive(s, row, z, c0, k))
            continue;
        ++f.scheduled;
        const int first = c0 * s.stride + k - s.pad;
        const auto in = std::uint64_t(countNonzeroCoords(
            0, int(n), z * s.stride, first, 0, extent, 1, -1));
        f.in += in;
        if (k_zero)
            continue; // dense schedule: a burned slot, never effective
        ++f.nonzero;
        f.inNz += in;
        f.sum += std::uint64_t(countNonzeroCoords(
            0, int(n), z * s.stride, first, 0, extent, s.inZeroStride,
            row ? s.inOrigH : s.inOrigW));
    }
}

} // namespace

bool
classKernelLive(const ConvSpec &s, bool row, int z, int c0, int k)
{
    const bool k_zero = row ? s.kernelRowZero(k) : s.kernelColZero(k);
    return !k_zero && (z == 1 || (c0 + k - s.pad) % z == 0);
}

std::vector<ClassSegment>
classSegments(const ConvSpec &s, ClassSplit split)
{
    const bool zero_free = split == ClassSplit::ZeroFree;
    const int z = zero_free ? s.inZeroStride : 1;
    GANACC_ASSERT(z == 1 || s.stride == 1,
                  "stuffed input with strided streaming is not a GAN "
                  "pattern: ", s.describe());
    std::vector<ClassSegment> classes;
    for (int cy = 0; cy < z && cy < s.oh; ++cy) {
        for (int cx = 0; cx < z && cx < s.ow; ++cx) {
            ClassSegment c;
            c.nY = ceilDiv(std::uint64_t(s.oh - cy), std::uint64_t(z));
            c.nX = ceilDiv(std::uint64_t(s.ow - cx), std::uint64_t(z));
            classAxis(s, true, zero_free, cy, z, c.nY,
                      {c.kRows, c.kRowsNz, c.rowIn, c.rowInNz, c.rowSum});
            classAxis(s, false, zero_free, cx, z, c.nX,
                      {c.kCols, c.kColsNz, c.colIn, c.colInNz, c.colSum});
            classes.push_back(c);
        }
    }
    return classes;
}

} // namespace sim
} // namespace ganacc
