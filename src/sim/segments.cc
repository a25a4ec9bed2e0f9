/**
 * @file
 * Output-class segment enumeration.
 */

#include "sim/segments.hh"

#include "util/logging.hh"

namespace ganacc {
namespace sim {

namespace {

/** Fill one axis of class `c` (origin `c0`, `n` outputs): count the
 *  scheduled kernel coordinates and sum the non-zero outputs of the
 *  ones that are not structural kernel zeros. Plain C++ `%` on the
 *  parity test — negative remainders match the walks. */
void
classAxis(const ConvSpec &s, bool row, bool zero_free, int c0, int z,
          std::uint64_t n, std::uint64_t &scheduled, std::uint64_t &sum)
{
    const int k_extent = row ? s.kh : s.kw;
    for (int k = 0; k < k_extent; ++k) {
        const bool k_zero = row ? s.kernelRowZero(k) : s.kernelColZero(k);
        if (zero_free && (k_zero || (z > 1 && (c0 + k - s.pad) % z != 0)))
            continue;
        ++scheduled;
        if (k_zero)
            continue; // dense schedule: a burned slot, never effective
        sum += std::uint64_t(countNonzeroCoords(
            0, int(n), z * s.stride, c0 * s.stride + k - s.pad, 0,
            row ? s.ih : s.iw, s.inZeroStride,
            row ? s.inOrigH : s.inOrigW));
    }
}

} // namespace

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
            classAxis(s, true, zero_free, cy, z, c.nY, c.kRows, c.rowSum);
            classAxis(s, false, zero_free, cx, z, c.nX, c.kCols,
                      c.colSum);
            classes.push_back(c);
        }
    }
    return classes;
}

} // namespace sim
} // namespace ganacc
