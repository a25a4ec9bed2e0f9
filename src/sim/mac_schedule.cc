/**
 * @file
 * MAC issue predicate and accumulation groups.
 */

#include "sim/mac_schedule.hh"

#include <algorithm>

#include "sim/segments.hh"
#include "util/logging.hh"

namespace ganacc {
namespace sim {

namespace {

/** The zero-free split's stride; ZeroFree segments assert the same. */
int
zeroFreeStride(const ConvSpec &s)
{
    const int z = s.inZeroStride;
    GANACC_ASSERT(z == 1 || s.stride == 1,
                  "stuffed input with strided streaming is not a GAN "
                  "pattern: ", s.describe());
    return z;
}

} // namespace

bool
issuesMac(const MacSchedule &m, const ConvSpec &s, int oy, int ox,
          int ky, int kx)
{
    const int iy = oy * s.stride + ky - s.pad;
    const int ix = ox * s.stride + kx - s.pad;
    const bool in_bounds = iy >= 0 && iy < s.ih && ix >= 0 && ix < s.iw;
    switch (m.issue) {
      case MacSchedule::Issue::All:
        return true;
      case MacSchedule::Issue::NonzeroOperands:
        return !s.kernelIsZero(ky, kx) &&
               !(in_bounds && s.inputIsZero(iy, ix));
      case MacSchedule::Issue::InBoundsInput:
        return in_bounds;
      case MacSchedule::Issue::ClassKernel: {
        const int z = zeroFreeStride(s);
        return classKernelLive(s, true, z, oy % z, ky) &&
               classKernelLive(s, false, z, ox % z, kx);
      }
    }
    return false;
}

MacGroups
macGroups(const MacSchedule &m, const ConvSpec &s, int oy, int ox)
{
    MacGroups groups;
    switch (m.order) {
      case MacSchedule::Order::PerPosition:
        for (int ky = 0; ky < s.kh; ++ky)
            for (int kx = 0; kx < s.kw; ++kx)
                groups.push_back({{ky, kx}});
        break;
      case MacSchedule::Order::OneGroup:
        groups.emplace_back();
        for (int ky = 0; ky < s.kh; ++ky)
            for (int kx = 0; kx < s.kw; ++kx)
                groups.back().push_back({ky, kx});
        break;
      case MacSchedule::Order::KernelTiles:
        for (int ky0 = 0; ky0 < s.kh; ky0 += m.pKy)
            for (int kx0 = 0; kx0 < s.kw; kx0 += m.pKx) {
                groups.emplace_back();
                for (int ky = ky0; ky < std::min(ky0 + m.pKy, s.kh); ++ky)
                    for (int kx = kx0; kx < std::min(kx0 + m.pKx, s.kw);
                         ++kx)
                        groups.back().push_back({ky, kx});
            }
        break;
      case MacSchedule::Order::ClassChunks: {
        const int z = zeroFreeStride(s);
        const std::size_t cap = std::size_t(m.pKy) * std::size_t(m.pKx);
        for (int ky = 0; ky < s.kh; ++ky) {
            if (!classKernelLive(s, true, z, oy % z, ky))
                continue;
            for (int kx = 0; kx < s.kw; ++kx) {
                if (!classKernelLive(s, false, z, ox % z, kx))
                    continue;
                if (groups.empty() || groups.back().size() == cap)
                    groups.emplace_back();
                groups.back().push_back({ky, kx});
            }
        }
        break;
      }
    }
    return groups;
}

} // namespace sim
} // namespace ganacc
