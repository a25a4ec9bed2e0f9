/**
 * @file
 * JobSites implementation.
 */

#include "fault/site_engine.hh"

#include <algorithm>

#include "sim/segments.hh"
#include "util/logging.hh"

namespace ganacc {
namespace fault {

namespace {

using sim::ConvSpec;
using sim::IndexRange;
using sim::KernelPos;
using sim::MacContext;
using sim::MacGroups;
using sim::MacSchedule;
using tensor::Shape4;
using tensor::Tensor;

/**
 * The order of `m` per output class (cy-major, as the fold visits
 * them), with every kernel position dropped whose products are
 * structural zeros for the class: a zero kernel row or column, or on a
 * stuffed stride-1 job an input row or column off the stuffing grid.
 * Empty groups go; four-dimension outputs fold one channel each, so
 * their groups merge into one.
 */
std::vector<MacGroups>
liveOrder(const MacSchedule &m, const ConvSpec &s, int z)
{
    std::vector<MacGroups> order;
    for (int cy = 0; cy < std::min(z, s.oh); ++cy) {
        for (int cx = 0; cx < std::min(z, s.ow); ++cx) {
            MacGroups live;
            for (const auto &group : sim::macGroups(m, s, cy, cx)) {
                std::vector<KernelPos> kept;
                for (const KernelPos &p : group)
                    if (sim::classKernelLive(s, true, z, cy, p.ky) &&
                        sim::classKernelLive(s, false, z, cx, p.kx))
                        kept.push_back(p);
                if (kept.empty())
                    continue;
                if (s.fourDimOutput && !live.empty())
                    live.back().insert(live.back().end(), kept.begin(),
                                       kept.end());
                else
                    live.push_back(std::move(kept));
            }
            order.push_back(std::move(live));
        }
    }
    return order;
}

/** True when `in` and `w` are zero wherever the spec's structure says
 *  so (stuffed inputs, dilated-kernel holes). */
bool
honoursZeroStructure(const ConvSpec &spec, const Tensor &in,
                     const Tensor &w)
{
    for (int c = 0; c < spec.nif; ++c)
        for (int iy = 0; iy < spec.ih; ++iy)
            for (int ix = 0; ix < spec.iw; ++ix)
                if (spec.inputIsZero(iy, ix) && in.get(0, c, iy, ix) != 0.0f)
                    return false;
    const Shape4 ws = w.shape();
    for (int of = 0; of < ws.d0; ++of)
        for (int c = 0; c < ws.d1; ++c)
            for (int ky = 0; ky < spec.kh; ++ky)
                for (int kx = 0; kx < spec.kw; ++kx)
                    if (spec.kernelIsZero(ky, kx) &&
                        w.get(of, c, ky, kx) != 0.0f)
                        return false;
    return true;
}

} // namespace

JobSites::JobSites(const FaultPlan &plan, const ConvSpec &spec,
                   const Tensor &in, const Tensor &w,
                   std::uint64_t job_key,
                   std::vector<MacSchedule> schedules)
    : injector_(plan), spec_(spec), in_(&in), w_(&w),
      schedules_(std::move(schedules)),
      z_(spec.stride == 1 ? spec.inZeroStride : 1)
{
    spec.validate();
    GANACC_ASSERT(plan.peFaults.empty(),
                  "stuck-at PE lanes need the hooked walk");
    GANACC_ASSERT(in.shape() == Shape4(1, spec.nif, spec.ih, spec.iw) &&
                      w.shape() == Shape4(spec.nof,
                                          spec.fourDimOutput ? 1 : spec.nif,
                                          spec.kh, spec.kw),
                  "operand shapes do not match ", spec.describe());
    injector_.beginJob(spec, job_key);

    for (const MacSchedule &m : schedules_) {
        std::vector<MacGroups> order = liveOrder(m, spec_, z_);
        const auto it = std::find(orders_.begin(), orders_.end(), order);
        orderOf_.push_back(std::size_t(it - orders_.begin()));
        if (it == orders_.end()) {
            orders_.push_back(std::move(order));
            faultFree_.push_back(sim::makeOutputTensor(spec_));
        }
    }
}

void
JobSites::fold(std::size_t order_index)
{
    const ConvSpec &s = spec_;
    GANACC_ASSERT(honoursZeroStructure(s, *in_, *w_),
                  "operands break the zero structure of ", s.describe());
    const std::vector<MacGroups> &order = orders_[order_index];
    const int ncx = std::min(z_, s.ow);
    // Per class and kernel row (column): the class outputs whose input
    // row (column) is in bounds, as class-local indices.
    std::vector<IndexRange> rows, cols;
    for (int cy = 0; cy < std::min(z_, s.oh); ++cy)
        for (int ky = 0; ky < s.kh; ++ky)
            rows.push_back(sim::inBoundsRange(
                int(sim::ceilDiv(std::uint64_t(s.oh - cy),
                                 std::uint64_t(z_))),
                z_ * s.stride, cy * s.stride + ky - s.pad, s.ih));
    for (int cx = 0; cx < ncx; ++cx)
        for (int kx = 0; kx < s.kw; ++kx)
            cols.push_back(sim::inBoundsRange(
                int(sim::ceilDiv(std::uint64_t(s.ow - cx),
                                 std::uint64_t(z_))),
                z_ * s.stride, cx * s.stride + kx - s.pad, s.iw));

    // out += in * wv over the class outputs (cy, cx) whose input at
    // kernel position `pos` is in bounds.
    auto accumulate = [&](float *out, const float *in, float wv, int cy,
                          int cx, KernelPos pos) {
        const IndexRange ry = rows[std::size_t(cy * s.kh + pos.ky)];
        const IndexRange rx = cols[std::size_t(cx * s.kw + pos.kx)];
        for (int t = ry.lo; t < ry.hi; ++t) {
            const int oy = cy + t * z_;
            float *orow = out + std::size_t(oy) * std::size_t(s.ow);
            const float *irow =
                in + std::size_t(oy * s.stride + pos.ky - s.pad) *
                         std::size_t(s.iw);
            for (int u = rx.lo; u < rx.hi; ++u) {
                const int ox = cx + u * z_;
                orow[ox] += irow[ox * s.stride + pos.kx - s.pad] * wv;
            }
        }
    };

    const Shape4 ws = w_->shape();
    const std::size_t plane = std::size_t(s.oh) * std::size_t(s.ow);
    const std::size_t in_plane = std::size_t(s.ih) * std::size_t(s.iw);
    const int planes = s.fourDimOutput ? s.nof * s.nif : s.nof;
    for (int p = 0; p < planes; ++p) {
        const int of = s.fourDimOutput ? p / s.nif : p;
        const int c_lo = s.fourDimOutput ? p % s.nif : 0;
        const int c_hi = s.fourDimOutput ? c_lo + 1 : s.nif;
        float *out = faultFree_[order_index].data() + std::size_t(p) * plane;
        for (std::size_t cls = 0; cls < order.size(); ++cls) {
            const int cy = int(cls) / ncx, cx = int(cls) % ncx;
            for (const auto &group : order[cls]) {
                for (int c = c_lo; c < c_hi; ++c) {
                    const float *in =
                        in_->data() + std::size_t(c) * in_plane;
                    const float *w = w_->data() +
                                     ws.offset(of, s.fourDimOutput ? 0 : c,
                                               0, 0);
                    for (const KernelPos &pos : group) {
                        const float wv = w[pos.ky * s.kw + pos.kx];
                        // A zero product leaves the sum unchanged.
                        if (wv != 0.0f)
                            accumulate(out, in, wv, cy, cx, pos);
                    }
                }
            }
        }
    }
}

std::size_t
JobSites::outputIndex(const MacContext &p) const
{
    const std::size_t plane =
        spec_.fourDimOutput
            ? std::size_t(p.of) * std::size_t(spec_.nif) + std::size_t(p.c)
            : std::size_t(p.of);
    return (plane * std::size_t(spec_.oh) + std::size_t(p.oy)) *
               std::size_t(spec_.ow) +
           std::size_t(p.ox);
}

float
JobSites::refold(const MacSchedule &m, const MacContext &p,
                 const std::vector<std::uint64_t> &fired) const
{
    const ConvSpec &s = spec_;
    // Kernel positions holding one of this output's fired sites.
    std::vector<char> hit(std::size_t(s.kh) * std::size_t(s.kw), 0);
    for (const std::uint64_t site : fired) {
        const MacContext f = latticePoint(s, site);
        hit[std::size_t(f.ky * s.kw + f.kx)] = 1;
    }
    const int c_lo = s.fourDimOutput ? p.c : 0;
    const int c_hi = s.fourDimOutput ? p.c + 1 : s.nif;
    const std::size_t in_plane = std::size_t(s.ih) * std::size_t(s.iw);

    /** One issued position of a group: its input offset in a channel
     *  plane (-1 for padding) and its kernel offset in a kernel plane. */
    struct Tap
    {
        KernelPos k;
        long input;
        std::size_t kernel;
    };
    std::vector<Tap> taps;
    float acc = 0.0f;
    for (const auto &group : sim::macGroups(m, s, p.oy, p.ox)) {
        taps.clear();
        for (const KernelPos &k : group) {
            if (!sim::issuesMac(m, s, p.oy, p.ox, k.ky, k.kx))
                continue;
            const int iy = p.oy * s.stride + k.ky - s.pad;
            const int ix = p.ox * s.stride + k.kx - s.pad;
            const bool in_bounds =
                iy >= 0 && iy < s.ih && ix >= 0 && ix < s.iw;
            taps.push_back({k, in_bounds ? long(iy) * s.iw + ix : -1,
                            std::size_t(k.ky * s.kw + k.kx)});
        }
        for (int c = c_lo; c < c_hi; ++c) {
            const float *ip = in_->data() + std::size_t(c) * in_plane;
            const float *wp = w_->data() +
                              w_->shape().offset(p.of,
                                                 s.fourDimOutput ? 0 : c,
                                                 0, 0);
            for (const Tap &t : taps) {
                float product =
                    (t.input < 0 ? 0.0f : ip[t.input]) * wp[t.kernel];
                if (hit[t.kernel]) {
                    const std::uint64_t site = latticeIndex(
                        s, MacContext{0, p.of, c, p.oy, p.ox, t.k.ky,
                                      t.k.kx});
                    if (std::binary_search(fired.begin(), fired.end(),
                                           site))
                        product = injector_.flipProductBits(product, site);
                }
                acc += product;
            }
        }
    }
    return acc;
}

std::uint64_t
JobSites::nonzeroInputVisits(const MacSchedule &m) const
{
    const ConvSpec &s = spec_;
    std::uint64_t n = 0;
    for (int oy = 0; oy < s.oh; ++oy)
        for (int ox = 0; ox < s.ow; ++ox)
            for (int ky = 0; ky < s.kh; ++ky)
                for (int kx = 0; kx < s.kw; ++kx) {
                    const int iy = oy * s.stride + ky - s.pad;
                    const int ix = ox * s.stride + kx - s.pad;
                    if (iy < 0 || iy >= s.ih || ix < 0 || ix >= s.iw ||
                        !sim::issuesMac(m, s, oy, ox, ky, kx))
                        continue;
                    for (int c = 0; c < s.nif; ++c)
                        n += in_->get(0, c, iy, ix) != 0.0f;
                }
    return n * std::uint64_t(s.nof);
}

JobSites::Outcome
JobSites::outcome(std::size_t i, const sim::RunStats &stats) const
{
    const MacSchedule &m = schedules_[i];
    Outcome o;
    o.faultFree = &faultFree_[orderOf_[i]];
    o.mac.armed = injector_.counters().armed;
    // An empty plan installs no hook: nothing is observed.
    if (injector_.plan().empty())
        return o;
    o.mac.macsObserved =
        injector_.visitIneffectual()
            ? stats.effectiveMacs + stats.ineffectualMacs
        : m.visitsNonzeroInputs ? nonzeroInputVisits(m)
                                : stats.effectiveMacs;

    // (a) An upset fires when predicate (d) issues its lattice point.
    std::vector<std::pair<std::size_t, std::uint64_t>> hits;
    for (const std::uint64_t site : injector_.armedSites()) {
        const MacContext p = latticePoint(spec_, site);
        if (sim::issuesMac(m, spec_, p.oy, p.ox, p.ky, p.kx))
            hits.emplace_back(outputIndex(p), site);
    }
    o.mac.fired = hits.size();

    // (c) Refold every output a fired site lands on.
    std::sort(hits.begin(), hits.end());
    std::vector<std::uint64_t> fired;
    for (std::size_t a = 0; a < hits.size();) {
        std::size_t b = a;
        fired.clear();
        while (b < hits.size() && hits[b].first == hits[a].first)
            fired.push_back(hits[b++].second);
        o.fixups.emplace_back(
            hits[a].first,
            refold(m, latticePoint(spec_, fired.front()), fired));
        a = b;
    }
    return o;
}

Tensor
JobSites::Outcome::output() const
{
    Tensor out = *faultFree;
    for (const auto &[index, value] : fixups)
        out.data()[index] = value;
    return out;
}

} // namespace fault
} // namespace ganacc
