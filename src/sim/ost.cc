/**
 * @file
 * OST cycle-level model.
 */

#include "sim/ost.hh"

#include <algorithm>

#include "sim/closed_form.hh"
#include "util/logging.hh"

namespace ganacc {
namespace sim {

using tensor::Tensor;

RunStats
Ost::doRun(const ConvSpec &spec, const Tensor *in, const Tensor *w,
           Tensor *out) const
{
    const bool functional = in != nullptr;
    const int n_pes = numPes();
    ScheduleRecorder *const rec = schedRec();
    RunStats st;

    for (int of0 = 0; of0 < spec.nof; of0 += unroll_.pOf) {
        const int of_cnt = std::min(unroll_.pOf, spec.nof - of0);
        for (int ty = 0; ty < spec.oh; ty += unroll_.pOy) {
            const int ty_cnt = std::min(unroll_.pOy, spec.oh - ty);
            for (int tx = 0; tx < spec.ow; tx += unroll_.pOx) {
                const int tx_cnt = std::min(unroll_.pOx, spec.ow - tx);
                const int tile = ty_cnt * tx_cnt;
                // The accumulation window of the output-stationary
                // register array: cleared at tile start, drained once
                // the tile's contributions are complete — per input
                // map for four-dimension outputs, per whole nif loop
                // otherwise.
                if (rec && !spec.fourDimOutput)
                    rec->onWindowBegin(std::uint64_t(tile) * of_cnt,
                                       WindowKind::RegisterTile);
                for (int c = 0; c < spec.nif; ++c) {
                    if (rec && spec.fourDimOutput)
                        rec->onWindowBegin(std::uint64_t(tile) * of_cnt,
                                           WindowKind::RegisterTile);
                    bool first_kpos = true;
                    for (int ky = 0; ky < spec.kh; ++ky) {
                        for (int kx = 0; kx < spec.kw; ++kx) {
                            // ---- one cycle ----
                            st.cycles += 1;
                            st.weightLoads += std::uint64_t(of_cnt);
                            // Raster-order weights: with stride 1 the
                            // register array shifts (one new column or
                            // row); with stride > 1 adjacent cycles
                            // share nothing and the tile reloads.
                            std::uint64_t in_words;
                            if (first_kpos) {
                                in_words = std::uint64_t(tile);
                                first_kpos = false;
                            } else if (spec.stride == 1) {
                                in_words = std::uint64_t(
                                    kx == 0 ? tx_cnt : ty_cnt);
                            } else {
                                in_words = std::uint64_t(tile);
                            }
                            st.inputLoads += in_words;
                            if (rec) {
                                rec->onCycle();
                                rec->onPort(SchedPort::Weight,
                                            std::uint64_t(of_cnt));
                                rec->onPort(SchedPort::Input, in_words);
                                for (int dy = 0; dy < ty_cnt; ++dy)
                                    for (int dx = 0; dx < tx_cnt; ++dx)
                                        rec->onLanes(
                                            (dy * unroll_.pOx + dx) *
                                                unroll_.pOf,
                                            of_cnt);
                                rec->onCellWrite(
                                    0, std::uint64_t(tile) * of_cnt);
                            }

                            int eff_pos = 0;
                            if (!spec.kernelIsZero(ky, kx)) {
                                int rows = countNonzeroCoords(
                                    ty, ty_cnt, spec.stride, ky,
                                    spec.pad, spec.ih, spec.inZeroStride,
                                    spec.inOrigH);
                                int cols = countNonzeroCoords(
                                    tx, tx_cnt, spec.stride, kx,
                                    spec.pad, spec.iw, spec.inZeroStride,
                                    spec.inOrigW);
                                eff_pos = rows * cols;
                            }
                            st.effectiveMacs +=
                                std::uint64_t(eff_pos) * of_cnt;
                            st.ineffectualMacs +=
                                std::uint64_t(tile - eff_pos) * of_cnt;
                            st.idlePeSlots += std::uint64_t(n_pes) -
                                              std::uint64_t(tile) * of_cnt;

                            if (functional) {
                                // Zero-valued inputs contribute nothing
                                // but are still scheduled on the tile's
                                // multipliers, so the fault hook may ask
                                // to see them.
                                const bool want_ineff =
                                    faultVisitsIneffectual();
                                for (int dy = 0; dy < ty_cnt; ++dy)
                                    for (int dx = 0; dx < tx_cnt; ++dx) {
                                        int oy = ty + dy, ox = tx + dx;
                                        int iy = oy * spec.stride + ky -
                                                 spec.pad;
                                        int ix = ox * spec.stride + kx -
                                                 spec.pad;
                                        float v =
                                            in->getPadded(0, c, iy, ix);
                                        if (v == 0.0f && !want_ineff)
                                            continue;
                                        for (int f = 0; f < of_cnt; ++f) {
                                            int of = of0 + f;
                                            int wc = spec.fourDimOutput
                                                         ? 0
                                                         : c;
                                            float ww =
                                                w->get(of, wc, ky, kx);
                                            const MacContext ctx{
                                                (dy * unroll_.pOx + dx) *
                                                        unroll_.pOf +
                                                    f,
                                                of, c, oy, ox, ky, kx};
                                            float p =
                                                macProduct(v, ww, ctx);
                                            if (spec.fourDimOutput)
                                                out->ref(of, c, oy, ox) +=
                                                    p;
                                            else
                                                out->ref(0, of, oy, ox) +=
                                                    p;
                                        }
                                    }
                            }
                        }
                    }
                    // Four-dimension outputs leave the array per input
                    // feature map (a fresh (of, if) plane each time).
                    if (spec.fourDimOutput) {
                        st.outputWrites += std::uint64_t(tile) * of_cnt;
                        if (rec) {
                            rec->onPort(SchedPort::OutputWrite,
                                        std::uint64_t(tile) * of_cnt);
                            rec->onDrain(0, std::uint64_t(tile) * of_cnt);
                            rec->onWindowEnd();
                        }
                    }
                }
                // Accumulating convs keep partial sums in the PE
                // registers across the whole nif loop and write once.
                if (!spec.fourDimOutput) {
                    st.outputWrites += std::uint64_t(tile) * of_cnt;
                    if (rec) {
                        rec->onPort(SchedPort::OutputWrite,
                                    std::uint64_t(tile) * of_cnt);
                        rec->onDrain(0, std::uint64_t(tile) * of_cnt);
                        rec->onWindowEnd();
                    }
                }
            }
        }
    }
    return st;
}

std::optional<MacSchedule>
Ost::macSchedule() const
{
    MacSchedule m;
    m.issue = MacSchedule::Issue::All;
    m.order = MacSchedule::Order::OneGroup;
    m.visitsNonzeroInputs = true;
    return m;
}

bool
Ost::fastStats(const ConvSpec &spec, RunStats &st) const
{
    st = zfostClosedForm(unroll_, spec,
                         classSegments(spec, ClassSplit::Dense),
                         /*reordered_feed=*/false);
    return true;
}

} // namespace sim
} // namespace ganacc
