/**
 * @file
 * ZFOST cycle-level model.
 */

#include "core/zfost.hh"

#include <algorithm>
#include <vector>

#include "sim/closed_form.hh"
#include "util/logging.hh"

namespace ganacc {
namespace core {

using sim::ConvSpec;
using sim::countNonzeroCoords;
using sim::RunStats;
using tensor::Tensor;

RunStats
Zfost::doRun(const ConvSpec &spec, const Tensor *in, const Tensor *w,
             Tensor *out) const
{
    const bool functional = in != nullptr;
    const int n_pes = numPes();
    sim::ScheduleRecorder *const rec = schedRec();
    RunStats st;

    // Zero-inserted inputs only occur under stride-1 streaming (the
    // stuffing already encodes the up-sampling geometry).
    const int z = spec.inZeroStride;
    GANACC_ASSERT(z == 1 || spec.stride == 1,
                  "stuffed input with strided streaming is not a GAN "
                  "pattern: ", spec.describe());

    for (int cy = 0; cy < z && cy < spec.oh; ++cy) {
        for (int cx = 0; cx < z && cx < spec.ow; ++cx) {
            // Output positions of this parity class.
            const int n_y = (spec.oh - cy + z - 1) / z;
            const int n_x = (spec.ow - cx + z - 1) / z;
            // Kernel positions whose operand pattern is non-zero for
            // this class: parity-compatible rows/cols that are not
            // themselves structural kernel zeros.
            std::vector<int> eff_ky, eff_kx;
            for (int ky = 0; ky < spec.kh; ++ky) {
                if (spec.kernelRowZero(ky))
                    continue;
                if (z > 1 && (cy + ky - spec.pad) % z != 0)
                    continue;
                eff_ky.push_back(ky);
            }
            for (int kx = 0; kx < spec.kw; ++kx) {
                if (spec.kernelColZero(kx))
                    continue;
                if (z > 1 && (cx + kx - spec.pad) % z != 0)
                    continue;
                eff_kx.push_back(kx);
            }
            if (eff_ky.empty() || eff_kx.empty())
                continue;

            for (int of0 = 0; of0 < spec.nof; of0 += unroll_.pOf) {
                const int of_cnt = std::min(unroll_.pOf, spec.nof - of0);
                for (int t_y0 = 0; t_y0 < n_y; t_y0 += unroll_.pOy) {
                    const int ty_cnt = std::min(unroll_.pOy, n_y - t_y0);
                    for (int t_x0 = 0; t_x0 < n_x; t_x0 += unroll_.pOx) {
                        const int tx_cnt =
                            std::min(unroll_.pOx, n_x - t_x0);
                        const int tile = ty_cnt * tx_cnt;
                        // Output-stationary register window: cleared
                        // at tile start, drained per input map (4-dim)
                        // or once per nif loop.
                        if (rec && !spec.fourDimOutput)
                            rec->onWindowBegin(
                                std::uint64_t(tile) * of_cnt,
                                sim::WindowKind::RegisterTile);
                        for (int c = 0; c < spec.nif; ++c) {
                            if (rec && spec.fourDimOutput)
                                rec->onWindowBegin(
                                    std::uint64_t(tile) * of_cnt,
                                    sim::WindowKind::RegisterTile);
                            bool first_kpos = true;
                            for (int ky : eff_ky) {
                                bool row_start = true;
                                for (int kx : eff_kx) {
                                    // ---- one cycle ----
                                    st.cycles += 1;
                                    st.weightLoads +=
                                        std::uint64_t(of_cnt);
                                    // Register-array reuse: full tile
                                    // load once per (tile, c); later
                                    // weights shift in one new column
                                    // (or row at a ky step). Under the
                                    // raster ablation a strided job
                                    // loses the shift alignment and
                                    // reloads the whole tile (the OST
                                    // behaviour of Fig. 7(b)).
                                    const bool shifts =
                                        order_ ==
                                            WeightOrder::Reordered ||
                                        spec.stride == 1;
                                    std::uint64_t in_words;
                                    if (first_kpos) {
                                        in_words = std::uint64_t(tile);
                                        first_kpos = false;
                                    } else if (!shifts) {
                                        in_words = std::uint64_t(tile);
                                    } else if (row_start) {
                                        in_words = std::uint64_t(tx_cnt);
                                    } else {
                                        in_words = std::uint64_t(ty_cnt);
                                    }
                                    st.inputLoads += in_words;
                                    row_start = false;
                                    if (rec) {
                                        rec->onCycle();
                                        rec->onPort(
                                            sim::SchedPort::Weight,
                                            std::uint64_t(of_cnt));
                                        rec->onPort(
                                            sim::SchedPort::Input,
                                            in_words);
                                        for (int dy = 0; dy < ty_cnt;
                                             ++dy)
                                            for (int dx = 0; dx < tx_cnt;
                                                 ++dx)
                                                rec->onLanes(
                                                    (dy * unroll_.pOx +
                                                     dx) *
                                                        unroll_.pOf,
                                                    of_cnt);
                                        rec->onCellWrite(
                                            0,
                                            std::uint64_t(tile) * of_cnt);
                                    }

                                    // Occupancy: parity guarantees the
                                    // stuffing pattern is non-zero;
                                    // only padding and trailing
                                    // (output-pad) rows can still be
                                    // ineffectual.
                                    int rows = countNonzeroCoords(
                                        t_y0, ty_cnt, z * spec.stride,
                                        cy * spec.stride + ky - spec.pad,
                                        0, spec.ih, spec.inZeroStride,
                                        spec.inOrigH);
                                    int cols = countNonzeroCoords(
                                        t_x0, tx_cnt, z * spec.stride,
                                        cx * spec.stride + kx - spec.pad,
                                        0, spec.iw, spec.inZeroStride,
                                        spec.inOrigW);
                                    const int eff_pos = rows * cols;
                                    st.effectiveMacs +=
                                        std::uint64_t(eff_pos) * of_cnt;
                                    st.ineffectualMacs +=
                                        std::uint64_t(tile - eff_pos) *
                                        of_cnt;
                                    st.idlePeSlots +=
                                        std::uint64_t(n_pes) -
                                        std::uint64_t(tile) * of_cnt;

                                    if (functional) {
                                        // Scheduled-but-zero slots
                                        // (padding / trailing rows) are
                                        // visited for the fault hook.
                                        const bool want_ineff =
                                            faultVisitsIneffectual();
                                        for (int dy = 0; dy < ty_cnt;
                                             ++dy)
                                            for (int dx = 0; dx < tx_cnt;
                                                 ++dx) {
                                                int oy =
                                                    cy +
                                                    (t_y0 + dy) * z;
                                                int ox =
                                                    cx +
                                                    (t_x0 + dx) * z;
                                                int iy = oy *
                                                             spec.stride +
                                                         ky - spec.pad;
                                                int ix = ox *
                                                             spec.stride +
                                                         kx - spec.pad;
                                                float v = in->getPadded(
                                                    0, c, iy, ix);
                                                if (v == 0.0f &&
                                                    !want_ineff)
                                                    continue;
                                                for (int f = 0;
                                                     f < of_cnt; ++f) {
                                                    int of = of0 + f;
                                                    int wc =
                                                        spec.fourDimOutput
                                                            ? 0
                                                            : c;
                                                    float ww = w->get(
                                                        of, wc, ky, kx);
                                                    const sim::MacContext
                                                        ctx{(dy * unroll_
                                                                      .pOx +
                                                             dx) *
                                                                    unroll_
                                                                        .pOf +
                                                                f,
                                                            of, c, oy,
                                                            ox, ky, kx};
                                                    float p = macProduct(
                                                        v, ww, ctx);
                                                    if (spec.fourDimOutput)
                                                        out->ref(of, c,
                                                                 oy,
                                                                 ox) +=
                                                            p;
                                                    else
                                                        out->ref(0, of,
                                                                 oy,
                                                                 ox) +=
                                                            p;
                                                }
                                            }
                                    }
                                }
                            }
                            if (spec.fourDimOutput) {
                                st.outputWrites +=
                                    std::uint64_t(tile) * of_cnt;
                                if (rec) {
                                    rec->onPort(
                                        sim::SchedPort::OutputWrite,
                                        std::uint64_t(tile) * of_cnt);
                                    rec->onDrain(0, std::uint64_t(tile) *
                                                        of_cnt);
                                    rec->onWindowEnd();
                                }
                            }
                        }
                        if (!spec.fourDimOutput) {
                            st.outputWrites +=
                                std::uint64_t(tile) * of_cnt;
                            if (rec) {
                                rec->onPort(sim::SchedPort::OutputWrite,
                                            std::uint64_t(tile) * of_cnt);
                                rec->onDrain(0, std::uint64_t(tile) *
                                                    of_cnt);
                                rec->onWindowEnd();
                            }
                        }
                    }
                }
            }
        }
    }
    return st;
}

std::optional<sim::MacSchedule>
Zfost::macSchedule() const
{
    sim::MacSchedule m;
    m.issue = sim::MacSchedule::Issue::ClassKernel;
    m.order = sim::MacSchedule::Order::OneGroup;
    m.visitsNonzeroInputs = true;
    return m;
}

bool
Zfost::fastStats(const ConvSpec &spec, RunStats &st) const
{
    st = sim::zfostClosedForm(
        unroll_, spec, sim::classSegments(spec, sim::ClassSplit::ZeroFree),
        order_ == WeightOrder::Reordered);
    return true;
}

} // namespace core
} // namespace ganacc
