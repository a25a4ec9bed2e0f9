/**
 * @file
 * ZFOST — Zero-Free Output-STationary microarchitecture (Fig. 11),
 * the paper's design for ST-ARCH (phases D→, G→, D←, G←).
 *
 * Like OST, a P_oy x P_ox output tile is pinned to the PEs and P_of
 * channels share a broadcast input register array. The two additions:
 *
 *  1. *Reordered weight feed* (Fig. 12(a)): kernel weights enter
 *     grouped by coordinate parity class (K(even,even) first, then
 *     K(even,odd), ...), which restores the register-array shifting
 *     reuse that raster order destroys on strided convolutions.
 *
 *  2. *Zero-free scheduling* (Fig. 12(b)): for zero-inserted inputs,
 *     outputs are processed per parity class, and each class only
 *     streams the kernel positions whose input operands are
 *     structurally non-zero; for zero-inserted kernels (W-CONV of the
 *     discriminator) the zero weight positions are never streamed.
 *     Skipping happens entirely in address generation.
 */

#ifndef GANACC_CORE_ZFOST_HH
#define GANACC_CORE_ZFOST_HH

#include "sim/arch.hh"

namespace ganacc {
namespace core {

/** The paper's zero-free output-stationary array. */
class Zfost : public sim::Architecture
{
  public:
    /** Weight feed order — the Fig. 12(a) design choice. */
    enum class WeightOrder
    {
        Reordered, ///< parity-grouped feed; register array shifts
        Raster,    ///< plain raster feed (ablation): zero skipping
                   ///< still works, but strided convolutions lose the
                   ///< register-array reuse and reload the input tile
                   ///< every cycle, like OST
    };

    explicit Zfost(sim::Unroll unroll,
                   WeightOrder order = WeightOrder::Reordered)
        : sim::Architecture(order == WeightOrder::Reordered
                                ? "ZFOST"
                                : "ZFOST-raster",
                            unroll),
          order_(order) {}

    int
    numPes() const override
    {
        return unroll_.pOx * unroll_.pOy * unroll_.pOf;
    }

    /** The weight feed order changes input loads only: both feeds
     *  issue and fold the same MACs. */
    std::optional<sim::MacSchedule> macSchedule() const override;

  protected:
    sim::RunStats doRun(const sim::ConvSpec &spec,
                        const tensor::Tensor *in, const tensor::Tensor *w,
                        tensor::Tensor *out) const override;

    bool fastStats(const sim::ConvSpec &spec,
                   sim::RunStats &st) const override;

  private:
    WeightOrder order_;
};

} // namespace core
} // namespace ganacc

#endif // GANACC_CORE_ZFOST_HH
