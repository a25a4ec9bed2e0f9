/**
 * @file
 * OST — the traditional Output-STationary architecture (Fig. 5(c),
 * ShiDianNao-style).
 *
 * A P_oy x P_ox tile of output neurons is pinned to the PE array and
 * P_of output feature maps run in parallel channels. Each cycle one
 * kernel weight per channel is broadcast and every PE accumulates into
 * its private output register.
 *
 * Weaknesses on GAN (Section III-C3): kernel weights are streamed in
 * plain raster order, so on S-CONV (stride 2) adjacent cycles need
 * disjoint inputs — the register-array temporal sharing collapses and
 * the whole tile reloads each cycle; and the inserted zeros of T-CONV
 * inputs cannot be skipped, so ~3/4 of the MACs are ineffectual.
 */

#ifndef GANACC_SIM_OST_HH
#define GANACC_SIM_OST_HH

#include "sim/arch.hh"

namespace ganacc {
namespace sim {

/** Traditional output-stationary array. */
class Ost : public Architecture
{
  public:
    explicit Ost(Unroll unroll) : Architecture("OST", unroll) {}

    int
    numPes() const override
    {
        return unroll_.pOx * unroll_.pOy * unroll_.pOf;
    }

    std::optional<MacSchedule> macSchedule() const override;

  protected:
    RunStats doRun(const ConvSpec &spec, const tensor::Tensor *in,
                   const tensor::Tensor *w,
                   tensor::Tensor *out) const override;

    bool fastStats(const ConvSpec &spec, RunStats &st) const override;
};

} // namespace sim
} // namespace ganacc

#endif // GANACC_SIM_OST_HH
