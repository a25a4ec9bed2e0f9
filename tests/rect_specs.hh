/**
 * @file
 * Rectangular fuzz draws for the parity suites.
 *
 * The square draws of the differential and schedule-shadow fuzzers
 * (ih = iw, kh = kw, one dense extent) cannot tell a per-axis formula
 * from its row/column transpose. These draws pick every row and column
 * extent independently — input, kernel, dense stuffing extent, dilated
 * kernel extent — over the three GAN convolution patterns plus the
 * head-layer shapes whose resident-weight passes are a single cycle.
 */

#ifndef GANACC_TESTS_RECT_SPECS_HH
#define GANACC_TESTS_RECT_SPECS_HH

#include <algorithm>

#include "sim/conv_spec.hh"
#include "tensor/shape.hh"
#include "util/random.hh"

namespace ganacc {
namespace tests {

/** One legal job with independent row and column extents. */
inline sim::ConvSpec
randomRectSpec(util::Rng &rng)
{
    sim::ConvSpec s;
    s.label = "fuzz-rect";
    s.nif = rng.uniformInt(1, 4);
    s.nof = rng.uniformInt(1, 4);
    const int kind = rng.uniformInt(0, 4);
    if (kind == 0) { // dense strided S-CONV
        s.ih = rng.uniformInt(5, 16);
        s.iw = rng.uniformInt(5, 16);
        s.kh = rng.uniformInt(1, 5);
        s.kw = rng.uniformInt(1, 5);
        s.stride = rng.uniformInt(1, 3);
        s.pad = rng.uniformInt(0, std::min(s.kh, s.kw) / 2);
    } else if (kind == 1) { // zero-stuffed T-CONV
        const int z = rng.uniformInt(2, 4);
        s.inZeroStride = z;
        s.inOrigH = rng.uniformInt(2, 6);
        s.inOrigW = rng.uniformInt(2, 6);
        s.ih = (s.inOrigH - 1) * z + 1 + rng.uniformInt(0, z - 1);
        s.iw = (s.inOrigW - 1) * z + 1 + rng.uniformInt(0, z - 1);
        s.kh = rng.uniformInt(2, 7);
        s.kw = rng.uniformInt(2, 7);
        s.pad = rng.uniformInt(0, std::min(s.kh, s.kw) - 1);
    } else if (kind == 2) { // dilated-kernel W-CONV (4-D output)
        s.ih = rng.uniformInt(7, 16);
        s.iw = rng.uniformInt(7, 16);
        s.kZeroStride = 2;
        s.kOrigH = rng.uniformInt(2, 5);
        s.kOrigW = rng.uniformInt(2, 5);
        s.kh = (s.kOrigH - 1) * 2 + 1;
        s.kw = (s.kOrigW - 1) * 2 + 1;
        s.pad = rng.uniformInt(0, 2);
        s.fourDimOutput = true;
    } else if (kind == 3) { // head-layer T-CONV: 1x1 input map
        s.nif = 1;
        s.ih = s.iw = 1;
        s.pad = rng.uniformInt(1, 6);
        s.kh = rng.uniformInt(s.pad + 1, 2 * s.pad + 1);
        s.kw = rng.uniformInt(s.pad + 1, 2 * s.pad + 1);
    } else { // head-layer weight gradient: 1x1 output map
        s.nif = 1;
        s.kh = s.ih = rng.uniformInt(2, 7);
        s.kw = s.iw = rng.uniformInt(2, 7);
    }
    if (s.ih + 2 * s.pad < s.kh || s.iw + 2 * s.pad < s.kw)
        return randomRectSpec(rng); // kernel overhangs padded input
    s.oh = tensor::convOutDim(s.ih, s.kh, s.stride, s.pad);
    s.ow = tensor::convOutDim(s.iw, s.kw, s.stride, s.pad);
    if (s.fourDimOutput) { // W-CONV crops to the error-map extent
        s.oh = std::min(s.oh, rng.uniformInt(2, 6));
        s.ow = std::min(s.ow, rng.uniformInt(2, 6));
    }
    return s;
}

} // namespace tests
} // namespace ganacc

#endif // GANACC_TESTS_RECT_SPECS_HH
