/**
 * @file
 * Golden-model convolution tests: the algebraic identities the
 * accelerator design rests on.
 *
 *  - T-CONV computed via zero-insertion equals the direct gather form
 *    (this equivalence is why the hardware can treat transposed
 *    convolution as a convolution over a zero-stuffed map).
 *  - S-CONV and T-CONV are exact adjoints (<Conv x, y> = <x, ConvT y>),
 *    which is what makes the backward-error pass of one network the
 *    same convolution family as the forward pass of the other.
 *  - W-CONV computed as "dilated error slides over the input"
 *    (Fig. 6(c)) equals the direct weight-gradient sum.
 *  - sim::genericConvRef, the reference every dataflow walk is held
 *    to, equals its direct nested-loop definition bit for bit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <tuple>

#include "nn/conv_ref.hh"
#include "nn/zero_insert.hh"
#include "rect_specs.hh"
#include "sim/conv_spec.hh"
#include "tensor/tensor.hh"
#include "util/random.hh"

namespace {

using namespace ganacc;
using nn::Conv2dGeom;
using tensor::approxEqual;
using tensor::maxAbsDiff;
using tensor::Shape4;
using tensor::Tensor;
using util::Rng;

/** Inner product of two same-shape tensors. */
double
dot(const Tensor &a, const Tensor &b)
{
    double s = 0.0;
    for (std::size_t i = 0; i < a.numel(); ++i)
        s += double(a.data()[i]) * b.data()[i];
    return s;
}

// ---------------------------------------------------------------------
// Zero-insertion helpers
// ---------------------------------------------------------------------

TEST(ZeroInsert, Stride2InsertsBetweenElements)
{
    Tensor in(1, 1, 2, 2);
    in.at(0, 0, 0, 0) = 1;
    in.at(0, 0, 0, 1) = 2;
    in.at(0, 0, 1, 0) = 3;
    in.at(0, 0, 1, 1) = 4;
    Tensor out = nn::zeroInsertSpatial(in, 2);
    EXPECT_EQ(out.shape(), Shape4(1, 1, 3, 3));
    EXPECT_FLOAT_EQ(out.get(0, 0, 0, 0), 1);
    EXPECT_FLOAT_EQ(out.get(0, 0, 0, 2), 2);
    EXPECT_FLOAT_EQ(out.get(0, 0, 2, 0), 3);
    EXPECT_FLOAT_EQ(out.get(0, 0, 2, 2), 4);
    EXPECT_FLOAT_EQ(out.get(0, 0, 1, 1), 0);
    EXPECT_EQ(out.countZeros(), 5u);
}

TEST(ZeroInsert, ExtraTrailingZeros)
{
    Tensor in(1, 1, 2, 2, 1.0f);
    Tensor out = nn::zeroInsertSpatial(in, 2, 1);
    EXPECT_EQ(out.shape(), Shape4(1, 1, 4, 4));
    for (int x = 0; x < 4; ++x)
        EXPECT_FLOAT_EQ(out.get(0, 0, 3, x), 0.0f);
}

TEST(ZeroInsert, Stride1IsIdentity)
{
    Rng rng(3);
    Tensor in(1, 2, 3, 3);
    in.fillUniform(rng);
    EXPECT_EQ(maxAbsDiff(nn::zeroInsertSpatial(in, 1), in), 0.0f);
}

TEST(ZeroInsert, ZeroFractionMatchesPaperClaim)
{
    // "These inserted zeros account for about 64%... of total
    // multiplications in G" — the stuffed 32x32 -> 63x63 map is ~74%
    // zeros; across DCGAN's generator maps the fraction is 64-75%.
    double f = nn::zeroInsertZeroFraction(32, 32, 2);
    EXPECT_NEAR(f, 0.742, 0.01);
    double f4 = nn::zeroInsertZeroFraction(4, 4, 2);
    EXPECT_NEAR(f4, 0.673, 0.01);
}

TEST(ZeroInsert, PadSurroundsWithZeros)
{
    Tensor in(1, 1, 2, 2, 5.0f);
    Tensor out = nn::padSpatial(in, 2);
    EXPECT_EQ(out.shape(), Shape4(1, 1, 6, 6));
    EXPECT_FLOAT_EQ(out.get(0, 0, 0, 0), 0.0f);
    EXPECT_FLOAT_EQ(out.get(0, 0, 2, 2), 5.0f);
}

TEST(ZeroInsert, FlipKernelIs180Rotation)
{
    Tensor w(1, 1, 2, 3);
    float v = 0;
    for (int y = 0; y < 2; ++y)
        for (int x = 0; x < 3; ++x)
            w.at(0, 0, y, x) = v++;
    Tensor f = nn::flipKernelSpatial(w);
    EXPECT_FLOAT_EQ(f.get(0, 0, 0, 0), w.get(0, 0, 1, 2));
    EXPECT_FLOAT_EQ(f.get(0, 0, 1, 2), w.get(0, 0, 0, 0));
    // Double flip is identity.
    EXPECT_EQ(maxAbsDiff(nn::flipKernelSpatial(f), w), 0.0f);
}

TEST(ZeroInsert, SwapLeadingAxesTransposesChannels)
{
    Rng rng(4);
    Tensor w(3, 5, 2, 2);
    w.fillUniform(rng);
    Tensor s = nn::swapLeadingAxes(w);
    EXPECT_EQ(s.shape(), Shape4(5, 3, 2, 2));
    EXPECT_FLOAT_EQ(s.get(4, 2, 1, 0), w.get(2, 4, 1, 0));
}

// ---------------------------------------------------------------------
// S-CONV basics
// ---------------------------------------------------------------------

TEST(SConv, HandComputedExample)
{
    // 1x1x3x3 input, 1x1x2x2 kernel, stride 1, no pad.
    Tensor in(1, 1, 3, 3);
    float v = 1;
    for (int y = 0; y < 3; ++y)
        for (int x = 0; x < 3; ++x)
            in.at(0, 0, y, x) = v++;
    Tensor w(1, 1, 2, 2, 1.0f);
    Tensor out = nn::sconvForward(in, w, {2, 1, 0, 0});
    EXPECT_EQ(out.shape(), Shape4(1, 1, 2, 2));
    EXPECT_FLOAT_EQ(out.get(0, 0, 0, 0), 1 + 2 + 4 + 5);
    EXPECT_FLOAT_EQ(out.get(0, 0, 1, 1), 5 + 6 + 8 + 9);
}

TEST(SConv, StrideSkipsPositions)
{
    Tensor in(1, 1, 4, 4, 1.0f);
    Tensor w(1, 1, 2, 2, 1.0f);
    Tensor out = nn::sconvForward(in, w, {2, 2, 0, 0});
    EXPECT_EQ(out.shape(), Shape4(1, 1, 2, 2));
    for (int y = 0; y < 2; ++y)
        for (int x = 0; x < 2; ++x)
            EXPECT_FLOAT_EQ(out.get(0, 0, y, x), 4.0f);
}

TEST(SConv, PaddingContributesZero)
{
    Tensor in(1, 1, 2, 2, 1.0f);
    Tensor w(1, 1, 3, 3, 1.0f);
    Tensor out = nn::sconvForward(in, w, {3, 1, 1, 0});
    EXPECT_EQ(out.shape(), Shape4(1, 1, 2, 2));
    // Corner output sees only the 2x2 real values.
    EXPECT_FLOAT_EQ(out.get(0, 0, 0, 0), 4.0f);
}

TEST(SConv, MultiChannelAccumulates)
{
    Rng rng(9);
    Tensor in(1, 3, 4, 4);
    in.fillUniform(rng);
    Tensor w(2, 3, 3, 3);
    w.fillUniform(rng);
    Tensor out = nn::sconvForward(in, w, {3, 1, 1, 0});
    // Sum of per-channel convolutions equals the multi-channel conv.
    Tensor acc(1, 2, 4, 4, 0.0f);
    for (int c = 0; c < 3; ++c) {
        Tensor in_c(1, 1, 4, 4);
        Tensor w_c(2, 1, 3, 3);
        for (int y = 0; y < 4; ++y)
            for (int x = 0; x < 4; ++x)
                in_c.at(0, 0, y, x) = in.get(0, c, y, x);
        for (int of = 0; of < 2; ++of)
            for (int y = 0; y < 3; ++y)
                for (int x = 0; x < 3; ++x)
                    w_c.at(of, 0, y, x) = w.get(of, c, y, x);
        acc.add(nn::sconvForward(in_c, w_c, {3, 1, 1, 0}));
    }
    EXPECT_TRUE(approxEqual(out, acc, 1e-4f));
}

// ---------------------------------------------------------------------
// T-CONV identities
// ---------------------------------------------------------------------

class TconvGeomTest
    : public ::testing::TestWithParam<std::tuple<int, int, int, int, int>>
{
};

TEST_P(TconvGeomTest, ZeroInsertPathEqualsGatherPath)
{
    auto [in_dim, k, s, p, op] = GetParam();
    Rng rng(17);
    Tensor in(1, 3, in_dim, in_dim);
    in.fillUniform(rng);
    Tensor w(3, 2, k, k);
    w.fillUniform(rng);
    Conv2dGeom g{k, s, p, op};
    Tensor direct = nn::tconvForward(in, w, g);
    Tensor stuffed = nn::tconvForwardViaZeroInsert(in, w, g);
    EXPECT_TRUE(approxEqual(direct, stuffed, 1e-4f))
        << "in=" << in_dim << " k=" << k << " s=" << s << " p=" << p
        << " op=" << op << " diff=" << maxAbsDiff(direct, stuffed);
}

TEST_P(TconvGeomTest, TconvIsAdjointOfSconv)
{
    auto [out_dim, k, s, p, op] = GetParam();
    // The S-CONV maps (big) -> (small); its adjoint maps back.
    int big = tensor::tconvOutDim(out_dim, k, s, p, op);
    Rng rng(23);
    Tensor x(1, 2, big, big);
    x.fillUniform(rng);
    Tensor y(1, 2, out_dim, out_dim);
    y.fillUniform(rng);
    // Weights: S-CONV layout (OF=2, IF=2, k, k); T-CONV uses the
    // swapped layout.
    Tensor w(2, 2, k, k);
    w.fillUniform(rng);
    Conv2dGeom g{k, s, p, op};
    Tensor conv_x = nn::sconvForward(x, w, g);
    ASSERT_EQ(conv_x.shape(), y.shape());
    Tensor tconv_y = nn::tconvForward(y, w, g);
    ASSERT_EQ(tconv_y.shape(), x.shape());
    // <Conv x, y> == <x, ConvT y>.
    EXPECT_NEAR(dot(conv_x, y), dot(x, tconv_y),
                1e-3 * (1.0 + std::fabs(dot(conv_x, y))));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TconvGeomTest,
    ::testing::Values(std::make_tuple(4, 5, 2, 2, 1),  // DCGAN layer
                      std::make_tuple(7, 5, 2, 2, 1),  // MNIST-GAN
                      std::make_tuple(4, 4, 2, 1, 0),  // cGAN layer
                      std::make_tuple(1, 4, 1, 0, 0),  // z-projection
                      std::make_tuple(3, 3, 2, 1, 1),
                      std::make_tuple(5, 3, 1, 1, 0),
                      std::make_tuple(2, 2, 2, 0, 0),
                      std::make_tuple(6, 3, 3, 0, 2)));

TEST(TConv, UpsamplesByStrideFactor)
{
    Rng rng(31);
    Tensor in(1, 4, 8, 8);
    in.fillUniform(rng);
    Tensor w(4, 2, 5, 5);
    w.fillUniform(rng);
    Tensor out = nn::tconvForward(in, w, {5, 2, 2, 1});
    EXPECT_EQ(out.shape(), Shape4(1, 2, 16, 16));
}

// ---------------------------------------------------------------------
// W-CONV identities
// ---------------------------------------------------------------------

class WconvGeomTest
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>>
{
};

TEST_P(WconvGeomTest, DilatedKernelFormEqualsDirectGradient)
{
    auto [in_dim, k, s, p] = GetParam();
    Rng rng(37);
    Tensor in(2, 3, in_dim, in_dim);
    in.fillUniform(rng);
    Conv2dGeom g{k, s, p, 0};
    int out_dim = tensor::convOutDim(in_dim, k, s, p);
    Tensor dout(2, 4, out_dim, out_dim);
    dout.fillUniform(rng);
    Tensor direct = nn::sconvBackwardWeights(in, dout, g, k, k);
    Tensor dilated = nn::wconvViaDilatedKernel(in, dout, g, k, k);
    EXPECT_TRUE(approxEqual(direct, dilated, 1e-3f))
        << "diff=" << maxAbsDiff(direct, dilated);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, WconvGeomTest,
    ::testing::Values(std::make_tuple(8, 5, 2, 2),
                      std::make_tuple(8, 4, 2, 1),
                      std::make_tuple(7, 3, 1, 1),
                      std::make_tuple(4, 4, 1, 0),
                      std::make_tuple(10, 3, 3, 0)));

TEST(WConv, FourDimOutputHasNoChannelAccumulation)
{
    // Each (of, if) plane of the gradient must match the single-
    // channel gradient computed in isolation.
    Rng rng(41);
    Tensor in(1, 2, 6, 6);
    in.fillUniform(rng);
    Conv2dGeom g{3, 1, 1, 0};
    Tensor dout(1, 3, 6, 6);
    dout.fillUniform(rng);
    Tensor dw = nn::sconvBackwardWeights(in, dout, g, 3, 3);
    EXPECT_EQ(dw.shape(), Shape4(3, 2, 3, 3));
    for (int of = 0; of < 3; ++of)
        for (int c = 0; c < 2; ++c) {
            Tensor in_c(1, 1, 6, 6), dout_f(1, 1, 6, 6);
            for (int y = 0; y < 6; ++y)
                for (int x = 0; x < 6; ++x) {
                    in_c.at(0, 0, y, x) = in.get(0, c, y, x);
                    dout_f.at(0, 0, y, x) = dout.get(0, of, y, x);
                }
            Tensor dw_1 = nn::sconvBackwardWeights(in_c, dout_f, g, 3, 3);
            for (int ky = 0; ky < 3; ++ky)
                for (int kx = 0; kx < 3; ++kx)
                    EXPECT_NEAR(dw.get(of, c, ky, kx),
                                dw_1.get(0, 0, ky, kx), 1e-4);
        }
}

// ---------------------------------------------------------------------
// Gradient checks by numerical differentiation
// ---------------------------------------------------------------------

/** Numerically differentiate sum(conv(in, w) * dout_mask) w.r.t. one
 *  element and compare with the analytic gradient. */
TEST(GradientCheck, SconvWeightsAndData)
{
    Rng rng(53);
    Conv2dGeom g{3, 2, 1, 0};
    Tensor in(1, 2, 5, 5), w(3, 2, 3, 3);
    in.fillUniform(rng);
    w.fillUniform(rng);
    Tensor out = nn::sconvForward(in, w, g);
    Tensor mask(out.shape());
    mask.fillUniform(rng);

    Tensor dw = nn::sconvBackwardWeights(in, mask, g, 3, 3);
    Tensor din = nn::sconvBackwardData(mask, w, g, 5, 5);

    const float eps = 1e-3f;
    Rng pick(7);
    for (int trial = 0; trial < 20; ++trial) {
        // Weight gradient.
        int of = pick.uniformInt(0, 2), c = pick.uniformInt(0, 1);
        int ky = pick.uniformInt(0, 2), kx = pick.uniformInt(0, 2);
        Tensor wp = w;
        wp.at(of, c, ky, kx) += eps;
        Tensor wm = w;
        wm.at(of, c, ky, kx) -= eps;
        double fp = dot(nn::sconvForward(in, wp, g), mask);
        double fm = dot(nn::sconvForward(in, wm, g), mask);
        double numeric = (fp - fm) / (2 * eps);
        EXPECT_NEAR(numeric, dw.get(of, c, ky, kx), 2e-2)
            << "weight grad at " << of << c << ky << kx;

        // Data gradient.
        int y = pick.uniformInt(0, 4), x = pick.uniformInt(0, 4);
        Tensor ip = in;
        ip.at(0, c, y, x) += eps;
        Tensor im = in;
        im.at(0, c, y, x) -= eps;
        fp = dot(nn::sconvForward(ip, w, g), mask);
        fm = dot(nn::sconvForward(im, w, g), mask);
        numeric = (fp - fm) / (2 * eps);
        EXPECT_NEAR(numeric, din.get(0, c, y, x), 2e-2)
            << "data grad at " << c << y << x;
    }
}

TEST(GradientCheck, TconvWeightsAndData)
{
    Rng rng(59);
    Conv2dGeom g{4, 2, 1, 0};
    Tensor in(1, 3, 4, 4), w(3, 2, 4, 4);
    in.fillUniform(rng);
    w.fillUniform(rng);
    Tensor out = nn::tconvForward(in, w, g);
    Tensor mask(out.shape());
    mask.fillUniform(rng);

    Tensor dw = nn::tconvBackwardWeights(in, mask, g, 4, 4);
    Tensor din = nn::tconvBackwardData(mask, w, g, 4, 4);

    const float eps = 1e-3f;
    Rng pick(13);
    for (int trial = 0; trial < 20; ++trial) {
        int c = pick.uniformInt(0, 2), of = pick.uniformInt(0, 1);
        int ky = pick.uniformInt(0, 3), kx = pick.uniformInt(0, 3);
        Tensor wp = w;
        wp.at(c, of, ky, kx) += eps;
        Tensor wm = w;
        wm.at(c, of, ky, kx) -= eps;
        double fp = dot(nn::tconvForward(in, wp, g), mask);
        double fm = dot(nn::tconvForward(in, wm, g), mask);
        double numeric = (fp - fm) / (2 * eps);
        EXPECT_NEAR(numeric, dw.get(c, of, ky, kx), 2e-2);

        int y = pick.uniformInt(0, 3), x = pick.uniformInt(0, 3);
        Tensor ip = in;
        ip.at(0, c, y, x) += eps;
        Tensor im = in;
        im.at(0, c, y, x) -= eps;
        fp = dot(nn::tconvForward(ip, w, g), mask);
        fm = dot(nn::tconvForward(im, w, g), mask);
        numeric = (fp - fm) / (2 * eps);
        EXPECT_NEAR(numeric, din.get(0, c, y, x), 2e-2);
    }
}

// ---------------------------------------------------------------------
// sim::genericConvRef
// ---------------------------------------------------------------------

/** genericConvRef's definition: direct nested loops over every
 *  (of, if, oy, ox, ky, kx), padding and zero weights included. */
Tensor
naiveGenericConvRef(const sim::ConvSpec &spec, const Tensor &in,
                    const Tensor &w)
{
    Tensor out = sim::makeOutputTensor(spec);
    for (int of = 0; of < spec.nof; ++of) {
        for (int c = 0; c < spec.nif; ++c) {
            int wc = spec.fourDimOutput ? 0 : c;
            for (int oy = 0; oy < spec.oh; ++oy)
                for (int ox = 0; ox < spec.ow; ++ox) {
                    double acc = 0.0;
                    for (int ky = 0; ky < spec.kh; ++ky)
                        for (int kx = 0; kx < spec.kw; ++kx) {
                            int iy = oy * spec.stride + ky - spec.pad;
                            int ix = ox * spec.stride + kx - spec.pad;
                            acc += double(in.getPadded(0, c, iy, ix)) *
                                   w.get(of, wc, ky, kx);
                        }
                    if (spec.fourDimOutput)
                        out.ref(of, c, oy, ox) = float(acc);
                    else
                        out.ref(0, of, oy, ox) += float(acc);
                }
        }
    }
    return out;
}

/** A dense strided, padded job with independent row/column extents. */
sim::ConvSpec
paddedStridedSpec(Rng &rng)
{
    sim::ConvSpec s;
    s.label = "padded";
    s.nif = rng.uniformInt(1, 5);
    s.nof = rng.uniformInt(1, 5);
    s.ih = rng.uniformInt(1, 12);
    s.iw = rng.uniformInt(1, 12);
    s.kh = rng.uniformInt(1, 6);
    s.kw = rng.uniformInt(1, 6);
    s.stride = rng.uniformInt(1, 4);
    s.pad = rng.uniformInt(0, std::min(s.kh, s.kw) - 1);
    if (s.ih + 2 * s.pad < s.kh || s.iw + 2 * s.pad < s.kw)
        return paddedStridedSpec(rng);
    s.oh = tensor::convOutDim(s.ih, s.kh, s.stride, s.pad);
    s.ow = tensor::convOutDim(s.iw, s.kw, s.stride, s.pad);
    s.fourDimOutput = rng.uniformInt(0, 3) == 0;
    return s;
}

TEST(ConvRef, GenericConvRefMatchesNaiveLoopBitForBit)
{
    // Stuffed, dilated, padded, strided, four-dimension and
    // rectangular jobs. Half the draws fill every operand position,
    // structural zeros included, so skipping zero weights and padding
    // is exercised on arbitrary values too.
    Rng rng(0xC0F5EFULL);
    for (int i = 0; i < 400; ++i) {
        const sim::ConvSpec s = i % 2 == 0 ? tests::randomRectSpec(rng)
                                           : paddedStridedSpec(rng);
        Tensor in = sim::makeStreamedInput(s, rng);
        Tensor w = sim::makeStreamedKernel(s, rng);
        if (rng.uniformInt(0, 1) == 1) {
            in.fillUniform(rng);
            w.fillUniform(rng);
        }
        const Tensor got = sim::genericConvRef(s, in, w);
        const Tensor want = naiveGenericConvRef(s, in, w);
        ASSERT_EQ(got.shape(), want.shape()) << s.describe();
        EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                                 got.numel() * sizeof(float)))
            << s.describe();
    }
}

} // namespace
