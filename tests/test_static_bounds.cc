/**
 * @file
 * The static-vs-simulated bounds equivalence property: over randomized
 * legal streamed jobs and randomized unrollings, the closed-form
 * staticRunStats() must match the cycle-level walk *bit for bit* on
 * every counter, for all five dataflows. A divergence is a bug in
 * either the closed form or the simulator — both derive from the same
 * schedule, so there is no tolerance.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/unrolling.hh"
#include "gan/models.hh"
#include "rect_specs.hh"
#include "sim/phase.hh"
#include "sim/segments.hh"
#include "verify/legality.hh"
#include "verify/static_bounds.hh"

namespace {

using namespace ganacc;

int
pick(std::mt19937 &rng, int lo, int hi)
{
    return lo + int(rng() % unsigned(hi - lo + 1));
}

/**
 * A random legal job drawn from the four streamed-operand shapes the
 * GAN phase mapping produces: dense S-CONV, zero-stuffed T-CONV input,
 * dilated W-CONV kernel, and stuffed four-dimensional W-CONV.
 */
sim::ConvSpec
randomSpec(std::mt19937 &rng)
{
    sim::ConvSpec s;
    s.label = "random job";
    s.nif = pick(rng, 1, 3);
    s.nof = pick(rng, 1, 4);

    const int mode = pick(rng, 0, 3);
    if (mode == 0) {
        // Dense, stride 1 or 2, occasionally four-dimensional (the
        // stride-1 W-CONV case dilates by 1, i.e. stays dense).
        s.stride = pick(rng, 1, 2);
        s.ih = pick(rng, 4, 9);
        s.iw = pick(rng, 4, 9);
        s.kh = pick(rng, 1, 3);
        s.kw = pick(rng, 1, 3);
        s.fourDimOutput = pick(rng, 0, 3) == 0;
    } else if (mode == 2) {
        // Dilated kernel (discriminator weight gradients).
        s.stride = 1;
        const int z = pick(rng, 2, 3);
        s.kZeroStride = z;
        s.kOrigH = pick(rng, 1, 2);
        s.kOrigW = pick(rng, 1, 2);
        s.kh = (s.kOrigH - 1) * z + 1;
        s.kw = (s.kOrigW - 1) * z + 1;
        s.ih = s.kh + pick(rng, 0, 4);
        s.iw = s.kw + pick(rng, 0, 4);
        s.fourDimOutput = pick(rng, 0, 1) == 1;
    } else {
        // Zero-stuffed input, stride 1 (T-CONV forward/backward when
        // mode 1, generator weight gradients when mode 3).
        s.stride = 1;
        const int z = pick(rng, 2, 3);
        s.inZeroStride = z;
        s.inOrigH = pick(rng, 2, 4);
        s.inOrigW = pick(rng, 2, 4);
        s.ih = (s.inOrigH - 1) * z + 1 + pick(rng, 0, z - 1);
        s.iw = (s.inOrigW - 1) * z + 1 + pick(rng, 0, z - 1);
        if (pick(rng, 0, 3) == 0)
            s.inOrigH = s.inOrigW = -1; // whole-grid stuffing pattern
        s.kh = pick(rng, 1, std::min(3, s.ih));
        s.kw = pick(rng, 1, std::min(3, s.iw));
        s.fourDimOutput = mode == 3;
    }

    s.pad = pick(rng, 0, std::min(s.kh, s.kw) - 1);
    s.oh = (s.ih - s.kh + s.pad) / s.stride + 1;
    s.ow = (s.iw - s.kw + s.pad) / s.stride + 1;
    return s;
}

sim::Unroll
randomUnroll(std::mt19937 &rng)
{
    sim::Unroll u;
    u.pIf = pick(rng, 1, 3);
    u.pOf = pick(rng, 1, 3);
    u.pKx = pick(rng, 1, 3);
    u.pKy = pick(rng, 1, 3);
    u.pOx = pick(rng, 1, 3);
    u.pOy = pick(rng, 1, 3);
    return u;
}

/** Assert closed form == cycle walk on every counter of one job. */
void
expectBoundsMatch(core::ArchKind kind, const sim::Unroll &u,
                  const sim::ConvSpec &spec)
{
    auto arch = core::makeArch(kind, u);
    const sim::RunStats walked = arch->run(spec);
    const sim::RunStats derived = verify::staticRunStats(kind, u, spec);

    verify::Report r;
    const bool same =
        verify::checkBoundsAgainstSim(kind, u, spec, walked, r);
    std::ostringstream os;
    r.renderText(os);
    EXPECT_TRUE(same) << core::archKindName(kind) << " with "
                      << u.str() << " on " << spec.describe() << "\n"
                      << os.str();

    // The closed form must satisfy the same conservation law the
    // simulator asserts: every offered PE slot is accounted for.
    EXPECT_EQ(derived.effectiveMacs + derived.ineffectualMacs +
                  derived.idlePeSlots,
              derived.totalSlots())
        << core::archKindName(kind) << " on " << spec.describe();
    EXPECT_EQ(derived.nPes, walked.nPes);
}

/** The property test: randomized specs, randomized unrollings. */
TEST(StaticBounds, MatchesCycleWalkOnRandomizedSpecs)
{
    std::mt19937 rng(0xC0FFEE);
    for (core::ArchKind kind : core::allArchKinds()) {
        for (int iter = 0; iter < 50; ++iter) {
            const sim::ConvSpec spec = randomSpec(rng);

            // The generator must only emit verifier-legal jobs —
            // otherwise the property is vacuous.
            verify::Report legal;
            verify::checkConvSpec(spec, legal);
            ASSERT_TRUE(legal.ok()) << spec.describe();

            expectBoundsMatch(kind, randomUnroll(rng), spec);
        }
    }
}

/** Same property on the real phase jobs under the paper unrollings. */
TEST(StaticBounds, MatchesCycleWalkOnPaperSchedules)
{
    const gan::GanModel mnist = gan::makeMnistGan();
    for (core::ArchKind kind : core::allArchKinds()) {
        for (sim::PhaseFamily family :
             {sim::PhaseFamily::D, sim::PhaseFamily::G,
              sim::PhaseFamily::Dw, sim::PhaseFamily::Gw}) {
            const bool weight_family = family == sim::PhaseFamily::Dw ||
                                       family == sim::PhaseFamily::Gw;
            const sim::Unroll u = core::paperUnroll(
                kind,
                weight_family ? core::BankRole::W : core::BankRole::ST,
                family, weight_family ? 480 : 1200);
            const bool zero_free = kind == core::ArchKind::ZFOST ||
                                   kind == core::ArchKind::ZFWST;
            for (const sim::ConvSpec &job :
                 sim::familyJobs(mnist, family)) {
                // The zero-free schedules are undefined on stuffed
                // inputs streamed with stride > 1 (GA-SPEC-ZI-STRIDE).
                if (zero_free && job.inZeroStride > 1 && job.stride != 1)
                    continue;
                expectBoundsMatch(kind, u, job);
            }
        }
    }
}

/** Brute-force per-axis sums of one output class over (output, kernel)
 *  coordinate pairs, straight from the ConvSpec predicates. */
struct AxisBrute
{
    std::uint64_t n = 0, k = 0, kNz = 0, in = 0, inNz = 0, sum = 0;
};

AxisBrute
bruteAxis(const sim::ConvSpec &s, bool row, bool zero_free, int c0, int z)
{
    const int out = row ? s.oh : s.ow;
    const int k_extent = row ? s.kh : s.kw;
    const int extent = row ? s.ih : s.iw;
    AxisBrute a;
    for (int o = c0; o < out; o += z)
        ++a.n;
    for (int k = 0; k < k_extent; ++k) {
        const bool k_zero = row ? s.kernelRowZero(k) : s.kernelColZero(k);
        // Zero-free classes schedule a kernel coordinate only when it
        // is non-zero and lands the class on the stuffing lattice.
        const int lattice = c0 * s.stride + k - s.pad;
        if (zero_free && (k_zero || ((lattice % z) + z) % z != 0))
            continue;
        ++a.k;
        a.kNz += k_zero ? 0 : 1;
        for (int o = c0; o < out; o += z) {
            const int i = o * s.stride + k - s.pad;
            if (i < 0 || i >= extent)
                continue;
            ++a.in;
            if (k_zero)
                continue;
            ++a.inNz;
            if (!(row ? s.inputRowZero(i) : s.inputColZero(i)))
                ++a.sum;
        }
    }
    return a;
}

/** Compare every class of one split with the brute force, and the
 *  classes' effective products with ConvSpec::effectiveMacs. */
void
expectSegmentsMatchBruteForce(const sim::ConvSpec &s, sim::ClassSplit split)
{
    const bool zero_free = split == sim::ClassSplit::ZeroFree;
    const int z = zero_free ? s.inZeroStride : 1;
    const std::vector<sim::ClassSegment> classes =
        sim::classSegments(s, split);
    ASSERT_EQ(classes.size(),
              std::size_t(std::min(z, s.oh) * std::min(z, s.ow)))
        << s.describe();
    std::uint64_t effective = 0;
    std::size_t idx = 0;
    for (int cy = 0; cy < z && cy < s.oh; ++cy) {
        for (int cx = 0; cx < z && cx < s.ow; ++cx) {
            const sim::ClassSegment &c = classes[idx++];
            const AxisBrute r = bruteAxis(s, true, zero_free, cy, z);
            const AxisBrute col = bruteAxis(s, false, zero_free, cx, z);
            const std::string where =
                s.describe() + " class (" + std::to_string(cy) + "," +
                std::to_string(cx) + ")";
            EXPECT_EQ(c.nY, r.n) << where;
            EXPECT_EQ(c.kRows, r.k) << where;
            EXPECT_EQ(c.kRowsNz, r.kNz) << where;
            EXPECT_EQ(c.rowIn, r.in) << where;
            EXPECT_EQ(c.rowInNz, r.inNz) << where;
            EXPECT_EQ(c.rowSum, r.sum) << where;
            EXPECT_EQ(c.nX, col.n) << where;
            EXPECT_EQ(c.kCols, col.k) << where;
            EXPECT_EQ(c.kColsNz, col.kNz) << where;
            EXPECT_EQ(c.colIn, col.in) << where;
            EXPECT_EQ(c.colInNz, col.inNz) << where;
            EXPECT_EQ(c.colSum, col.sum) << where;
            effective += c.rowSum * c.colSum;
        }
    }
    EXPECT_EQ(effective * std::uint64_t(s.nof) * std::uint64_t(s.nif),
              s.effectiveMacs())
        << s.describe();
}

/** sim/segments against brute force, on rectangular random jobs. */
TEST(StaticBounds, SegmentAxisSumsMatchBruteForce)
{
    std::mt19937 rng(0x5E6);
    util::Rng rect_rng(0x5E6EC7ULL);
    for (int iter = 0; iter < 200; ++iter) {
        for (const sim::ConvSpec &s :
             {randomSpec(rng), tests::randomRectSpec(rect_rng)}) {
            expectSegmentsMatchBruteForce(s, sim::ClassSplit::Dense);
            if (s.inZeroStride == 1 || s.stride == 1)
                expectSegmentsMatchBruteForce(s,
                                              sim::ClassSplit::ZeroFree);
        }
    }
}

} // namespace
