/**
 * @file
 * ConvSpec implementation.
 */

#include "sim/conv_spec.hh"

#include <algorithm>
#include <sstream>
#include <vector>

#include "util/logging.hh"

namespace ganacc {
namespace sim {

using tensor::Shape4;
using tensor::Tensor;

namespace {

/** Structural-zero test along one axis. */
bool
axisIsZero(int c, int zero_stride, int orig)
{
    if (zero_stride <= 1)
        return false;
    if (c % zero_stride != 0)
        return true;
    if (orig >= 0 && c / zero_stride >= orig)
        return true; // trailing output-padding rows
    return false;
}

Shape4
outputShape(const ConvSpec &spec)
{
    return spec.fourDimOutput ? Shape4(spec.nof, spec.nif, spec.oh, spec.ow)
                              : Shape4(1, spec.nof, spec.oh, spec.ow);
}

} // namespace

bool
ConvSpec::inputIsZero(int y, int x) const
{
    return inputRowZero(y) || inputColZero(x);
}

bool
ConvSpec::kernelIsZero(int ky, int kx) const
{
    return kernelRowZero(ky) || kernelColZero(kx);
}

bool
ConvSpec::inputRowZero(int y) const
{
    return axisIsZero(y, inZeroStride, inOrigH);
}

bool
ConvSpec::inputColZero(int x) const
{
    return axisIsZero(x, inZeroStride, inOrigW);
}

bool
ConvSpec::kernelRowZero(int ky) const
{
    return axisIsZero(ky, kZeroStride, kOrigH);
}

bool
ConvSpec::kernelColZero(int kx) const
{
    return axisIsZero(kx, kZeroStride, kOrigW);
}

std::uint64_t
ConvSpec::denseMacs() const
{
    return std::uint64_t(nof) * nif * oh * ow * kh * kw;
}

std::uint64_t
ConvSpec::effectiveMacs() const
{
    // For each kernel position, count output positions whose input
    // coordinate is in-bounds and non-zero; separable per axis.
    std::uint64_t total = 0;
    for (int ky = 0; ky < kh; ++ky) {
        for (int kx = 0; kx < kw; ++kx) {
            if (kernelIsZero(ky, kx))
                continue;
            int rows = countNonzeroCoords(0, oh, stride, ky, pad, ih,
                                          inZeroStride, inOrigH);
            int cols = countNonzeroCoords(0, ow, stride, kx, pad, iw,
                                          inZeroStride, inOrigW);
            total += std::uint64_t(rows) * cols;
        }
    }
    return total * std::uint64_t(nof) * nif;
}

void
ConvSpec::validate() const
{
    GANACC_ASSERT(nif > 0 && nof > 0 && ih > 0 && iw > 0 && kh > 0 &&
                      kw > 0 && oh > 0 && ow > 0 && stride > 0 &&
                      pad >= 0,
                  "malformed spec ", describe());
    GANACC_ASSERT(inZeroStride >= 1 && kZeroStride >= 1,
                  "bad zero strides in ", describe());
    // The last output's receptive field must still overlap the input
    // (cropping below the natural extent is allowed for W-CONV).
    GANACC_ASSERT((oh - 1) * stride - pad < ih,
                  "output taller than the input supports: ", describe());
    GANACC_ASSERT((ow - 1) * stride - pad < iw,
                  "output wider than the input supports: ", describe());
}

std::string
ConvSpec::describe() const
{
    std::ostringstream os;
    os << label << " [in " << nif << "x" << ih << "x" << iw;
    if (inZeroStride > 1)
        os << " (z" << inZeroStride << ")";
    os << ", k " << kh << "x" << kw;
    if (kZeroStride > 1)
        os << " (z" << kZeroStride << ")";
    os << ", out " << nof << "x" << oh << "x" << ow << ", s" << stride
       << " p" << pad << (fourDimOutput ? ", 4D" : "") << "]";
    return os.str();
}

int
countNonzeroCoords(int t0, int len, int stride, int k, int pad, int extent,
                   int zero_stride, int orig)
{
    int count = 0;
    for (int t = t0; t < t0 + len; ++t) {
        int c = t * stride + k - pad;
        if (c < 0 || c >= extent)
            continue;
        if (!axisIsZero(c, zero_stride, orig))
            ++count;
    }
    return count;
}

Tensor
makeStreamedInput(const ConvSpec &spec, util::Rng &rng)
{
    Tensor in(Shape4(1, spec.nif, spec.ih, spec.iw), 0.0f);
    fillStreamedInput(spec, rng, in);
    return in;
}

Tensor
makeStreamedKernel(const ConvSpec &spec, util::Rng &rng)
{
    Tensor w(Shape4(spec.nof, spec.fourDimOutput ? 1 : spec.nif, spec.kh,
                    spec.kw),
             0.0f);
    fillStreamedKernel(spec, rng, w);
    return w;
}

void
fillStreamedInput(const ConvSpec &spec, util::Rng &rng, Tensor &in)
{
    GANACC_ASSERT(in.shape() == Shape4(1, spec.nif, spec.ih, spec.iw),
                  "streamed input shape mismatch for ", spec.describe());
    for (int c = 0; c < spec.nif; ++c)
        for (int y = 0; y < spec.ih; ++y)
            for (int x = 0; x < spec.iw; ++x)
                if (!spec.inputIsZero(y, x))
                    in.ref(0, c, y, x) = rng.uniformf(-1.0f, 1.0f);
}

void
fillStreamedKernel(const ConvSpec &spec, util::Rng &rng, Tensor &w)
{
    const int kif = spec.fourDimOutput ? 1 : spec.nif;
    GANACC_ASSERT(w.shape() == Shape4(spec.nof, kif, spec.kh, spec.kw),
                  "streamed kernel shape mismatch for ", spec.describe());
    for (int of = 0; of < spec.nof; ++of)
        for (int c = 0; c < kif; ++c)
            for (int ky = 0; ky < spec.kh; ++ky)
                for (int kx = 0; kx < spec.kw; ++kx)
                    if (!spec.kernelIsZero(ky, kx))
                        w.ref(of, c, ky, kx) = rng.uniformf(-1.0f, 1.0f);
}

Tensor
makeOutputTensor(const ConvSpec &spec)
{
    return Tensor(outputShape(spec), 0.0f);
}

IndexRange
inBoundsRange(int n, int step, int off, int extent)
{
    // t*step + off >= 0  <=>  t >= ceil(-off / step);
    // t*step + off < extent  <=>  t <= floor((extent - 1 - off) / step).
    const int lo = off >= 0 ? 0 : (-off + step - 1) / step;
    const int last = extent - 1 - off;
    const int hi = last < 0 ? 0 : last / step + 1;
    IndexRange r;
    r.lo = std::min(lo, n);
    r.hi = std::max(r.lo, std::min(hi, n));
    return r;
}

Tensor
genericConvRef(const ConvSpec &spec, const Tensor &in, const Tensor &w)
{
    Tensor out = makeOutputTensor(spec);
    genericConvRef(spec, in, w, out);
    return out;
}

void
genericConvRef(const ConvSpec &spec, const Tensor &in, const Tensor &w,
               Tensor &out)
{
    spec.validate();
    GANACC_ASSERT(in.shape() == Shape4(1, spec.nif, spec.ih, spec.iw),
                  "streamed input shape mismatch for ", spec.describe());
    GANACC_ASSERT(out.shape() == outputShape(spec),
                  "output shape mismatch for ", spec.describe());
    const Shape4 ws = w.shape();
    // Per-row double accumulators: output columns are independent, so
    // the (ky, kx) loops run outside the column loop while each column
    // still sums in row-major order.
    std::vector<double> acc(std::size_t(spec.ow));
    std::vector<IndexRange> cols(std::size_t(spec.kw));
    for (int kx = 0; kx < spec.kw; ++kx)
        cols[std::size_t(kx)] = inBoundsRange(spec.ow, spec.stride,
                                              kx - spec.pad, spec.iw);
    // Input rows holding a non-zero value; the others (T-CONV stuffing)
    // add only zero products.
    std::vector<char> live_rows(std::size_t(spec.nif) * spec.ih, 0);
    for (std::size_t r = 0; r < live_rows.size(); ++r)
        live_rows[r] = std::any_of(in.data() + r * spec.iw,
                                   in.data() + (r + 1) * spec.iw,
                                   [](float v) { return v != 0.0f; });
    for (int of = 0; of < spec.nof; ++of) {
        for (int c = 0; c < spec.nif; ++c) {
            const int wc = spec.fourDimOutput ? 0 : c;
            const float *wp = w.data() + ws.offset(of, wc, 0, 0);
            const float *ip = in.data() + in.shape().offset(0, c, 0, 0);
            float *op = out.data() + (spec.fourDimOutput
                                          ? out.shape().offset(of, c, 0, 0)
                                          : out.shape().offset(0, of, 0, 0));
            for (int oy = 0; oy < spec.oh; ++oy) {
                std::fill(acc.begin(), acc.end(), 0.0);
                for (int ky = 0; ky < spec.kh; ++ky) {
                    const int iy = oy * spec.stride + ky - spec.pad;
                    if (iy < 0 || iy >= spec.ih ||
                        !live_rows[std::size_t(c) * spec.ih +
                                   std::size_t(iy)])
                        continue;
                    const float *irow = ip + std::size_t(iy) * spec.iw;
                    for (int kx = 0; kx < spec.kw; ++kx) {
                        const double wv =
                            wp[std::size_t(ky) * ws.d3 + std::size_t(kx)];
                        if (wv == 0.0)
                            continue;
                        const IndexRange r = cols[std::size_t(kx)];
                        for (int ox = r.lo; ox < r.hi; ++ox)
                            acc[std::size_t(ox)] +=
                                double(irow[ox * spec.stride + kx -
                                            spec.pad]) *
                                wv;
                    }
                }
                float *orow = op + std::size_t(oy) * spec.ow;
                for (int ox = 0; ox < spec.ow; ++ox) {
                    if (spec.fourDimOutput)
                        orow[ox] = float(acc[std::size_t(ox)]);
                    else
                        orow[ox] += float(acc[std::size_t(ox)]);
                }
            }
        }
    }
}

} // namespace sim
} // namespace ganacc
