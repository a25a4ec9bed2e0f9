/**
 * @file
 * FaultInjector implementation.
 */

#include "fault/injector.hh"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "util/fixed_point.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace ganacc {
namespace fault {

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan))
{
    for (const auto &f : plan_.peFaults)
        GANACC_ASSERT(f.lane >= 0, "PE fault lane must be >= 0");
}

void
FaultInjector::beginJob(const sim::ConvSpec &spec,
                        std::uint64_t job_index)
{
    spec_ = spec;
    haveJob_ = true;
    armedSites_.clear();

    const std::uint64_t dense = spec.denseMacs();
    const std::uint64_t want = std::min(
        std::uint64_t(plan_.transient.sitesPerJob), dense);
    if (want == 0)
        return;

    // The arming draw is keyed on (seed, job index) alone so every
    // architecture sees the identical upset set for this job.
    util::Rng rng(mix64(plan_.seed ^ mix64(job_index + 1)));
    std::uniform_int_distribution<std::uint64_t> dist(0, dense - 1);
    armedSites_.reserve(std::size_t(want));
    std::unordered_set<std::uint64_t> seen;
    seen.reserve(std::size_t(want));
    while (armedSites_.size() < std::size_t(want)) {
        const std::uint64_t site = dist(rng.engine());
        if (seen.insert(site).second)
            armedSites_.push_back(site);
    }
    std::sort(armedSites_.begin(), armedSites_.end());
    counters_.armed += want;
}

std::uint64_t
latticeIndex(const sim::ConvSpec &spec, const sim::MacContext &ctx)
{
    std::uint64_t i = std::uint64_t(ctx.of);
    i = i * std::uint64_t(spec.nif) + std::uint64_t(ctx.c);
    i = i * std::uint64_t(spec.oh) + std::uint64_t(ctx.oy);
    i = i * std::uint64_t(spec.ow) + std::uint64_t(ctx.ox);
    i = i * std::uint64_t(spec.kh) + std::uint64_t(ctx.ky);
    i = i * std::uint64_t(spec.kw) + std::uint64_t(ctx.kx);
    return i;
}

sim::MacContext
latticePoint(const sim::ConvSpec &spec, std::uint64_t site)
{
    sim::MacContext ctx;
    auto next = [&site](int extent) {
        const auto v = int(site % std::uint64_t(extent));
        site /= std::uint64_t(extent);
        return v;
    };
    ctx.kx = next(spec.kw);
    ctx.ky = next(spec.kh);
    ctx.ox = next(spec.ow);
    ctx.oy = next(spec.oh);
    ctx.c = next(spec.nif);
    ctx.of = int(site);
    return ctx;
}

float
FaultInjector::flipProductBits(float product, std::uint64_t site) const
{
    // The corrupted pattern depends only on (seed, site), never on
    // visit order, keeping parallel campaigns bit-reproducible.
    std::uint16_t raw = std::uint16_t(
        util::AccelFixed::fromDouble(double(product)).raw());
    std::uint64_t h = mix64(plan_.seed ^ mix64(site));
    std::uint16_t flipped = 0;
    for (int i = 0; i < plan_.transient.bits; ++i) {
        std::uint16_t bit;
        do {
            bit = std::uint16_t(1u << (h & 15u));
            h = mix64(h);
        } while ((flipped & bit) != 0);
        flipped = std::uint16_t(flipped | bit);
    }
    raw = std::uint16_t(raw ^ flipped);
    return float(
        util::AccelFixed::fromRaw(std::int16_t(raw)).toDouble());
}

float
FaultInjector::onMac(const sim::MacContext &ctx, float a, float b)
{
    GANACC_ASSERT(haveJob_,
                  "FaultInjector::onMac before beginJob()");
    ++counters_.macsObserved;
    float product = a * b;

    if (!armedSites_.empty()) {
        const std::uint64_t site = latticeIndex(spec_, ctx);
        if (std::binary_search(armedSites_.begin(), armedSites_.end(),
                               site)) {
            ++counters_.fired;
            product = flipProductBits(product, site);
        }
    }

    // Stuck-at lanes override whatever the multiplier computed.
    for (const auto &f : plan_.peFaults) {
        if (f.lane != ctx.lane)
            continue;
        ++counters_.peHits;
        product = f.kind == PeFault::Kind::StuckAtZero ? 0.0f : f.value;
    }
    return product;
}

bool
FaultInjector::visitIneffectual() const
{
    // Both fault classes live on the physical multipliers, which the
    // baselines clock through zero-operand slots too — those slots
    // must be observed or a stuck lane would look artificially benign.
    return !plan_.peFaults.empty() || plan_.transient.sitesPerJob > 0;
}

} // namespace fault
} // namespace ganacc
