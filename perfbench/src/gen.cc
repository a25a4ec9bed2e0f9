#include "gen.hh"

#include <unordered_set>

#include "core/resource_model.hh"
#include "serve/protocol.hh"
#include "sim/phase.hh"
#include "util/random.hh"
#include "util/thread_pool.hh"
#include "verify/legality.hh"

namespace perfbench {

using namespace ganacc;

namespace {

/** splitmix64: decorrelates the per-purpose sub-seeds. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** verify::checkUnroll finds neither an error nor a warning. */
bool
legalUnroll(const SpecJob &job)
{
    verify::Report report;
    verify::checkUnroll(job.kind, job.unroll, {job.spec}, report);
    return report.errorCount() == 0 && report.warningCount() == 0;
}

/** The wire request of a job, with the given id. */
std::string
requestLine(const SpecJob &job, std::uint64_t id)
{
    serve::Request req;
    req.id = id;
    req.kind = job.kind;
    req.unroll = job.unroll;
    req.hasSpec = true;
    req.spec = job.spec;
    return serve::encodeRequest(req);
}

} // namespace

std::vector<gan::GanModel>
paperModels()
{
    return {gan::makeDcgan(), gan::makeMnistGan(), gan::makeCgan()};
}

std::vector<SpecJob>
tableVJobs()
{
    std::vector<SpecJob> jobs;
    for (const gan::GanModel &model : paperModels()) {
        for (const TableVRow &row : kTableVRows) {
            const auto specs = sim::familyJobs(model, row.family);
            for (core::ArchKind kind : core::allArchKinds()) {
                for (const sim::ConvSpec &spec : specs) {
                    SpecJob j;
                    j.kind = kind;
                    j.unroll = core::paperUnroll(kind, row.role,
                                                 row.family, row.pes);
                    j.spec = spec;
                    jobs.push_back(j);
                }
            }
        }
    }
    return jobs;
}

std::vector<SpecJob>
uniqueJobs(std::uint64_t seed, std::size_t n)
{
    std::vector<sim::ConvSpec> base;
    for (const gan::GanModel &model : paperModels())
        for (const TableVRow &row : kTableVRows)
            for (const sim::ConvSpec &s : sim::familyJobs(model, row.family))
                base.push_back(s);
    const auto kinds = core::allArchKinds();

    // Candidates come in chunks, each a pure function of (seed, chunk
    // index), so they can be drawn and legality-checked in parallel;
    // the merge below runs in chunk order, which keeps the result
    // independent of scheduling.
    constexpr std::size_t kChunk = 4096;
    auto drawChunk = [&](std::uint64_t chunk) {
        util::Rng rng(mix(seed ^ mix(0xda3e0ULL + chunk)));
        std::vector<std::pair<std::string, SpecJob>> out;
        while (out.size() < kChunk) {
            SpecJob j;
            j.spec = base[std::size_t(
                rng.uniformInt(0, int(base.size()) - 1))];
            j.kind = kinds[std::size_t(
                rng.uniformInt(0, int(kinds.size()) - 1))];
            // Only the factors the dataflow reads are drawn; the rest
            // stay 1, which checkUnroll requires (GA-UNROLL-UNUSED).
            sim::Unroll &u = j.unroll;
            u.pOf = rng.uniformInt(1, 64);
            switch (j.kind) {
              case core::ArchKind::NLR:
                u.pIf = rng.uniformInt(1, 32);
                break;
              case core::ArchKind::WST:
              case core::ArchKind::ZFWST:
                u.pKx = rng.uniformInt(1, 8);
                u.pKy = rng.uniformInt(1, 8);
                break;
              case core::ArchKind::OST:
              case core::ArchKind::ZFOST:
                u.pOx = rng.uniformInt(1, 16);
                u.pOy = rng.uniformInt(1, 16);
                break;
            }
            if (legalUnroll(j))
                out.emplace_back(contentKeyOf(j), j);
        }
        return out;
    };

    std::unordered_set<std::string> keys;
    std::vector<SpecJob> jobs;
    jobs.reserve(n);
    std::uint64_t nextChunk = 0;
    while (jobs.size() < n) {
        // Draw a little more than the remainder: some keys repeat.
        const std::size_t want =
            (n - jobs.size()) * 11 / 10 / kChunk + 1;
        std::vector<std::uint64_t> ids;
        for (std::size_t c = 0; c < want; ++c)
            ids.push_back(nextChunk++);
        for (auto &chunk : util::parallelMap(ids, drawChunk))
            for (auto &[key, job] : chunk)
                if (jobs.size() < n && keys.insert(key).second)
                    jobs.push_back(job);
    }
    return jobs;
}

std::vector<std::string>
requestLines(const std::vector<SpecJob> &jobs, std::uint64_t firstId)
{
    std::vector<std::string> lines(jobs.size());
    util::parallelFor(jobs.size(), 0, [&](std::size_t i) {
        lines[i] = requestLine(jobs[i], firstId + i);
    });
    return lines;
}

std::string
contentKeyOf(const SpecJob &job)
{
    return serve::contentKey(job.kind, job.unroll, job.spec);
}

sim::RunStats
directRun(const SpecJob &job)
{
    return core::makeArch(job.kind, job.unroll)->run(job.spec);
}

fault::FaultPlan
campaignPlan(std::uint64_t seed, int sitesPerJob)
{
    fault::FaultPlan plan;
    plan.seed = seed;
    plan.transient.sitesPerJob = sitesPerJob;
    plan.transient.bits = 1;
    return plan;
}

std::vector<core::DseConstraints>
dseConstraints(std::uint64_t seed, int n)
{
    util::Rng rng(mix(seed ^ 0xd5eULL));
    std::vector<core::DseConstraints> out;
    for (int i = 0; i < n; ++i) {
        core::DseConstraints c;
        c.offchip.bandwidthBitsPerSec = 192e9 * rng.uniform(0.5, 1.5);
        const double scale = rng.uniform(0.6, 1.2);
        const core::FpgaResources full = core::vcu9pBudget();
        c.budget.luts = std::uint64_t(double(full.luts) * scale);
        c.budget.flipFlops = std::uint64_t(double(full.flipFlops) * scale);
        c.budget.bram36 = int(double(full.bram36) * scale);
        c.budget.dsp = int(double(full.dsp) * scale);
        out.push_back(c);
    }
    return out;
}

bool
validMetricName(const std::string &name)
{
    if (name.empty())
        return false;
    for (char c : name) {
        const bool ok = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                        c == '-';
        if (!ok)
            return false;
    }
    return true;
}

std::uint64_t
digest(const std::vector<std::string> &parts)
{
    std::string all;
    for (const std::string &p : parts) {
        all += p;
        all += '\n';
    }
    return serve::fnv1a64(all);
}

} // namespace perfbench
