/**
 * @file
 * Bit-level determinism guarantees:
 *
 *  - a gan::Trainer seeded identically produces bit-identical losses
 *    and weights across in-process repetitions, and is immune to the
 *    GANACC_JOBS environment variable (worker count must never leak
 *    into results);
 *  - the fault-injection campaign — the one subsystem that fans out
 *    over the thread pool — returns byte-identical cells for 1 worker
 *    and 8 workers, because all of its randomness is keyed on
 *    (seed, job, site), never on scheduling order;
 *  - the campaign's site engine returns the cells the hooked cycle
 *    walks (GANACC_ENGINE=walk) return, byte for byte.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "fault/campaign.hh"
#include "fault/fault_plan.hh"
#include "gan/models.hh"
#include "gan/trainer.hh"
#include "nn/optimizer.hh"
#include "sim/closed_form.hh"
#include "tensor/tensor.hh"
#include "util/random.hh"

namespace {

using namespace ganacc;

/** A deliberately small GAN so whole-training runs cost milliseconds. */
gan::GanModel
tinyModel()
{
    gan::LayerSpec l0;
    l0.kind = nn::ConvKind::Strided;
    l0.act = nn::Activation::LeakyReLU;
    l0.inChannels = 1;
    l0.outChannels = 4;
    l0.inH = l0.inW = 8;
    l0.geom = nn::Conv2dGeom{4, 2, 1, 0};

    gan::LayerSpec head;
    head.kind = nn::ConvKind::Strided;
    head.act = nn::Activation::None;
    head.inChannels = 4;
    head.outChannels = 1;
    head.inH = head.inW = 4;
    head.geom = nn::Conv2dGeom{4, 1, 0, 0};

    return gan::makeModel("tiny", {l0, head}, 8);
}

/** Everything one training run determines, flattened for comparison. */
struct TrainingTrace
{
    std::vector<double> losses;  ///< disc, gen per iteration
    std::vector<float> weights;  ///< all parameters, stable order
};

TrainingTrace
runTraining(std::uint64_t seed, int iterations)
{
    const gan::GanModel model = tinyModel();
    gan::Trainer trainer(model, seed, gan::SyncMode::Deferred);
    nn::Sgd d_opt(0.01f), g_opt(0.01f);
    util::Rng rng(seed * 31 + 7);

    TrainingTrace trace;
    const tensor::Shape4 img = model.imageShape();
    for (int it = 0; it < iterations; ++it) {
        tensor::Tensor real(img.d0, img.d1, img.d2, img.d3);
        real.fillUniform(rng, -1.0f, 1.0f);
        const gan::IterationLosses losses =
            trainer.trainIteration(real, d_opt, g_opt, rng);
        trace.losses.push_back(losses.discLoss);
        trace.losses.push_back(losses.genLoss);
    }
    trainer.forEachParameterTensor([&](tensor::Tensor &t) {
        trace.weights.insert(trace.weights.end(), t.data(),
                             t.data() + t.numel());
    });
    return trace;
}

void
expectTracesBitIdentical(const TrainingTrace &a, const TrainingTrace &b,
                         const std::string &context)
{
    ASSERT_EQ(a.losses.size(), b.losses.size()) << context;
    ASSERT_EQ(a.weights.size(), b.weights.size()) << context;
    EXPECT_EQ(0, std::memcmp(a.losses.data(), b.losses.data(),
                             a.losses.size() * sizeof(double)))
        << context << ": loss trajectories diverge";
    EXPECT_EQ(0, std::memcmp(a.weights.data(), b.weights.data(),
                             a.weights.size() * sizeof(float)))
        << context << ": final weights diverge";
}

/** RAII override of GANACC_JOBS, restoring the previous value. */
class JobsEnv
{
  public:
    explicit JobsEnv(const char *value)
    {
        const char *old = std::getenv("GANACC_JOBS");
        hadOld_ = old != nullptr;
        if (hadOld_)
            old_ = old;
        setenv("GANACC_JOBS", value, 1);
    }

    ~JobsEnv()
    {
        if (hadOld_)
            setenv("GANACC_JOBS", old_.c_str(), 1);
        else
            unsetenv("GANACC_JOBS");
    }

  private:
    bool hadOld_ = false;
    std::string old_;
};

TEST(Determinism, TrainerBitIdenticalAcrossReps)
{
    const TrainingTrace first = runTraining(0xAB12, 4);
    const TrainingTrace second = runTraining(0xAB12, 4);
    expectTracesBitIdentical(first, second, "same-seed reps");

    // And a different seed must actually change something, or the
    // comparison above proves nothing.
    const TrainingTrace other = runTraining(0xAB13, 4);
    EXPECT_NE(0, std::memcmp(first.weights.data(), other.weights.data(),
                             first.weights.size() * sizeof(float)));
}

TEST(Determinism, TrainerImmuneToJobsEnv)
{
    TrainingTrace narrow, wide;
    {
        JobsEnv env("1");
        narrow = runTraining(0xCD34, 4);
    }
    {
        JobsEnv env("8");
        wide = runTraining(0xCD34, 4);
    }
    expectTracesBitIdentical(narrow, wide,
                             "GANACC_JOBS=1 vs GANACC_JOBS=8");
}

void
expectCampaignsBitIdentical(const fault::CampaignResult &a,
                            const fault::CampaignResult &b)
{
    ASSERT_EQ(a.cells.size(), b.cells.size());
    for (std::size_t i = 0; i < a.cells.size(); ++i) {
        const fault::CellResult &x = a.cells[i];
        const fault::CellResult &y = b.cells[i];
        EXPECT_EQ(x.arch, y.arch);
        EXPECT_EQ(x.row, y.row);
        EXPECT_EQ(x.mac.armed, y.mac.armed) << x.row << " " << x.arch;
        EXPECT_EQ(x.mac.fired, y.mac.fired) << x.row << " " << x.arch;
        EXPECT_EQ(x.mac.macsObserved, y.mac.macsObserved);
        EXPECT_EQ(x.mac.peHits, y.mac.peHits);
        EXPECT_EQ(x.memFlips, y.memFlips) << x.row << " " << x.arch;
        // Bit-identical, not approximately equal: the campaign
        // promises byte-reproducibility under any worker count.
        EXPECT_EQ(x.outputRmse, y.outputRmse) << x.row << " " << x.arch;
        EXPECT_EQ(x.memRmse, y.memRmse) << x.row << " " << x.arch;
    }
}

TEST(Determinism, FaultCampaignIdenticalUnderAnyWorkerCount)
{
    const gan::GanModel model = tinyModel();
    fault::FaultPlan plan;
    plan.seed = 99;
    plan.transient.sitesPerJob = 64;
    plan.memory.flipProbPerAccess = 1e-4;

    fault::CampaignOptions serial;
    serial.jobs = 1;
    fault::CampaignOptions parallel = serial;
    parallel.jobs = 8;

    const fault::CampaignResult a =
        fault::runResilienceCampaign(model, plan, serial);
    const fault::CampaignResult b =
        fault::runResilienceCampaign(model, plan, parallel);
    expectCampaignsBitIdentical(a, b);

    // The matrix must actually have injected something, or the parity
    // holds vacuously.
    std::uint64_t armed = 0;
    for (const auto &cell : a.cells)
        armed += cell.mac.armed;
    EXPECT_GT(armed, 0u);
}

/** The campaign under the hooked walks and under the site engine. */
void
expectSiteEngineMatchesWalk(const gan::GanModel &model,
                            const fault::FaultPlan &plan)
{
    fault::CampaignOptions opt;
    opt.dataSeed = plan.seed;
    fault::CampaignResult walk, site;
    {
        sim::ScopedSimEngine engine(sim::SimEngine::Walk);
        walk = fault::runResilienceCampaign(model, plan, opt);
    }
    {
        sim::ScopedSimEngine engine(sim::SimEngine::Auto);
        site = fault::runResilienceCampaign(model, plan, opt);
    }
    SCOPED_TRACE(plan.describe());
    expectCampaignsBitIdentical(walk, site);
}

TEST(Determinism, FaultCampaignSiteEngineMatchesWalkOnMnistGan)
{
    fault::FaultPlan plan;
    plan.seed = 1;
    plan.transient.sitesPerJob = 64;
    expectSiteEngineMatchesWalk(gan::makeMnistGan(), plan);

    plan.seed = 7;
    plan.transient.bits = 2;
    plan.memory.flipProbPerAccess = 1e-6;
    expectSiteEngineMatchesWalk(gan::makeMnistGan(), plan);
}

TEST(Determinism, FaultCampaignSiteEngineMatchesWalkOnTinyModel)
{
    // Transients with storage flips, saturating site counts, storage
    // flips alone (the hook then skips ineffectual slots), nothing.
    fault::FaultPlan plan;
    plan.seed = 99;
    plan.transient.sitesPerJob = 64;
    plan.memory.flipProbPerAccess = 1e-4;
    expectSiteEngineMatchesWalk(tinyModel(), plan);

    plan.transient.sitesPerJob = 1 << 20;
    plan.transient.bits = 3;
    expectSiteEngineMatchesWalk(tinyModel(), plan);

    plan.transient.sitesPerJob = 0;
    expectSiteEngineMatchesWalk(tinyModel(), plan);

    expectSiteEngineMatchesWalk(tinyModel(), fault::FaultPlan());
}

} // namespace
