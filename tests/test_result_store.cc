/**
 * @file
 * Persistent result-store tests: round-trips, version-stamp
 * self-invalidation (an entry written by an older simulator reads as
 * a miss and is overwritten), corrupt-entry quarantine, atomicity
 * under concurrent writers.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/cycle_cache.hh"
#include "core/unrolling.hh"
#include "gan/models.hh"
#include "serve/result_store.hh"
#include "sim/json.hh"
#include "sim/phase.hh"

namespace {

using namespace ganacc;
namespace fs = std::filesystem;

/** Fresh scratch directory per test (removed on fixture teardown). */
class ResultStoreTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = (fs::temp_directory_path() /
                ("ganacc-store-test-" + std::to_string(::getpid()) +
                 "-" +
                 ::testing::UnitTest::GetInstance()
                     ->current_test_info()
                     ->name()))
                   .string();
        fs::remove_all(dir_);
    }

    void
    TearDown() override
    {
        fs::remove_all(dir_);
    }

    std::string dir_;
};

/** A real job so the cached stats are honest simulator output. */
sim::ConvSpec
sampleSpec(std::size_t i = 0)
{
    const auto jobs =
        sim::familyJobs(gan::makeMnistGan(), sim::PhaseFamily::D);
    return jobs[i % jobs.size()];
}

TEST_F(ResultStoreTest, RoundTripAndCounters)
{
    serve::ResultStore store(dir_);
    const core::ArchKind kind = core::ArchKind::ZFOST;
    const sim::Unroll u = core::paperUnroll(
        kind, core::BankRole::ST, sim::PhaseFamily::D, 1200);
    const sim::ConvSpec spec = sampleSpec();

    EXPECT_FALSE(store.load(kind, u, spec).has_value());
    EXPECT_EQ(store.counters().misses, 1u);

    const sim::RunStats st = core::simulate(kind, u, spec);
    store.store(kind, u, spec, st);
    EXPECT_EQ(store.counters().writes, 1u);
    EXPECT_EQ(store.entryCount(), 1u);

    const auto back = store.load(kind, u, spec);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(sim::toJson(*back), sim::toJson(st));
    EXPECT_EQ(store.counters().hits, 1u);

    // The label names, it does not shape: a relabeled probe hits.
    sim::ConvSpec relabeled = spec;
    relabeled.label = "same shape, different name";
    EXPECT_TRUE(store.load(kind, u, relabeled).has_value());

    // A different unrolling is a different simulation.
    sim::Unroll u2 = u;
    u2.pOf += 1;
    EXPECT_FALSE(store.load(kind, u2, spec).has_value());

    // storeStats() is the same snapshot the telemetry collector and
    // the stats probe read; it must agree with counters() exactly.
    const serve::StoreCounters snap = store.storeStats();
    EXPECT_EQ(snap.hits, store.counters().hits);
    EXPECT_EQ(snap.misses, store.counters().misses);
    EXPECT_EQ(snap.writes, store.counters().writes);
    EXPECT_EQ(snap.staleMisses, store.counters().staleMisses);
    EXPECT_EQ(snap.corruptMisses, store.counters().corruptMisses);
    EXPECT_EQ(snap.hits, 2u);
    EXPECT_EQ(snap.misses, 2u);
    EXPECT_EQ(snap.writes, 1u);
}

TEST_F(ResultStoreTest, StaleVersionReadsAsMissAndIsOverwritten)
{
    const core::ArchKind kind = core::ArchKind::OST;
    const sim::Unroll u = core::paperUnroll(
        kind, core::BankRole::ST, sim::PhaseFamily::G, 1200);
    const sim::ConvSpec spec = sampleSpec(1);
    const sim::RunStats st = core::simulate(kind, u, spec);

    // An older simulator wrote this entry...
    {
        serve::ResultStore old_store(dir_, "ganacc-0.9.0+cycles0");
        old_store.store(kind, u, spec, st);
    }
    // ...so the current one must refuse to serve it. Note the content
    // key includes the version: the stale entry lives at a different
    // address, so this is a plain miss either way — and the stamp
    // check also rejects a manually copied entry (covered next).
    serve::ResultStore store(dir_);
    EXPECT_FALSE(store.load(kind, u, spec).has_value());

    // Copy the stale entry to the current address: now only the
    // embedded stamp protects us.
    {
        serve::ResultStore old_store(dir_, "ganacc-0.9.0+cycles0");
        const std::string stale_path =
            old_store.entryPath(kind, u, spec);
        const std::string live_path = store.entryPath(kind, u, spec);
        fs::create_directories(fs::path(live_path).parent_path());
        fs::copy_file(stale_path, live_path,
                      fs::copy_options::overwrite_existing);
    }
    EXPECT_FALSE(store.load(kind, u, spec).has_value());
    EXPECT_GE(store.counters().staleMisses, 1u);

    // Write-through repairs it for good.
    store.store(kind, u, spec, st);
    const auto back = store.load(kind, u, spec);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(sim::toJson(*back), sim::toJson(st));
}

TEST_F(ResultStoreTest, CorruptEntryIsQuarantined)
{
    serve::ResultStore store(dir_);
    const core::ArchKind kind = core::ArchKind::ZFWST;
    const sim::Unroll u = core::paperUnroll(
        kind, core::BankRole::W, sim::PhaseFamily::Dw, 480);
    const sim::ConvSpec spec = sampleSpec(2);
    store.store(kind, u, spec, core::simulate(kind, u, spec));

    // Truncate the entry mid-object, as a torn pre-atomic writer
    // would have left it.
    const std::string path = store.entryPath(kind, u, spec);
    {
        std::ofstream os(path, std::ios::trunc);
        os << "{\"version\":\"gan";
    }
    EXPECT_FALSE(store.load(kind, u, spec).has_value());
    EXPECT_EQ(store.counters().corruptMisses, 1u);
    EXPECT_FALSE(fs::exists(path));
    EXPECT_TRUE(fs::exists(path + ".quarantined"))
        << "corrupt entries must be kept for post-mortem";

    // The address is usable again immediately.
    store.store(kind, u, spec, core::simulate(kind, u, spec));
    EXPECT_TRUE(store.load(kind, u, spec).has_value());
}

TEST_F(ResultStoreTest, ZeroByteEntryIsQuarantined)
{
    // Regression: a crash between open and the first write (or an
    // interrupted copy) leaves a zero-byte file at the live address.
    // It must be treated exactly like any other corrupt entry —
    // counted, quarantined out of the way, address reusable — not
    // looped over as a parse error forever.
    serve::ResultStore store(dir_);
    const core::ArchKind kind = core::ArchKind::NLR;
    const sim::Unroll u = core::paperUnroll(
        kind, core::BankRole::ST, sim::PhaseFamily::D, 1200);
    const sim::ConvSpec spec = sampleSpec(3);

    const std::string path = store.entryPath(kind, u, spec);
    fs::create_directories(fs::path(path).parent_path());
    { std::ofstream os(path, std::ios::trunc); }
    ASSERT_TRUE(fs::exists(path));
    ASSERT_EQ(fs::file_size(path), 0u);

    EXPECT_FALSE(store.load(kind, u, spec).has_value());
    EXPECT_EQ(store.counters().corruptMisses, 1u);
    EXPECT_EQ(store.counters().misses, 0u)
        << "a present-but-empty entry is corruption, not absence";
    EXPECT_FALSE(fs::exists(path));
    EXPECT_TRUE(fs::exists(path + ".quarantined"));

    // A second probe is a clean miss, and write-through repairs it.
    EXPECT_FALSE(store.load(kind, u, spec).has_value());
    EXPECT_EQ(store.counters().misses, 1u);
    store.store(kind, u, spec, core::simulate(kind, u, spec));
    const auto back = store.load(kind, u, spec);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(sim::toJson(*back),
              sim::toJson(core::simulate(kind, u, spec)));
}

TEST_F(ResultStoreTest, ConcurrentWritersAgree)
{
    const core::ArchKind kind = core::ArchKind::ZFOST;
    const sim::Unroll u = core::paperUnroll(
        kind, core::BankRole::ST, sim::PhaseFamily::D, 1200);
    const sim::ConvSpec spec = sampleSpec();
    const sim::RunStats st = core::simulate(kind, u, spec);
    const std::string want = sim::toJson(st);

    // Many threads, each its own store handle (as separate processes
    // would have), all writing and reading the same key.
    std::vector<std::thread> threads;
    std::atomic<int> mismatches{0};
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&] {
            serve::ResultStore store(dir_);
            for (int i = 0; i < 25; ++i) {
                store.store(kind, u, spec, st);
                const auto got = store.load(kind, u, spec);
                if (!got || sim::toJson(*got) != want)
                    mismatches.fetch_add(1);
            }
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(mismatches.load(), 0)
        << "readers must only ever observe complete entries";

    serve::ResultStore store(dir_);
    EXPECT_EQ(store.entryCount(), 1u)
        << "no leaked tmp files after racing renames";
    EXPECT_TRUE(store.load(kind, u, spec).has_value());
}

} // namespace
