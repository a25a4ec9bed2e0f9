/**
 * @file
 * Drain-under-load: a socket daemon hit by N pipelining clients takes
 * SIGTERM mid-burst and must still answer every request accepted on a
 * live connection, then leave the result store consistent.
 *
 * The daemon's contract (serve/daemon.hh) is: the signal handler only
 * sets the stop flag; the server stops accepting, serves every live
 * connection until its client closes, then drains the engine. So a
 * client that connected before the signal sees all of its pipelined
 * bursts answered — none dropped, none reordered — no matter when the
 * signal lands relative to its writes.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <filesystem>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "conform/ops.hh"
#include "conform/reference.hh"
#include "core/cycle_cache.hh"
#include "obs/probe.hh"
#include "serve/client.hh"
#include "serve/daemon.hh"
#include "serve/engine.hh"
#include "serve/result_store.hh"
#include "sim/closed_form.hh"
#include "sim/stats_diff.hh"
#include "util/logging.hh"

using namespace ganacc;
namespace fs = std::filesystem;

namespace {

/** The request mix: a few distinct triples shared by every client so
 *  the burst exercises dedupe and every cache tier under load. */
std::vector<serve::Request>
sharedTriples()
{
    conform::GenOptions gopt;
    gopt.ops = 60;
    gopt.fsFaults = false;
    gopt.restarts = false;
    gopt.nets = false;
    std::vector<serve::Request> triples;
    for (const conform::Op &op : conform::generateSequence(3, gopt)) {
        if (op.kind != conform::OpKind::SimRequest)
            continue;
        serve::Request req;
        req.kind = op.arch;
        req.unroll = op.unroll;
        req.spec = op.spec;
        req.hasSpec = true;
        triples.push_back(req);
        if (triples.size() == 6)
            break;
    }
    EXPECT_EQ(6u, triples.size());
    return triples;
}

} // namespace

TEST(ServeDrain, SigtermMidBurstAnswersEveryAcceptedRequest)
{
    const std::string scratch =
        (fs::temp_directory_path() /
     ("ganacc-drain-" + std::to_string(::getpid())))
            .string();
    fs::remove_all(scratch);
    fs::create_directories(scratch);
    const std::string socket = scratch + "/sock";
    const std::string storeDir = scratch + "/store";

    serve::EngineOptions eo;
    eo.cacheDir = storeDir;
    eo.deterministic = true;
    serve::Engine engine(eo);

    std::atomic<bool> stop{false};
    serve::installStopHandlers(stop);
    serve::ServeTotals totals;
    std::thread server([&] {
        totals = serve::runSocketServer(socket, engine, stop);
    });

    const std::vector<serve::Request> triples = sharedTriples();
    constexpr int kClients = 4;
    constexpr int kBursts = 20;
    constexpr int kWindow = 12;

    // Connect every client before the signal: these connections are
    // the "accepted" population the contract covers.
    std::vector<std::unique_ptr<serve::Client>> clients;
    for (int cl = 0; cl < kClients; ++cl) {
        clients.push_back(std::make_unique<serve::Client>());
        for (int attempt = 0;; ++attempt) {
            try {
                clients.back()->connect(socket);
                break;
            } catch (const std::exception &) {
                ASSERT_LT(attempt, 2500) << "daemon never came up";
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(2));
            }
        }
    }

    std::atomic<int> answered{0};
    std::atomic<int> wrong{0};
    std::vector<std::thread> threads;
    for (int cl = 0; cl < kClients; ++cl) {
        threads.emplace_back([&, cl] {
            serve::Client &client = *clients[std::size_t(cl)];
            std::uint64_t next = std::uint64_t(cl) * 1000000 + 1;
            for (int burst = 0; burst < kBursts; ++burst) {
                std::vector<serve::Request> sent;
                for (int i = 0; i < kWindow; ++i) {
                    serve::Request req =
                        triples[std::size_t(burst + i) %
                                triples.size()];
                    req.id = next++;
                    client.sendRequest(req);
                    sent.push_back(req);
                }
                for (const serve::Request &req : sent) {
                    const serve::Response rsp =
                        client.recvResponse();
                    ++answered;
                    if (rsp.id != req.id || !rsp.ok ||
                        !sim::statsEqual(
                            rsp.stats,
                            conform::ReferenceModel::directStats(
                                req.kind, req.unroll, req.spec)))
                        ++wrong;
                }
            }
            client.close();
        });
    }

    // Land the signal while the bursts are in full flight.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_EQ(0, std::raise(SIGTERM));

    for (std::thread &t : threads)
        t.join();
    server.join();

    // Every pipelined request of every accepted connection answered,
    // correctly, despite the mid-burst SIGTERM.
    EXPECT_EQ(kClients * kBursts * kWindow, answered.load());
    EXPECT_EQ(0, wrong.load());
    EXPECT_EQ(totals.lines, totals.responses);
    EXPECT_EQ(std::uint64_t(kClients * kBursts * kWindow),
              totals.lines);
    // A post-signal connection must be refused: the daemon stopped
    // accepting the moment the flag was seen, and the socket file is
    // gone once it returned.
    EXPECT_FALSE(fs::exists(socket));

    // Store consistency after drain: every triple the burst touched
    // has a parseable current-version entry with the exact reference
    // stats (load through a fresh store session).
    serve::ResultStore store(storeDir);
    for (const serve::Request &req : triples) {
        const auto loaded =
            store.load(req.kind, req.unroll, req.spec);
        ASSERT_TRUE(loaded.has_value());
        EXPECT_TRUE(sim::statsEqual(
            *loaded, conform::ReferenceModel::directStats(
                         req.kind, req.unroll, req.spec)));
    }
    const serve::StoreCounters sc = store.counters();
    EXPECT_EQ(0u, sc.staleMisses);
    EXPECT_EQ(0u, sc.corruptMisses);
    fs::remove_all(scratch);
}

namespace {

/** A run probe whose every call blocks until release(): it holds a
 *  request mid-simulation for as long as a test needs. It fires on
 *  the closed-form path too, so it can hold an inline answer. */
class GateProbe : public obs::Probe
{
  public:
    void
    onRun(const obs::RunSample &) override
    {
        std::unique_lock<std::mutex> lk(m_);
        entered_ = true;
        cv_.notify_all();
        cv_.wait(lk, [&] { return open_; });
    }

    void
    waitEntered()
    {
        std::unique_lock<std::mutex> lk(m_);
        cv_.wait(lk, [&] { return entered_; });
    }

    void
    release()
    {
        std::lock_guard<std::mutex> lk(m_);
        open_ = true;
        cv_.notify_all();
    }

  private:
    std::mutex m_;
    std::condition_variable cv_;
    bool entered_ = false;
    bool open_ = false;
};

} // namespace

TEST(ServeDrain, InlineAnswersAreFencedLikePooledOnes)
{
    const std::vector<serve::Request> triples = sharedTriples();
    serve::Request req = triples.front();
    req.id = 11;

    core::CycleCache::instance().clear();
    GateProbe gate;
    obs::setRunProbe(&gate);
    serve::EngineOptions eo;
    eo.jobs = 1;
    eo.deterministic = true;
    serve::Engine engine(eo);

    // An inline answer held mid-simulation is in flight: drain()
    // waits.
    serve::Response rsp;
    std::thread inlineAnswer([&] { rsp = engine.answer(req); });
    gate.waitEntered();
    std::atomic<bool> drained{false};
    std::thread drainer([&] {
        engine.drain();
        drained.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(drained.load())
        << "drain() returned under a running inline answer";
    gate.release();
    inlineAnswer.join();
    drainer.join();
    obs::setRunProbe(nullptr);
    ASSERT_TRUE(rsp.ok) << rsp.error;
    EXPECT_TRUE(sim::statsEqual(
        rsp.stats, conform::ReferenceModel::directStats(
                       req.kind, req.unroll, req.spec)));

    // After drain began, an inline request is refused exactly as a
    // pooled one is.
    serve::Request late = triples.back();
    late.id = 12;
    try {
        engine.answer(late);
        ADD_FAILURE() << "answer() after drain must throw";
    } catch (const util::FatalError &e) {
        EXPECT_STREQ(e.what(), "fatal: engine: submit after drain");
    }
    const std::string line = serve::encodeRequest(late) + "\n";
    const std::string refused =
        "{\"v\":1,\"id\":12,\"ok\":false,"
        "\"error\":\"fatal: engine: submit after drain\"}\n";
    {
        std::istringstream in(line);
        std::ostringstream out;
        serve::runPipeServer(in, out, engine);
        EXPECT_EQ(out.str(), refused) << "inline path";
    }
    {
        const sim::ScopedSimEngine walk(sim::SimEngine::Walk);
        std::istringstream in(line);
        std::ostringstream out;
        serve::runPipeServer(in, out, engine);
        EXPECT_EQ(out.str(), refused) << "pooled path";
    }
}
