/**
 * @file
 * TCP transport + protocol-extension tests: a loopback daemon must
 * answer bit-identically to direct simulation, survive the whole
 * pinned malformed-frame table on one connection, expose its fleet
 * topology through the {"fleet":true} probe (and refuse it when not
 * part of a fleet), accept `put` write-through, and the client's
 * connect retry must ride out a daemon that binds late. The shared
 * line reader must frame a multi-megabyte line, and the listener must
 * release each closed connection's thread.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "conform/ops.hh"
#include "core/unrolling.hh"
#include "fleet/topology.hh"
#include "gan/models.hh"
#include "serve/client.hh"
#include "serve/daemon.hh"
#include "serve/engine.hh"
#include "serve/protocol.hh"
#include "serve/socket_io.hh"
#include "sim/closed_form.hh"
#include "sim/json.hh"
#include "sim/phase.hh"
#include "util/logging.hh"

namespace {

using namespace ganacc;
namespace fs = std::filesystem;

std::string
scratchDir(const char *tag)
{
    return (fs::temp_directory_path() /
            ("ganacc-tcp-test-" + std::to_string(::getpid()) + "-" +
             tag))
        .string();
}

/** One loopback TCP daemon on an ephemeral port, its own cache. */
class TcpDaemon
{
  public:
    explicit TcpDaemon(serve::EngineOptions eo)
    {
        eo.ownCache = true;
        engine_ = std::make_unique<serve::Engine>(eo);
        const int listener = serve::listenTcp("127.0.0.1:0", &bound_);
        thread_ = std::thread([this, listener] {
            serve::serveListener(listener, *engine_, stop_);
        });
    }

    ~TcpDaemon()
    {
        stop_.store(true);
        thread_.join();
    }

    const std::string &address() const { return bound_; }

  private:
    std::string bound_;
    std::unique_ptr<serve::Engine> engine_;
    std::thread thread_;
    std::atomic<bool> stop_{false};
};

/** VmSize of this process in KiB, from /proc/self/status. */
std::int64_t
vmSizeKib()
{
    std::ifstream status("/proc/self/status");
    std::string key;
    while (status >> key) {
        if (key == "VmSize:") {
            std::int64_t kib = 0;
            status >> kib;
            return kib;
        }
        std::getline(status, key);
    }
    return 0;
}

serve::Request
specRequest(std::uint64_t id, core::ArchKind kind,
            const sim::Unroll &u, const sim::ConvSpec &spec)
{
    serve::Request req;
    req.id = id;
    req.kind = kind;
    req.unroll = u;
    req.hasSpec = true;
    req.spec = spec;
    return req;
}

TEST(ServeTcp, AddressClassifierSplitsTcpFromUnixPaths)
{
    EXPECT_TRUE(serve::isTcpAddress("127.0.0.1:7741"));
    EXPECT_TRUE(serve::isTcpAddress("localhost:80"));
    EXPECT_TRUE(serve::isTcpAddress(":7741"));
    EXPECT_FALSE(serve::isTcpAddress("/tmp/ganacc.sock"));
    EXPECT_FALSE(serve::isTcpAddress("ganacc.sock"));
    EXPECT_FALSE(serve::isTcpAddress("./relative:odd/path"));
}

TEST(ServeTcp, LoopbackDaemonServesBitIdenticalStats)
{
    serve::EngineOptions eo;
    eo.jobs = 2;
    eo.deterministic = true;
    TcpDaemon daemon(eo);

    serve::Client client;
    client.connect(daemon.address());

    const gan::GanModel model = gan::makeMnistGan();
    const sim::Unroll u = core::paperUnroll(
        core::ArchKind::NLR, core::BankRole::ST, sim::PhaseFamily::D,
        1200);
    std::uint64_t id = 1;
    for (const auto &job :
         sim::familyJobs(model, sim::PhaseFamily::D)) {
        const serve::Response rsp = client.roundTrip(
            specRequest(id, core::ArchKind::NLR, u, job));
        ASSERT_TRUE(rsp.ok) << rsp.error;
        EXPECT_EQ(rsp.id, id);
        const sim::RunStats direct =
            core::makeArch(core::ArchKind::NLR, u)->run(job);
        EXPECT_EQ(sim::toJson(rsp.stats), sim::toJson(direct));
        ++id;
    }
}

TEST(ServeTcp, OneConnectionSurvivesTheWholeMalformedTable)
{
    serve::EngineOptions eo;
    eo.jobs = 1;
    eo.deterministic = true;
    TcpDaemon daemon(eo);

    serve::Client client;
    client.connect(daemon.address());
    for (const conform::MalformedFrame &frame :
         conform::malformedFrames()) {
        const std::vector<std::string> out =
            serve::replayLines(client, {frame.line});
        ASSERT_EQ(out.size(), 1u) << frame.name;
        const serve::Response rsp = serve::decodeResponse(out[0]);
        EXPECT_FALSE(rsp.ok) << frame.name;
        EXPECT_EQ(rsp.error, frame.error) << frame.name;
    }
    // The connection is still healthy: a probe round-trips.
    serve::Request probe;
    probe.id = 1;
    probe.statsProbe = true;
    const serve::Response rsp = client.roundTrip(probe);
    EXPECT_TRUE(rsp.ok) << rsp.error;
}

TEST(ServeTcp, FleetProbeAnswersTheConfiguredTopology)
{
    fleet::Topology topo;
    topo.shards = {"127.0.0.1:7741", "127.0.0.1:7742",
                   "127.0.0.1:7743"};
    topo.rf = 2;
    topo.self = 2;

    serve::EngineOptions eo;
    eo.jobs = 1;
    eo.deterministic = true;
    eo.fleetJson = fleet::toJson(topo);
    TcpDaemon daemon(eo);

    serve::Client client;
    client.connect(daemon.address());
    serve::Request probe;
    probe.id = 7;
    probe.fleetProbe = true;
    const serve::Response rsp = client.roundTrip(probe);
    ASSERT_TRUE(rsp.ok) << rsp.error;
    EXPECT_EQ(rsp.fleet, fleet::toJson(topo));
    const fleet::Topology back = fleet::topologyFromJson(rsp.fleet);
    EXPECT_EQ(back.shards, topo.shards);
    EXPECT_EQ(back.self, 2);
}

TEST(ServeTcp, FleetProbeOnALoneDaemonIsAPinnedError)
{
    serve::EngineOptions eo;
    eo.jobs = 1;
    eo.deterministic = true;
    TcpDaemon daemon(eo);

    serve::Client client;
    client.connect(daemon.address());
    serve::Request probe;
    probe.id = 3;
    probe.fleetProbe = true;
    const serve::Response rsp = client.roundTrip(probe);
    EXPECT_FALSE(rsp.ok);
    EXPECT_EQ(rsp.error, "daemon is not part of a fleet");
}

TEST(ServeTcp, PutWritesThroughAndTheNextRequestServesFromMemory)
{
    const std::string store = scratchDir("put");
    fs::remove_all(store);
    serve::EngineOptions eo;
    eo.jobs = 1;
    eo.deterministic = true;
    eo.cacheDir = store;
    TcpDaemon daemon(eo);

    serve::Client client;
    client.connect(daemon.address());

    const gan::GanModel model = gan::makeMnistGan();
    const sim::Unroll u = core::paperUnroll(
        core::ArchKind::NLR, core::BankRole::ST, sim::PhaseFamily::D,
        1200);
    const sim::ConvSpec job =
        sim::familyJobs(model, sim::PhaseFamily::D).front();
    const sim::RunStats direct =
        core::makeArch(core::ArchKind::NLR, u)->run(job);

    serve::Request put;
    put.id = 1;
    put.kind = core::ArchKind::NLR;
    put.unroll = u;
    put.spec = job;
    put.put = true;
    put.putStats = direct;
    put.putSimVersion = serve::simulatorVersion();
    const serve::Response ack = client.roundTrip(put);
    ASSERT_TRUE(ack.ok) << ack.error;
    EXPECT_EQ(ack.cache, "put");
    EXPECT_EQ(sim::toJson(ack.stats), sim::toJson(direct));

    // The entry landed on disk at the content-key fan-out path…
    const std::string key =
        serve::contentKey(core::ArchKind::NLR, u, job);
    EXPECT_TRUE(fs::exists(store + "/" + key.substr(0, 2) + "/" +
                           key + ".json"));

    // …and the daemon now serves the triple from memory, no sim run.
    const serve::Response got =
        client.roundTrip(specRequest(2, core::ArchKind::NLR, u, job));
    ASSERT_TRUE(got.ok) << got.error;
    EXPECT_EQ(got.cache, "mem");
    EXPECT_EQ(sim::toJson(got.stats), sim::toJson(direct));
    fs::remove_all(store);
}

TEST(ServeTcp, PutWithAForeignSimVersionIsRefused)
{
    serve::EngineOptions eo;
    eo.jobs = 1;
    eo.deterministic = true;
    TcpDaemon daemon(eo);

    serve::Client client;
    client.connect(daemon.address());

    const gan::GanModel model = gan::makeMnistGan();
    const sim::Unroll u = core::paperUnroll(
        core::ArchKind::NLR, core::BankRole::ST, sim::PhaseFamily::D,
        1200);
    const sim::ConvSpec job =
        sim::familyJobs(model, sim::PhaseFamily::D).front();

    serve::Request put;
    put.id = 1;
    put.kind = core::ArchKind::NLR;
    put.unroll = u;
    put.spec = job;
    put.put = true;
    put.putStats = core::makeArch(core::ArchKind::NLR, u)->run(job);
    put.putSimVersion = "sim-v0-foreign";
    const serve::Response rsp = client.roundTrip(put);
    EXPECT_FALSE(rsp.ok);
    EXPECT_EQ(rsp.error,
              "fatal: put carries simulator version "
              "\"sim-v0-foreign\", this daemon runs \"" +
                  serve::simulatorVersion() + "\"");
}

/** Satellite: connect retry against a daemon that binds late. */
TEST(ServeTcp, ConnectRetryRidesOutALateBindingDaemon)
{
    const std::string sock = scratchDir("late") + ".sock";
    fs::remove(sock);

    serve::EngineOptions eo;
    eo.jobs = 1;
    eo.deterministic = true;
    eo.ownCache = true;
    serve::Engine engine(eo);
    std::atomic<bool> stop{false};

    // The daemon binds ~100ms after the client starts dialing.
    std::thread daemon([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        serve::runSocketServer(sock, engine, stop);
    });

    serve::ConnectOptions copt;
    copt.retries = 50;
    copt.backoffMs = 5;
    serve::Client client;
    client.connect(sock, copt); // throws if the retry loop gives up

    serve::Request probe;
    probe.id = 1;
    probe.statsProbe = true;
    const serve::Response rsp = client.roundTrip(probe);
    EXPECT_TRUE(rsp.ok) << rsp.error;

    client.close();
    stop.store(true);
    daemon.join();
    fs::remove(sock);
}

TEST(ServeTcp, ZeroRetriesOnAMissingEndpointFailsFast)
{
    serve::ConnectOptions copt;
    copt.retries = 0;
    serve::Client client;
    EXPECT_THROW(client.connect(scratchDir("nope") + ".sock", copt),
                 util::FatalError);
}

TEST(ServeTcp, LineReaderFramesAMultiMegabyteLine)
{
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    std::string big(std::size_t(4) << 20, 'x');
    for (std::size_t i = 0; i < big.size(); i += 4093)
        big[i] = char('a' + i % 26);
    std::thread writer([&] {
        EXPECT_TRUE(serve::sendAll(sv[1], big + "\nshort\ntail"));
        ::close(sv[1]);
    });

    using Status = serve::LineReader::Status;
    serve::LineReader reader(sv[0]);
    std::string line;
    ASSERT_EQ(reader.next(line), Status::Line);
    EXPECT_TRUE(line == big) << "got " << line.size() << " bytes";
    ASSERT_EQ(reader.next(line), Status::Line);
    EXPECT_EQ(line, "short");
    // The unterminated tail is left for the daemon's EOF policy.
    EXPECT_EQ(reader.next(line), Status::Eof);
    ASSERT_TRUE(reader.takeRest(line));
    EXPECT_EQ(line, "tail");
    EXPECT_FALSE(reader.takeRest(line));

    writer.join();
    ::close(sv[0]);
}

/** One pipelined line of the ordering test and the answer it must
 *  get back. */
struct OrderedLine
{
    std::string line;
    std::uint64_t id = 0;
    std::string error; ///< exact error text; empty = must be ok
    bool probe = false; ///< a stats probe: ok with a telemetry payload
    bool put = false;   ///< a put: acknowledged, not simulated
    std::string stats;  ///< the direct run's RunStats JSON
};

/** The id a daemon salvages from a line that does not decode: the
 *  malformed frames carry it as literal "id":NNN text, or not at all. */
std::uint64_t
literalId(const std::string &line)
{
    std::uint64_t id = 0;
    const auto at = line.find("\"id\":");
    if (at != std::string::npos)
        for (std::size_t p = at + 5;
             p < line.size() && line[p] >= '0' && line[p] <= '9'; ++p)
            id = id * 10 + std::uint64_t(line[p] - '0');
    return id;
}

/** Spec, model/family, put, stats-probe and malformed lines,
 *  interleaved, each with the answer a direct run predicts. */
std::vector<OrderedLine>
orderedMix()
{
    const gan::GanModel model = gan::makeMnistGan();
    const std::vector<conform::MalformedFrame> &frames =
        conform::malformedFrames();
    std::vector<OrderedLine> mix;
    std::uint64_t id = 1000;
    std::size_t frame = 0;
    const auto direct = [](core::ArchKind kind, const sim::Unroll &u,
                           const sim::ConvSpec &spec) {
        return core::makeArch(kind, u)->run(spec);
    };
    for (const sim::PhaseFamily family :
         {sim::PhaseFamily::D, sim::PhaseFamily::G, sim::PhaseFamily::Dw,
          sim::PhaseFamily::Gw}) {
        const core::BankRole role = family == sim::PhaseFamily::Dw ||
                                            family == sim::PhaseFamily::Gw
                                        ? core::BankRole::W
                                        : core::BankRole::ST;
        const std::string familyName = sim::phaseFamilyName(family);
        for (const core::ArchKind kind :
             {core::ArchKind::NLR, core::ArchKind::WST,
              core::ArchKind::OST, core::ArchKind::ZFOST,
              core::ArchKind::ZFWST}) {
            const sim::Unroll u =
                core::paperUnroll(kind, role, family, 480);
            sim::RunStats total;
            for (const sim::ConvSpec &job :
                 sim::familyJobs(model, family)) {
                const sim::RunStats st = direct(kind, u, job);
                total += st;
                OrderedLine spec;
                spec.id = ++id;
                spec.line = serve::encodeRequest(
                    specRequest(spec.id, kind, u, job));
                spec.stats = sim::toJson(st);
                mix.push_back(spec);

                // A put of a neighbouring unrolling: pooled on every
                // engine, so it splits the inline runs.
                serve::Request put = specRequest(++id, kind, u, job);
                put.unroll.pOf += 1;
                put.put = true;
                put.putStats = direct(kind, put.unroll, job);
                put.putSimVersion = serve::simulatorVersion();
                OrderedLine ack;
                ack.id = id;
                ack.line = serve::encodeRequest(put);
                ack.put = true;
                ack.stats = sim::toJson(put.putStats);
                mix.push_back(ack);

                const conform::MalformedFrame &f =
                    frames[frame++ % frames.size()];
                OrderedLine bad;
                bad.line = f.line;
                bad.error = f.error;
                bad.id = literalId(f.line);
                mix.push_back(bad);
            }
            serve::Request net;
            net.id = ++id;
            net.kind = kind;
            net.unroll = u;
            net.model = "mnist-gan";
            net.family = familyName;
            OrderedLine familyLine;
            familyLine.id = id;
            familyLine.line = serve::encodeRequest(net);
            familyLine.stats = sim::toJson(total);
            mix.push_back(familyLine);

            // A request that decodes but fails in the engine.
            net.id = ++id;
            net.model = "no-such-model";
            OrderedLine unknown;
            unknown.id = id;
            unknown.line = serve::encodeRequest(net);
            unknown.error = "fatal: unknown model \"no-such-model\" "
                            "(dcgan, mnist-gan, cgan, context-encoder)";
            mix.push_back(unknown);

            serve::Request probe;
            probe.id = ++id;
            probe.statsProbe = true;
            OrderedLine stats;
            stats.id = id;
            stats.line = serve::encodeRequest(probe);
            stats.probe = true;
            mix.push_back(stats);
        }
    }
    return mix;
}

/** Pipeline every line of `mix` down one connection (a sender thread,
 *  so neither side waits on the other's socket buffer) and check each
 *  answer, in order. */
void
expectOrderedAnswers(const std::vector<OrderedLine> &mix,
                     const std::string &cacheDir = std::string())
{
    serve::EngineOptions eo;
    eo.jobs = 2;
    eo.deterministic = true;
    eo.cacheDir = cacheDir;
    TcpDaemon daemon(eo);
    serve::Client client;
    client.connect(daemon.address());
    std::thread sender([&] {
        for (const OrderedLine &l : mix)
            client.sendLine(l.line);
    });
    // Every response is read even after a mismatch, so the sender
    // always finishes and joins.
    for (std::size_t i = 0; i < mix.size(); ++i) {
        const OrderedLine &want = mix[i];
        const serve::Response rsp = client.recvResponse();
        if (rsp.id != want.id) {
            ADD_FAILURE() << "line " << i << " out of order: id "
                          << rsp.id << ", want " << want.id;
            continue;
        }
        if (!want.error.empty()) {
            EXPECT_FALSE(rsp.ok) << "line " << i;
            EXPECT_EQ(rsp.error, want.error) << "line " << i;
            continue;
        }
        if (!rsp.ok) {
            ADD_FAILURE() << "line " << i << ": " << rsp.error;
            continue;
        }
        if (want.probe) {
            EXPECT_FALSE(rsp.telemetry.empty()) << "line " << i;
            continue;
        }
        // A repeated layer shape repeats its put, which may coalesce
        // into the identical put still in flight.
        if (want.put) {
            EXPECT_TRUE(rsp.cache == "put" || rsp.cache == "dup")
                << "line " << i << ": " << rsp.cache;
        }
        EXPECT_EQ(sim::toJson(rsp.stats), want.stats) << "line " << i;
    }
    sender.join();
}

TEST(ServeTcp, InlineAndPooledAnswersKeepRequestOrder)
{
    const std::vector<OrderedLine> mix = orderedMix();
    ASSERT_GT(mix.size(), 64u) << "must overrun the stream's window";
    // Closed form: spec, model/family, probe and malformed lines are
    // answered on the reader thread between the pooled puts.
    expectOrderedAnswers(mix);
    // A persistent tier: its misses and the model/family lines take
    // the pool too, repeated layer shapes that memory holds do not.
    const std::string store = scratchDir("order");
    fs::remove_all(store);
    expectOrderedAnswers(mix, store);
    fs::remove_all(store);
    // Walk: every request takes the pool.
    const sim::ScopedSimEngine walk(sim::SimEngine::Walk);
    expectOrderedAnswers(mix);
}

TEST(ServeTcp, ClosedConnectionsReleaseTheirThreads)
{
    serve::EngineOptions eo;
    eo.jobs = 1;
    eo.deterministic = true;
    TcpDaemon daemon(eo);

    serve::Request probe;
    probe.id = 1;
    probe.statsProbe = true;
    const auto oneConnection = [&] {
        serve::Client client;
        client.connect(daemon.address());
        const serve::Response rsp = client.roundTrip(probe);
        EXPECT_TRUE(rsp.ok) << rsp.error;
    };
    // Warm up first: the engine, and the allocator's per-thread arenas
    // (64 MiB of address space each), which later threads reuse.
    for (int i = 0; i < 16; ++i)
        oneConnection();
    const std::int64_t before = vmSizeKib();
    ASSERT_GT(before, 0);
    for (int i = 0; i < 64; ++i)
        oneConnection();
    // An unjoined thread keeps its whole stack (8 MiB by default)
    // mapped; a few still finishing, or cached for reuse, stay well
    // under the bound.
    EXPECT_LT(vmSizeKib() - before, std::int64_t(64) * 4 * 1024);
}

} // namespace
