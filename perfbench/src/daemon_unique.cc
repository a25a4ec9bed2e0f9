/**
 * @file
 * daemon-unique: one `ganacc-served --tcp` daemon at default options
 * (memory tier only) receives spec requests whose content keys are all
 * distinct, so every request misses the cache and simulates through
 * the closed form. The codec, the engine's queue and pool, and the TCP
 * transport do the work; cache and router stay idle.
 *
 * The run is kSegments segments spread evenly over --seconds. Each
 * opens with an open loop at a fixed rate, every request timed from
 * when it was due, then a closed loop with a 64-deep sliding window —
 * ganacc-client's replay pattern — on a second connection. Spreading
 * both loops over the whole run, and reporting the median segment's
 * latency and the closed loops' rate over all segments, keeps a few
 * seconds of host noise from deciding a run's figures.
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <future>
#include <memory>
#include <thread>

#include "serve/engine.hh"
#include "serve/protocol.hh"
#include "workloads.hh"

namespace perfbench {

using namespace ganacc;

namespace {

/**
 * The open loop's offered load, fixed so a faster daemon shows as
 * lower latency at the same load: about a sixth of the closed-loop
 * capacity (about 35k req/s on a shared 4-vCPU host,
 * Release build). At a half, and still at a quarter, of the capacity,
 * the 2-3x slowdowns of that host saturated the daemon and the
 * latency of a whole run grew without bound.
 */
constexpr double kOpenRate = 5000.0;

constexpr std::size_t kSegments = 10;

/** Share of a segment's time slot the open loop is scheduled over. */
constexpr double kOpenShare = 0.3;

/**
 * The closed loop's fixed work per second of the run, split evenly
 * over the segments: 60,000 requests in a 10 s run. Every request
 * needs a distinct key and a precomputed expected result, so the work
 * is fixed rather than timed.
 */
constexpr double kClosedPerSecond = 6000.0;

constexpr std::size_t kWindow = 64;

/** Daemon pool workers. With the one generator thread, and the
 *  daemon's reader and writer, four threads are busy on four cores. */
constexpr const char *kDaemonJobs = "1";

/** This workload's set-up takes most of a second (generating, checking
 *  and simulating every distinct request), so fewer repetitions. */
constexpr int kSetups = 5;

struct Setup
{
    std::vector<SpecJob> jobs;
    std::vector<std::string> lines;    ///< request i has id i + 1
    std::vector<std::string> expected; ///< canonical stats per request
    std::size_t openPerSegment = 0;
    std::size_t closedPerSegment = 0;
    std::unique_ptr<Daemon> daemon;

    std::size_t perSegment() const
    {
        return openPerSegment + closedPerSegment;
    }
};

Setup
setUp(const Options &o, bool traced)
{
    Setup s;
    s.openPerSegment = std::size_t(
        std::ceil(kOpenRate * o.seconds / double(kSegments) * kOpenShare));
    s.closedPerSegment = std::size_t(
        std::ceil(kClosedPerSecond * o.seconds / double(kSegments)));
    s.jobs = uniqueJobs(o.seed, s.perSegment() * kSegments);
    s.lines = requestLines(s.jobs);
    s.expected = expectedStats(s.jobs, o.nproc);
    std::vector<std::string> args = {"--tcp", "127.0.0.1:0", "--jobs",
                                     kDaemonJobs, "--quiet"};
    if (traced)
        args.insert(args.end(), {"--trace-live", "--trace-sample",
                                 kTraceSample});
    s.daemon = std::make_unique<Daemon>(
        o.served, args, o.outDir + "/daemon-unique.addr",
        o.outDir + "/daemon-unique.log");
    return s;
}

/** One loop of one segment: requests [first, first + n). */
struct Phase
{
    std::size_t first = 0;
    std::vector<Clock::time_point> due, sent, recv;
    std::vector<std::string> responses;
    Clock::time_point start, end;
};

/** A connected TCP socket to `hostport` with Nagle off. */
int
connectTcp(const std::string &hostport)
{
    const std::size_t colon = hostport.rfind(':');
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(std::uint16_t(std::atoi(
        hostport.c_str() + colon + 1)));
    if (inet_pton(AF_INET, hostport.substr(0, colon).c_str(),
                  &addr.sin_addr) != 1)
        util::fatal("bad daemon address ", hostport);
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        util::fatal("socket: ", std::strerror(errno));
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof addr) !=
        0) {
        const int err = errno;
        ::close(fd);
        util::fatal("connect ", hostport, ": ", std::strerror(err));
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return fd;
}

/** Owns a socket descriptor. */
struct Socket
{
    int fd;
    explicit Socket(int f) : fd(f) {}
    ~Socket() { ::close(fd); }
    Socket(const Socket &) = delete;
    Socket &operator=(const Socket &) = delete;
};

/**
 * Open loop on one thread: send request i when it is due, read
 * whatever responses arrived in between. ppoll sleeps until the next
 * due time or a readable socket, whichever comes first.
 */
Phase
openLoop(int fd, const Setup &s, std::size_t first, Clock::time_point start)
{
    const std::size_t n = s.openPerSegment;
    Phase p;
    p.first = first;
    p.due.resize(n);
    p.sent.resize(n);
    p.recv.resize(n);
    p.responses.resize(n);
    p.start = start;
    const auto gap = std::chrono::duration<double>(1.0 / kOpenRate);
    for (std::size_t i = 0; i < n; ++i)
        p.due[i] = start + std::chrono::duration_cast<Clock::duration>(
                               gap * double(i));

    std::size_t next = 0, received = 0;
    std::string buf;
    char chunk[65536];
    while (received < n) {
        Clock::time_point now = Clock::now();
        while (next < n && p.due[next] <= now) {
            const std::string wire = s.lines[first + next] + "\n";
            p.sent[next] = now;
            for (std::size_t off = 0; off < wire.size();) {
                const ssize_t k = ::send(fd, wire.data() + off,
                                         wire.size() - off, MSG_NOSIGNAL);
                if (k < 0 && errno == EINTR)
                    continue;
                if (k <= 0)
                    util::fatal("open loop send: ", std::strerror(errno));
                off += std::size_t(k);
            }
            ++next;
            now = Clock::now();
        }
        timespec wait{};
        timespec *timeout = nullptr;
        if (next < n) {
            const auto ns =
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    p.due[next] - now)
                    .count();
            wait.tv_sec = ns / 1000000000;
            wait.tv_nsec = ns % 1000000000;
            timeout = &wait;
        }
        pollfd pfd{fd, POLLIN, 0};
        if (::ppoll(&pfd, 1, timeout, nullptr) <= 0)
            continue;
        const ssize_t k = ::recv(fd, chunk, sizeof chunk, 0);
        if (k < 0 && errno == EINTR)
            continue;
        if (k <= 0)
            util::fatal("open loop: daemon closed the connection");
        now = Clock::now();
        buf.append(chunk, std::size_t(k));
        std::size_t at = 0, nl;
        while ((nl = buf.find('\n', at)) != std::string::npos &&
               received < n) {
            p.responses[received] = buf.substr(at, nl - at);
            p.recv[received] = now;
            ++received;
            at = nl + 1;
        }
        buf.erase(0, at);
    }
    p.end = Clock::now();
    return p;
}

/** Closed loop over requests [first, first + closedPerSegment): at
 *  most kWindow in flight. */
Phase
closedLoop(serve::Client &client, const Setup &s, std::size_t first)
{
    const std::size_t n = s.closedPerSegment;
    Phase p;
    p.first = first;
    p.sent.resize(n);
    p.recv.resize(n);
    p.responses.resize(n);
    p.start = Clock::now();
    std::size_t sent = 0, received = 0;
    while (received < n) {
        while (sent < n && sent - received < kWindow) {
            p.sent[sent] = Clock::now();
            client.sendLine(s.lines[first + sent]);
            ++sent;
        }
        p.responses[received] = client.recvLine();
        p.recv[received] = Clock::now();
        ++received;
    }
    p.end = Clock::now();
    return p;
}

/** Verify one loop's responses against the direct runs. The daemon
 *  does not shed, so any ok:false response is a defect. */
void
verifyPhase(const Phase &p, const Setup &s, PhaseCount &c, RunResult &r)
{
    for (std::size_t i = 0; i < p.responses.size(); ++i) {
        const std::size_t idx = p.first + i;
        tallyResponse(p.responses[i], idx + 1, s.expected[idx], Shed::Fails,
                      c, r);
    }
}

/** In-process engine on the closed loops' requests, same window. */
void
measureEngine(const Setup &s, Layers &layers)
{
    serve::EngineOptions opts;
    opts.jobs = std::atoi(kDaemonJobs);
    opts.ownCache = true;
    serve::Engine engine(opts);
    std::vector<serve::Request> reqs;
    for (std::size_t k = 0; k < kSegments; ++k)
        for (std::size_t i = 0; i < s.closedPerSegment; ++i)
            reqs.push_back(serve::decodeRequest(
                s.lines[k * s.perSegment() + s.openPerSegment + i]));
    std::deque<std::pair<Clock::time_point, std::future<serve::Response>>>
        inflight;
    std::size_t next = 0;
    while (next < reqs.size() || !inflight.empty()) {
        while (next < reqs.size() && inflight.size() < kWindow) {
            inflight.emplace_back(Clock::now(), engine.submit(reqs[next]));
            ++next;
        }
        inflight.front().second.get();
        layers.add("serve.Engine.submit",
                   usBetween(inflight.front().first, Clock::now()));
        inflight.pop_front();
    }
    engine.drain();
}

RunResult
measure(const Options &o, Setup &s, bool traced)
{
    RunResult r;
    serve::Client client;
    client.connect(s.daemon->address());
    const Socket open(connectTcp(s.daemon->address()));
    const auto before = probeCounters(client);
    // Wake-ups as exact as the kernel allows: the default 50 us timer
    // slack would show up as generator lateness.
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);

    TraceCapture capture;
    if (traced)
        capture.arm();
    std::vector<Phase> opens, closeds;
    const auto slot = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(o.seconds / double(kSegments)));
    const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(1);
    for (std::size_t k = 0; k < kSegments; ++k) {
        // A segment that overran its slot delays the next one's
        // schedule rather than making it start in the past.
        const Clock::time_point start =
            std::max(t0 + slot * long(k), Clock::now());
        std::this_thread::sleep_until(start);
        const std::size_t first = k * s.perSegment();
        opens.push_back(openLoop(open.fd, s, first, start));
        closeds.push_back(
            closedLoop(client, s, first + s.openPerSegment));
    }

    const auto after = probeCounters(client);
    auto delta = [&](const char *name) {
        auto a = after.find(name);
        auto b = before.find(name);
        return (a == after.end() ? 0 : a->second) -
               (b == before.end() ? 0 : b->second);
    };
    const std::uint64_t requests = delta("ganacc_serve_requests_total");

    PhaseCount openCount{"open-loop"}, closedCount{"closed-loop"};
    for (std::size_t k = 0; k < kSegments; ++k) {
        verifyPhase(opens[k], s, openCount, r);
        verifyPhase(closeds[k], s, closedCount, r);
    }
    r.phases = {openCount, closedCount};
    for (const PhaseCount &c : r.phases) {
        r.attempted += c.sent;
        r.failed += c.failed;
    }
    // Every key is new to the daemon, so each request simulates once.
    const std::uint64_t simulated = delta("ganacc_serve_simulated_total");
    if (simulated != r.attempted)
        r.fail("serve.tier.sim " + std::to_string(simulated) +
               " != requests sent " + std::to_string(r.attempted));

    std::vector<double> p50s, p99s, late;
    double closedWall = 0.0;
    std::uint64_t backlog = 0;
    for (std::size_t k = 0; k < kSegments; ++k) {
        const Phase &p = opens[k];
        std::vector<double> lat;
        for (std::size_t i = 0; i < p.responses.size(); ++i) {
            lat.push_back(usBetween(p.due[i], p.recv[i]));
            late.push_back(usBetween(p.due[i], p.sent[i]));
            backlog += p.recv[i] > p.due.back();
        }
        p50s.push_back(percentile(lat, 0.50));
        p99s.push_back(percentile(lat, 0.99));
        closedWall += std::chrono::duration<double>(closeds[k].end -
                                                    closeds[k].start)
                          .count();
    }
    r.add("lat_p50_us", median(p50s), "us");
    r.add("bench.lat_p99_us", median(p99s), "us");
    // Over all segments, not a median of segment rates: a closed
    // loop's last responses may or may not wait tens of milliseconds
    // for a delayed ACK, a large share of one segment's time.
    r.add("req_per_s", double(closedCount.sent) / closedWall, "1/s");
    r.add("wall_s", closedWall, "s");
    r.add("bench.gen_late_p99_us", percentile(late, 0.99), "us");
    r.add("bench.backlog_end", double(backlog), "count");
    r.add("peak_rss_mb", selfPeakRssMb() + s.daemon->peakRssMb(), "MB");
    r.add("serve.tier.sim", double(delta("ganacc_serve_simulated_total")),
          "count");
    r.add("serve.tier.mem", double(delta("ganacc_serve_mem_hits_total")),
          "count");
    r.add("serve.tier.disk", double(delta("ganacc_serve_disk_hits_total")),
          "count");
    r.add("serve.tier.dup", double(delta("ganacc_serve_deduped_total")),
          "count");
    r.add("serve.tier.put", double(delta("ganacc_serve_puts_total")),
          "count");
    r.add("core.cache_hit_ratio",
          requests ? double(delta("ganacc_serve_mem_hits_total")) /
                         double(requests)
                   : 0.0,
          "ratio");

    if (!traced)
        return r;

    // Per-request round trips as bench spans, then the daemon's spans.
    std::vector<double> roundTrip(s.lines.size(), -1.0);
    for (const auto *loops : {&opens, &closeds})
        for (const Phase &p : *loops)
            for (std::size_t i = 0; i < p.responses.size(); ++i) {
                const std::uint64_t id = p.first + i + 1;
                capture.span("bench.request", p.sent[i], p.recv[i],
                             "{\"id\":" + std::to_string(id) + "}");
                roundTrip[id - 1] = usBetween(p.sent[i], p.recv[i]);
            }
    serve::Request drain;
    drain.traceDrainProbe = true;
    capture.addDaemon("ganacc-served", client.roundTrip(drain).spans);
    capture.finish();

    Layers layers;
    for (const obs::TraceEvent *ev :
         capture.events("ganacc-served", "serve.request")) {
        const std::uint64_t id = lineField(ev->args, "id");
        if (id >= 1 && id <= roundTrip.size() && roundTrip[id - 1] >= 0.0)
            layers.add("transport", roundTrip[id - 1] - double(ev->dur));
    }
    const Summary qw =
        summarize(capture.durations("ganacc-served", "serve.queue_wait"));
    r.add("serve.queue_wait_us.p50", qw.p50, "us");
    r.add("serve.queue_wait_us.p99", qw.p99, "us");
    std::vector<double> service;
    for (const auto *loops : {&opens, &closeds})
        for (const Phase &p : *loops)
            for (const std::string &line : p.responses)
                service.push_back(double(lineField(line, "latencyUs")));
    const Summary sv = summarize(service);
    r.add("serve.service_us.p50", sv.p50, "us");
    r.add("serve.service_us.p99", sv.p99, "us");
    r.add("serve.transport_us.p50", layers.summary("transport").p50, "us");

    // Micro-measures on the first segment's own inputs.
    const std::size_t n = s.perSegment();
    const std::vector<std::string> reqLines(s.lines.begin(),
                                            s.lines.begin() + long(n));
    std::vector<std::string> rspLines = opens[0].responses;
    rspLines.insert(rspLines.end(), closeds[0].responses.begin(),
                    closeds[0].responses.end());
    const std::vector<SpecJob> jobs(s.jobs.begin(),
                                    s.jobs.begin() + long(n));
    measureCodecAndCache(reqLines, rspLines, jobs, layers);
    measureClosedForm(jobs, layers);
    measureEngine(s, layers);
    addP50P99(r, layers, "serve.decode", "serve.decode_us");
    addP50P99(r, layers, "serve.encode", "serve.encode_us");
    addP50P99(r, layers, "serve.Engine.submit", "serve.engine_us");
    addP50P99(r, layers, "sim.closed_form", "sim.closed_form_us");
    r.add("core.cached_run_hit_us",
          layers.summary("core.cached_run_hit").p50, "us");
    finishTrace(o, capture, layers, r);
    return r;
}

} // namespace

RunResult
runDaemonUnique(const Options &o)
{
    std::vector<double> setups;
    Setup s;
    for (int i = 0; i < kSetups; ++i) {
        s = Setup(); // stops the previous repetition's daemon
        const auto t0 = Clock::now();
        s = setUp(o, false);
        setups.push_back(secondsSince(t0));
    }
    RunResult r = measure(o, s, false);
    r.add("setup_s", median(setups), "s");
    s = Setup();
    if (!o.trace)
        return r;
    Setup ts = setUp(o, true);
    RunResult t = measure(o, ts, true);
    addTraceOverhead(t, r);
    return combineTraced(std::move(r), std::move(t));
}

} // namespace perfbench
