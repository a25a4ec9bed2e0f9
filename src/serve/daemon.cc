/**
 * @file
 * Daemon transport implementation.
 */

#include "serve/daemon.hh"

#include <cerrno>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <deque>
#include <functional>
#include <istream>
#include <list>
#include <mutex>
#include <optional>
#include <ostream>
#include <thread>
#include <vector>

#include <netdb.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "obs/metrics.hh"
#include "obs/telemetry.hh"
#include "obs/trace.hh"
#include "serve/socket_io.hh"
#include "util/logging.hh"

namespace ganacc {
namespace serve {

namespace {

/**
 * One request line, decoded once: the request, or — the protocol
 * promises a response per line no matter how broken the line is —
 * the ok:false answer of a line that does not decode.
 */
struct DecodedLine
{
    Request req;
    std::optional<Response> error;
};

DecodedLine
decodeLine(const std::string &line)
{
    DecodedLine d;
    try {
        obs::TraceSink &sink = obs::TraceSink::instance();
        if (sink.enabled()) {
            // Stamp transport-side decode timing (never on the wire)
            // so the engine's span batch covers the whole hop.
            const std::uint64_t t0 = sink.nowUs();
            d.req = decodeRequest(line);
            const std::uint64_t t1 = sink.nowUs();
            d.req.decodeTs = t0;
            d.req.decodeDurUs = t1 > t0 ? t1 - t0 : 1;
        } else {
            d.req = decodeRequest(line);
        }
        return d;
    } catch (const std::exception &e) {
        std::uint64_t id = 0;
        // Best effort: salvage the id so the client can correlate.
        try {
            const auto doc = util::json::parse(line);
            if (doc.isObject() && doc.asObject().contains("id"))
                id = doc.asObject().at("id").asUint64();
        } catch (...) {
            // The line is not even JSON; scrape an "id":NNN textually
            // so the error still lands on the right request.
            const auto at = line.find("\"id\":");
            if (at != std::string::npos) {
                std::size_t p = at + 5;
                while (p < line.size() && line[p] >= '0' &&
                       line[p] <= '9')
                    id = id * 10 + std::uint64_t(line[p++] - '0');
            }
        }
        d.error = errorResponse(id, e.what());
        return d;
    }
}

std::future<Response>
readyFuture(Response rsp)
{
    std::promise<Response> p;
    p.set_value(std::move(rsp));
    return p.get_future();
}

/** The transport's encode+write span of a traced response, opened at
 *  `t0` and parented under the engine's request span. */
struct EncodeSpan
{
    std::string traceId;
    std::uint64_t parent = 0;
    std::uint64_t t0 = 0;
};

/** Close an encode span now that its bytes are written. */
void
recordEncodeSpan(const EncodeSpan &enc)
{
    obs::TraceSink &sink = obs::TraceSink::instance();
    obs::TraceEvent ev;
    ev.name = "serve.encode";
    ev.cat = "serve";
    ev.tid = obs::TraceSink::threadLane();
    ev.ts = enc.t0;
    const std::uint64_t t1 = sink.nowUs();
    ev.dur = t1 > enc.t0 ? t1 - enc.t0 : 1;
    ev.args = obs::spanArgs(enc.traceId, obs::newSpanId(), enc.parent);
    sink.record(std::move(ev));
}

/**
 * Pump a line stream through the engine, writing responses in input
 * order.
 *
 * A request the engine can answer without a cycle walk or file I/O
 * (Engine::answersInline) is answered on this, the reader's, thread
 * whenever nothing is ahead of it on the stream: decode, execute,
 * encode, append to `out`. `out` goes to the peer in one write once
 * `lineBuffered` reports no further complete line, so a pipelined
 * burst costs one write per read batch and no thread hand-off.
 *
 * Everything else — puts, requests under GANACC_ENGINE=walk, misses of
 * a persistent tier, and any request that arrives while pooled work is
 * pending — is submitted to the engine's pool. A dedicated writer
 * thread drains the in-order future queue, so pooled responses go out
 * the moment they resolve even while the reader is blocked waiting
 * for the client's next line — an interactive client that pipelines a
 * burst and then waits for replies before closing would deadlock
 * otherwise. The window bounds this stream's pooled requests on top
 * of the engine's global queue bound.
 *
 * Order: inline answers are only taken while the future queue is
 * empty and the writer idle, and `out` is flushed before the next
 * pooled request is queued, so the reader and the writer never both
 * own the stream.
 */
ServeTotals
pumpOrderedStream(Engine &engine,
                  const std::function<bool(std::string &)> &getLine,
                  const std::function<bool()> &lineBuffered,
                  const std::function<bool(const std::string &)> &put)
{
    ServeTotals totals;
    const std::size_t window = 64;
    std::mutex m;
    std::condition_variable cv;
    std::deque<std::future<Response>> pending;
    bool writing = false; ///< the writer holds a popped future
    bool done = false;
    std::uint64_t written = 0;

    std::thread writer([&] {
        std::unique_lock<std::mutex> lk(m);
        while (true) {
            cv.wait(lk, [&] { return done || !pending.empty(); });
            if (pending.empty())
                return; // done and nothing left to write
            std::future<Response> fut = std::move(pending.front());
            pending.pop_front();
            writing = true;
            cv.notify_all(); // a window slot freed up for the reader
            lk.unlock();
            const Response rsp = fut.get();
            obs::TraceSink &sink = obs::TraceSink::instance();
            const bool traceEncode = rsp.traceKept && sink.enabled();
            const std::uint64_t encT0 = traceEncode ? sink.nowUs() : 0;
            const bool ok = put(encodeResponse(rsp) + "\n");
            if (traceEncode)
                recordEncodeSpan({rsp.traceId, rsp.traceSpan, encT0});
            lk.lock();
            writing = false;
            if (ok)
                ++written;
        }
    });

    // The reader's batch of inline answers, written by flush().
    std::string out;
    std::uint64_t outCount = 0;
    std::uint64_t writtenInline = 0;
    std::vector<EncodeSpan> openEncodes; ///< closed by flush()
    const auto flush = [&] {
        if (outCount == 0)
            return;
        if (put(out))
            writtenInline += outCount;
        for (const EncodeSpan &enc : openEncodes)
            recordEncodeSpan(enc);
        out.clear();
        outCount = 0;
        openEncodes.clear();
    };

    std::string line;
    while (getLine(line)) {
        if (line.empty())
            continue;
        ++totals.lines;
        DecodedLine d = decodeLine(line);
        bool idle;
        {
            std::lock_guard<std::mutex> lk(m);
            idle = pending.empty() && !writing;
        }
        if (idle && (d.error || engine.answersInline(d.req))) {
            Response rsp;
            if (d.error) {
                rsp = std::move(*d.error);
            } else {
                try {
                    rsp = engine.answer(d.req);
                } catch (const std::exception &e) {
                    // Refused: the engine is draining.
                    rsp = errorResponse(d.req.id, e.what());
                }
            }
            obs::TraceSink &sink = obs::TraceSink::instance();
            if (rsp.traceKept && sink.enabled())
                openEncodes.push_back(
                    {rsp.traceId, rsp.traceSpan, sink.nowUs()});
            out += encodeResponse(rsp);
            out += '\n';
            ++outCount;
            if (!lineBuffered())
                flush();
            continue;
        }
        flush();
        std::future<Response> fut;
        if (d.error) {
            fut = readyFuture(std::move(*d.error));
        } else {
            try {
                fut = engine.submit(d.req);
            } catch (const std::exception &e) {
                // Refused: the engine is draining.
                fut = readyFuture(errorResponse(d.req.id, e.what()));
            }
        }
        std::unique_lock<std::mutex> lk(m);
        cv.wait(lk, [&] { return pending.size() < window; });
        pending.push_back(std::move(fut));
        cv.notify_all();
    }
    flush();
    {
        std::lock_guard<std::mutex> lk(m);
        done = true;
    }
    cv.notify_all();
    writer.join();
    totals.responses = written + writtenInline;
    return totals;
}

} // namespace

ServeTotals
runPipeServer(std::istream &in, std::ostream &out, Engine &engine)
{
    return pumpOrderedStream(
        engine,
        [&in](std::string &line) {
            return bool(std::getline(in, line));
        },
        [&in] { return in.rdbuf()->in_avail() > 0; },
        [&out](const std::string &bytes) {
            out << bytes;
            out.flush();
            return bool(out);
        });
}

namespace {

std::atomic<bool> *g_stop_flag = nullptr;

void
onStopSignal(int)
{
    if (g_stop_flag)
        g_stop_flag->store(true);
}

/** Serve one accepted connection with the ordered pump loop. */
void
serveConnection(int fd, Engine &engine, std::atomic<std::uint64_t> &lines,
                std::atomic<std::uint64_t> &responses)
{
    static obs::Gauge &connections = obs::Registry::instance().gauge(
        "ganacc_serve_connections", "live client connections");
    connections.add(1);
    LineReader reader(fd);
    // On EOF or a read error the unterminated tail still counts as
    // the stream's last line.
    const ServeTotals totals = pumpOrderedStream(
        engine,
        [&reader](std::string &line) {
            return reader.next(line) == LineReader::Status::Line ||
                   reader.takeRest(line);
        },
        [&reader] { return reader.hasLine(); },
        [fd](const std::string &bytes) { return sendAll(fd, bytes); });
    lines.fetch_add(totals.lines, std::memory_order_relaxed);
    responses.fetch_add(totals.responses, std::memory_order_relaxed);
    ::close(fd);
    connections.add(-1);
}

} // namespace

void
installStopHandlers(std::atomic<bool> &flag)
{
    g_stop_flag = &flag;
    struct sigaction sa;
    std::memset(&sa, 0, sizeof sa);
    sa.sa_handler = onStopSignal;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
}

ServeTotals
serveListener(int listener, Engine &engine,
              const std::atomic<bool> &stop)
{
    std::atomic<std::uint64_t> lines{0};
    std::atomic<std::uint64_t> responses{0};
    struct Conn
    {
        std::thread thread;
        std::atomic<bool> done{false};
    };
    std::list<Conn> conns;
    while (!stop.load()) {
        // Join the connections that have closed, so each one's stack
        // is released now rather than at shutdown.
        for (auto it = conns.begin(); it != conns.end();) {
            if (!it->done.load()) {
                ++it;
                continue;
            }
            it->thread.join();
            it = conns.erase(it);
        }
        pollfd pfd{listener, POLLIN, 0};
        int r = ::poll(&pfd, 1, 200 /* ms: stop-flag latency */);
        // SIGUSR1 dumps are serviced here, on a normal thread within
        // one poll interval of the signal — never in the handler.
        obs::serviceMetricsDump();
        if (r < 0 && errno != EINTR)
            break;
        if (r <= 0 || !(pfd.revents & POLLIN))
            continue;
        int fd = ::accept(listener, nullptr, nullptr);
        if (fd < 0)
            continue;
        // Responses are one line each; don't let Nagle hold one back
        // until the client ACKs the previous.
        setNoDelay(fd);
        Conn &conn = conns.emplace_back();
        conn.thread = std::thread(
            [fd, &engine, &lines, &responses, &done = conn.done] {
                serveConnection(fd, engine, lines, responses);
                done.store(true);
            });
    }
    // Drain: no new connections; live ones finish their streams.
    ::close(listener);
    for (Conn &conn : conns)
        conn.thread.join();
    engine.drain();

    ServeTotals totals;
    totals.lines = lines.load();
    totals.responses = responses.load();
    return totals;
}

int
listenUnix(const std::string &path)
{
    if (path.empty())
        util::fatal("socket server needs a non-empty path");
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path)
        util::fatal("socket path too long: ", path);
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof addr.sun_path - 1);

    int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listener < 0)
        util::fatal("socket(AF_UNIX): ", std::strerror(errno));
    ::unlink(path.c_str()); // stale socket from a dead daemon
    if (::bind(listener, reinterpret_cast<sockaddr *>(&addr),
               sizeof addr) != 0)
        util::fatal("bind(", path, "): ", std::strerror(errno));
    if (::listen(listener, 64) != 0)
        util::fatal("listen(", path, "): ", std::strerror(errno));
    return listener;
}

ServeTotals
runSocketServer(const std::string &path, Engine &engine,
                const std::atomic<bool> &stop)
{
    const ServeTotals totals =
        serveListener(listenUnix(path), engine, stop);
    ::unlink(path.c_str());
    return totals;
}

int
listenTcp(const std::string &hostport, std::string *boundAddr)
{
    const auto colon = hostport.rfind(':');
    if (colon == std::string::npos)
        util::fatal("TCP listen address must be host:port, not \"",
                    hostport, "\"");
    std::string host = hostport.substr(0, colon);
    const std::string port = hostport.substr(colon + 1);
    if (host.empty())
        host = "127.0.0.1";

    addrinfo hints;
    std::memset(&hints, 0, sizeof hints);
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    hints.ai_flags = AI_PASSIVE;
    addrinfo *res = nullptr;
    const int gai =
        ::getaddrinfo(host.c_str(), port.c_str(), &hints, &res);
    if (gai != 0)
        util::fatal("getaddrinfo(", hostport, "): ",
                    gai_strerror(gai));

    int listener = -1;
    std::string error = "no usable address";
    for (addrinfo *ai = res; ai; ai = ai->ai_next) {
        listener = ::socket(ai->ai_family, ai->ai_socktype,
                            ai->ai_protocol);
        if (listener < 0)
            continue;
        int one = 1;
        ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof one);
        if (::bind(listener, ai->ai_addr, ai->ai_addrlen) == 0 &&
            ::listen(listener, 64) == 0)
            break;
        error = std::strerror(errno);
        ::close(listener);
        listener = -1;
    }
    ::freeaddrinfo(res);
    if (listener < 0)
        util::fatal("bind(", hostport, "): ", error);

    if (boundAddr) {
        // Resolve a kernel-assigned port (":0") for announcement.
        sockaddr_storage ss;
        socklen_t len = sizeof ss;
        if (::getsockname(listener,
                          reinterpret_cast<sockaddr *>(&ss),
                          &len) != 0)
            util::fatal("getsockname(", hostport, "): ",
                        std::strerror(errno));
        char hostbuf[NI_MAXHOST], portbuf[NI_MAXSERV];
        if (::getnameinfo(reinterpret_cast<sockaddr *>(&ss), len,
                          hostbuf, sizeof hostbuf, portbuf,
                          sizeof portbuf,
                          NI_NUMERICHOST | NI_NUMERICSERV) != 0)
            util::fatal("getnameinfo(", hostport, ") failed");
        *boundAddr = std::string(hostbuf) + ":" + portbuf;
    }
    return listener;
}

ServeTotals
runTcpServer(const std::string &hostport, Engine &engine,
             const std::atomic<bool> &stop, std::string *boundAddr)
{
    return serveListener(listenTcp(hostport, boundAddr), engine,
                         stop);
}

} // namespace serve
} // namespace ganacc
