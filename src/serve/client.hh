/**
 * @file
 * Client side of the simulation service.
 *
 * A thin blocking client over the Unix-domain socket: send request
 * lines, read response lines back in order. Requests can be pipelined
 * (sendRequest N times, then recvResponse N times) — the daemon
 * preserves per-connection ordering, which is what makes the batched
 * replay of ganacc-client a single round of writes followed by a
 * single round of reads.
 */

#ifndef GANACC_SERVE_CLIENT_HH
#define GANACC_SERVE_CLIENT_HH

#include <string>
#include <vector>

#include "serve/protocol.hh"
#include "serve/socket_io.hh"

namespace ganacc {
namespace serve {

/**
 * Connection establishment policy. A refused connection is retried
 * `retries` times with exponential backoff starting at `backoffMs`
 * (doubling, capped at one second per sleep) until `timeoutMs` of
 * wall clock has been spent; only then is the failure fatal. The
 * defaults preserve the historical fail-fast behavior.
 */
struct ConnectOptions
{
    int retries = 0;    ///< extra attempts after the first failure
    int backoffMs = 50; ///< first retry delay; doubles per attempt
    int timeoutMs = 5000; ///< total connect budget across attempts
};

/**
 * True when `address` names a TCP endpoint (contains a ':' and does
 * not start with '/' or '.'), false for an AF_UNIX socket path.
 */
bool isTcpAddress(const std::string &address);

/** A blocking JSON-lines connection to a running ganacc-served. */
class Client
{
  public:
    Client() = default;
    ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /**
     * Connect to the daemon. `address` is an AF_UNIX socket path
     * (starts with '/' or '.', or contains no ':') or a TCP
     * "host:port" endpoint. Throws FatalError once the retry budget
     * in `opt` is exhausted.
     */
    void connect(const std::string &address,
                 const ConnectOptions &opt = ConnectOptions());

    bool connected() const { return fd_ >= 0; }

    /** Queue one request onto the wire (pipelined). */
    void sendRequest(const Request &req);

    /** Send a raw pre-encoded line (replay of a request file). */
    void sendLine(const std::string &line);

    /** Next response line, in request order; throws on EOF. */
    Response recvResponse();

    /** Raw response line (for byte-exact golden replay). */
    std::string recvLine();

    /** Synchronous convenience: one request, one response. */
    Response roundTrip(const Request &req);

    void close();

  private:
    int fd_ = -1;
    LineReader reader_;
};

/**
 * Replay every line of `request_lines` through a connected client
 * (pipelined in windows of `window`) and return the raw response
 * lines in order.
 */
std::vector<std::string> replayLines(
    Client &client, const std::vector<std::string> &request_lines,
    std::size_t window = 64);

} // namespace serve
} // namespace ganacc

#endif // GANACC_SERVE_CLIENT_HH
