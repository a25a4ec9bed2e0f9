/**
 * @file
 * Socket plumbing shared by the daemon and the client: TCP_NODELAY,
 * whole-buffer sends and '\n'-framed line reads over a connected fd.
 */

#ifndef GANACC_SERVE_SOCKET_IO_HH
#define GANACC_SERVE_SOCKET_IO_HH

#include <cstddef>
#include <string>

namespace ganacc {
namespace serve {

/** Disable Nagle's algorithm on a connected stream socket, so a
 *  one-line message goes out without waiting for the peer's ACK of
 *  the previous one. The error on an AF_UNIX fd is ignored. */
void setNoDelay(int fd);

/** Send every byte of `bytes`, retrying EINTR. MSG_NOSIGNAL: a closed
 *  peer is an error return (errno EPIPE), not a SIGPIPE. False on
 *  error, with errno set. */
bool sendAll(int fd, const std::string &bytes);

/**
 * Buffered '\n'-framed reader over a connected fd. Each read scans
 * only the bytes it appended, so a line of any length costs time
 * linear in its size.
 */
class LineReader
{
  public:
    enum class Status
    {
        Line,  ///< a full line was returned
        Eof,   ///< the peer closed the stream
        Error, ///< read() failed; errno says why
    };

    explicit LineReader(int fd = -1) : fd_(fd) {}

    /** Next full line, without its '\n'. On Eof and Error any
     *  unterminated tail stays buffered for takeRest(). */
    Status next(std::string &line);

    /** True when next() would return a Line without reading: a
     *  complete line is already buffered. */
    bool hasLine();

    /** Move the buffered unterminated tail into `line`; false when
     *  there is none. */
    bool takeRest(std::string &line);

  private:
    int fd_;
    std::string buf_;
    std::size_t head_ = 0;    ///< first byte not yet returned
    std::size_t scanned_ = 0; ///< [head_, scanned_) holds no '\n'
};

} // namespace serve
} // namespace ganacc

#endif // GANACC_SERVE_SOCKET_IO_HH
