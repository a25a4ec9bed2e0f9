/**
 * @file
 * Socket plumbing implementation.
 */

#include "serve/socket_io.hh"

#include <cerrno>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

namespace ganacc {
namespace serve {

void
setNoDelay(int fd)
{
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

bool
sendAll(int fd, const std::string &bytes)
{
    std::size_t off = 0;
    while (off < bytes.size()) {
        ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                           MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR)
            continue; // a signal (e.g. the SIGUSR1 metrics dump)
        if (n <= 0)
            return false;
        off += std::size_t(n);
    }
    return true;
}

LineReader::Status
LineReader::next(std::string &line)
{
    while (true) {
        const std::size_t nl = buf_.find('\n', scanned_);
        if (nl != std::string::npos) {
            line.assign(buf_, head_, nl - head_);
            head_ = scanned_ = nl + 1;
            return Status::Line;
        }
        // Drop the returned lines before growing the buffer.
        buf_.erase(0, head_);
        head_ = 0;
        scanned_ = buf_.size();
        char chunk[16384];
        const ssize_t n = ::read(fd_, chunk, sizeof chunk);
        if (n < 0 && errno == EINTR)
            continue; // interrupted by a signal, not EOF — retry
        if (n < 0)
            return Status::Error;
        if (n == 0)
            return Status::Eof;
        buf_.append(chunk, std::size_t(n));
    }
}

bool
LineReader::hasLine()
{
    const std::size_t nl = buf_.find('\n', scanned_);
    // [head_, nl) holds no '\n' either way, so the next scan resumes
    // where this one stopped.
    scanned_ = nl == std::string::npos ? buf_.size() : nl;
    return nl != std::string::npos;
}

bool
LineReader::takeRest(std::string &line)
{
    if (head_ == buf_.size())
        return false;
    line.assign(buf_, head_);
    buf_.clear();
    head_ = scanned_ = 0;
    return true;
}

} // namespace serve
} // namespace ganacc
