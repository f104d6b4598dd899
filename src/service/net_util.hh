/**
 * @file
 * Tiny shared helpers for the in-repo HTTP server and client — one
 * definition each for the string and socket primitives both sides
 * use, so fixes (partial-send handling, case-folding) cannot diverge
 * between the daemon and the client/bench that validates it.
 */

#ifndef RFL_SERVICE_NET_UTIL_HH
#define RFL_SERVICE_NET_UTIL_HH

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <climits>
#include <string>

#include <sys/socket.h>
#include <sys/uio.h>

namespace rfl::service::net
{

/** ASCII-lowercase (header names; HTTP is case-insensitive). */
inline std::string
lowercase(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    return s;
}

/** Strip leading/trailing spaces, tabs and CR. */
inline std::string
trimWs(const std::string &s)
{
    const size_t a = s.find_first_not_of(" \t\r");
    if (a == std::string::npos)
        return "";
    const size_t b = s.find_last_not_of(" \t\r");
    return s.substr(a, b - a + 1);
}

/**
 * Drop the first @p n bytes from the iovec array [@p iov, +@p count):
 * whole entries are skipped (advancing @p iov, shrinking @p count) and
 * a partly written one is trimmed in place.
 */
inline void
consumeIov(iovec *&iov, size_t &count, size_t n)
{
    while (count > 0 && n >= iov->iov_len) {
        n -= iov->iov_len;
        ++iov;
        --count;
    }
    if (n > 0) {
        iov->iov_base = static_cast<char *>(iov->iov_base) + n;
        iov->iov_len -= n;
    }
}

/**
 * Send every byte the @p count iovecs at @p iov describe, gathered:
 * one sendmsg per IOV_MAX entries, repeated after a partial write.
 * Edits @p iov as it goes. @return false on any transport error,
 * including an SO_SNDTIMEO timeout (EAGAIN). MSG_NOSIGNAL: a peer
 * that hung up must surface as EPIPE, not kill the process with
 * SIGPIPE.
 */
inline bool
sendAllv(int fd, iovec *iov, size_t count)
{
    consumeIov(iov, count, 0); // skip leading empty entries
    while (count > 0) {
        msghdr msg{};
        msg.msg_iov = iov;
        msg.msg_iovlen = std::min<size_t>(count, IOV_MAX);
        const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        consumeIov(iov, count, static_cast<size_t>(n));
    }
    return true;
}

/** Send all of @p data (sendAllv over one buffer). */
inline bool
sendAll(int fd, const char *data, size_t len)
{
    iovec iov{const_cast<char *>(data), len};
    return sendAllv(fd, &iov, 1);
}

} // namespace rfl::service::net

#endif // RFL_SERVICE_NET_UTIL_HH
