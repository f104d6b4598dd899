#include "service/http_client.hh"

#include <cerrno>
#include <cstdlib>
#include <sstream>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "service/net_util.hh"

namespace rfl::service
{

namespace
{

using net::lowercase;
using net::sendAll;
using net::trimWs;

/** Blocking read of more bytes into @p buffer; false on EOF/error. */
bool
readMore(int fd, std::string &buffer)
{
    char chunk[4096];
    for (;;) {
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n > 0) {
            buffer.append(chunk, static_cast<size_t>(n));
            return true;
        }
        if (n == 0)
            return false;
        if (errno == EINTR)
            continue;
        return false;
    }
}

} // namespace

HttpClient::HttpClient(std::string host, int port)
    : host_(std::move(host)), port_(port)
{
}

HttpClient::~HttpClient()
{
    close();
}

void
HttpClient::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    buffer_.clear();
}

bool
HttpClient::connect()
{
    close();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0)
        return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port_));
    if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1 ||
        ::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        close();
        return false;
    }
    const int on = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &on, sizeof(on));
    return true;
}

bool
HttpClient::tryRequest(const std::string &wire, ClientResponse *out)
{
    if (!sendAll(fd_, wire.data(), wire.size()))
        return false;

    // Head: status line + headers up to the blank line.
    size_t headEnd;
    while ((headEnd = buffer_.find("\r\n\r\n")) == std::string::npos) {
        if (!readMore(fd_, buffer_))
            return false;
    }
    *out = ClientResponse{};
    {
        std::istringstream head(buffer_.substr(0, headEnd));
        std::string line;
        if (!std::getline(head, line))
            return false;
        std::istringstream status(line);
        std::string version;
        if (!(status >> version >> out->status))
            return false;
        while (std::getline(head, line)) {
            line = trimWs(line);
            const size_t colon = line.find(':');
            if (line.empty() || colon == std::string::npos)
                continue;
            out->headers[lowercase(trimWs(line.substr(0, colon)))] =
                trimWs(line.substr(colon + 1));
        }
    }
    // 100 Continue interim responses precede the real one.
    if (out->status == 100) {
        buffer_.erase(0, headEnd + 4);
        return tryRequest("", out);
    }

    size_t len = 0;
    const auto cl = out->headers.find("content-length");
    if (cl != out->headers.end())
        len = static_cast<size_t>(
            std::strtoul(cl->second.c_str(), nullptr, 10));
    const size_t pos = headEnd + 4 + len;
    while (buffer_.size() < pos) {
        if (!readMore(fd_, buffer_))
            return false;
    }
    out->body = buffer_.substr(headEnd + 4, len);
    buffer_.erase(0, pos);

    const auto conn = out->headers.find("connection");
    if (conn != out->headers.end() &&
        lowercase(conn->second) == "close") {
        close();
    }
    return true;
}

bool
HttpClient::request(const std::string &method,
                    const std::string &target, ClientResponse *out,
                    const std::string &body,
                    const std::string &contentType)
{
    std::ostringstream wire;
    wire << method << " " << target << " HTTP/1.1\r\n"
         << "Host: " << host_ << ":" << port_ << "\r\n";
    if (!body.empty()) {
        wire << "Content-Type: " << contentType << "\r\n"
             << "Content-Length: " << body.size() << "\r\n";
    }
    wire << "\r\n" << body;

    const bool wasConnected = fd_ >= 0;
    if (!wasConnected && !connect())
        return false;
    if (tryRequest(wire.str(), out))
        return true;
    // A kept-alive socket the server closed between requests fails on
    // first use; one reconnect distinguishes that from a real drop.
    if (!wasConnected)
        return false;
    if (!connect())
        return false;
    return tryRequest(wire.str(), out);
}

} // namespace rfl::service
