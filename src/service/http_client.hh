/**
 * @file
 * Minimal blocking HTTP/1.1 client for the roofline service.
 *
 * In-repo counterpart of http_server.hh: enough protocol for the
 * service tests and perfbench — keep-alive connection reuse and
 * Content-Length response bodies — and nothing more. One
 * HttpClient is one connection; it is not thread-safe (each concurrent
 * client owns its own instance).
 */

#ifndef RFL_SERVICE_HTTP_CLIENT_HH
#define RFL_SERVICE_HTTP_CLIENT_HH

#include <map>
#include <string>

namespace rfl::service
{

/** One received response. */
struct ClientResponse
{
    int status = 0;
    std::string body;
    /** Header fields, names lowercased. */
    std::map<std::string, std::string> headers;
};

/** See file comment. */
class HttpClient
{
  public:
    HttpClient(std::string host, int port);
    ~HttpClient();

    HttpClient(const HttpClient &) = delete;
    HttpClient &operator=(const HttpClient &) = delete;

    /**
     * Issue one request over the (re)used connection. Reconnects once
     * when the kept-alive socket turns out dead (server closed it
     * between requests). @return false on transport failure — a
     * dropped connection.
     */
    bool request(const std::string &method, const std::string &target,
                 ClientResponse *out, const std::string &body = "",
                 const std::string &contentType = "text/plain");

    /** Close the connection (next request reconnects). */
    void close();

    /** @return whether a connection is currently open. */
    bool connected() const { return fd_ >= 0; }

  private:
    bool connect();
    bool tryRequest(const std::string &wire, ClientResponse *out);

    std::string host_;
    int port_;
    int fd_ = -1;
    std::string buffer_; ///< bytes read past the previous response
};

} // namespace rfl::service

#endif // RFL_SERVICE_HTTP_CLIENT_HH
