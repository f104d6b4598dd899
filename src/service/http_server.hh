/**
 * @file
 * Minimal dependency-free HTTP/1.1 server for the roofline service.
 *
 * Deliberately small: a blocking accept loop on its own thread hands
 * each connection to a worker of a support/thread_pool ThreadPool,
 * which serves the whole keep-alive session — parse request, call the
 * registered handler, write the response, repeat until the client
 * closes, the idle timeout expires, or the server is stopping. In-repo
 * socket and HTTP code only (POSIX sockets), no third-party libraries.
 *
 * Supported surface (all the roofline API needs, nothing more):
 *   - request line + headers + Content-Length bodies (no request
 *     chunking), target split into path and query string;
 *   - keep-alive by default (HTTP/1.1 semantics), honoring
 *     "Connection: close" and closing once the server is stopping;
 *   - "Expect: 100-continue" interim responses (curl sends this for
 *     larger POST bodies);
 *   - fixed-length responses (Content-Length) and chunked responses
 *     (Transfer-Encoding: chunked) for streamed artifacts;
 *   - graceful shutdown: stop() unblocks the accept loop, lets
 *     in-flight requests finish, and joins every thread. The
 *     roofline_serve CLI wires SIGINT/SIGTERM to stop().
 *
 * Accepted connections are never dropped under load: they queue in the
 * thread pool until a worker frees up. Backpressure on the *job* level
 * (429 when the campaign queue is full) is the API layer's business.
 */

#ifndef RFL_SERVICE_HTTP_SERVER_HH
#define RFL_SERVICE_HTTP_SERVER_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "support/thread_pool.hh"

namespace rfl::service
{

/** One parsed request. */
struct HttpRequest
{
    std::string method;  ///< "GET", "POST", ... (as sent)
    std::string target;  ///< raw request target ("/v1/x?a=b")
    std::string path;    ///< target before '?'
    std::string query;   ///< target after '?' ("" when absent)
    std::string body;    ///< Content-Length bytes
    std::string clientAddr; ///< peer IP (no port)
    /** Header fields, names lowercased (HTTP names are case-insensitive). */
    std::map<std::string, std::string> headers;

    /** @return header @p name (lowercase), or @p fallback. */
    std::string header(const std::string &name,
                       const std::string &fallback = "") const;

    /** @return query parameter @p name, or @p fallback. */
    std::string queryParam(const std::string &name,
                           const std::string &fallback = "") const;
};

/** What a handler returns. */
struct HttpResponse
{
    int status = 200;
    std::string contentType = "application/json";
    std::string body;
    /** Extra response headers (e.g. Retry-After on 429), emitted
     *  verbatim after the standard ones. */
    std::vector<std::pair<std::string, std::string>> headers;
    /** Stream the body as Transfer-Encoding: chunked (artifacts). */
    bool chunked = false;
    /** Force "Connection: close" after this response. */
    bool closeConnection = false;
};

/** @return the standard reason phrase for @p status ("OK", ...). */
const char *httpStatusText(int status);

/** Request handler; runs on pool workers, so it must be thread-safe. */
using HttpHandler = std::function<HttpResponse(const HttpRequest &)>;

/** Server knobs. */
struct HttpServerOptions
{
    std::string host = "127.0.0.1";
    /** TCP port; 0 = ephemeral (read the bound port from port()). */
    int port = 0;
    /** Connection-serving workers; one keep-alive session each. */
    int workers = 16;
    /** Reject requests larger than this (413). */
    size_t maxRequestBytes = 1 << 20;
    /** Close a keep-alive connection idle for longer than this. */
    int idleTimeoutMs = 5000;
    /** Chunk size for chunked responses. */
    size_t chunkBytes = 16 * 1024;
};

/** Monotonic counters, exposed by /statsz. */
struct HttpServerStats
{
    uint64_t connectionsAccepted = 0;
    uint64_t requestsServed = 0;
    uint64_t parseErrors = 0; ///< malformed/oversized requests
    uint64_t bytesOut = 0;    ///< response bytes written
};

/** Outcome of reading one request off a connection. */
enum class ReadResult
{
    Ok,
    Closed,    ///< peer closed / idle timeout / server stopping
    Malformed, ///< unparsable request (answer 400, close)
    TooLarge,  ///< exceeds maxRequestBytes (answer 413, close)
};

/**
 * Read one request from @p fd into @p req. Returns when a full head +
 * body is buffered, the peer closes, the idle deadline passes, or
 * @p stopping flips; @p buffer carries pipelined leftovers between
 * calls. Answers "Expect: 100-continue" on @p fd. The server's
 * connection loop is the caller; tests drive it over a socketpair.
 */
ReadResult readRequest(int fd, std::string &buffer, HttpRequest &req,
                       const HttpServerOptions &opts,
                       const std::atomic<bool> &stopping);

/** See file comment. */
class HttpServer
{
  public:
    explicit HttpServer(HttpServerOptions opts = {});

    /** Stops and joins if still running. */
    ~HttpServer();

    HttpServer(const HttpServer &) = delete;
    HttpServer &operator=(const HttpServer &) = delete;

    /**
     * Bind, listen and start accepting; returns once the socket is
     * live (port() is valid). fatal() when the address cannot be
     * bound (user error: port taken, bad host).
     */
    void start(HttpHandler handler);

    /**
     * Graceful shutdown: stop accepting, finish in-flight requests,
     * join every thread. Idempotent; called by the destructor.
     */
    void stop();

    bool running() const { return running_.load(); }

    /** @return the bound TCP port (resolved when opts.port == 0). */
    int port() const { return boundPort_; }

    HttpServerStats stats() const;

  private:
    void acceptLoop();
    void serveConnection(int fd, const std::string &clientAddr);

    HttpServerOptions opts_;
    HttpHandler handler_;
    int listenFd_ = -1;
    int boundPort_ = 0;
    std::atomic<bool> stopping_{false};
    std::atomic<bool> running_{false};
    std::thread acceptThread_;
    std::unique_ptr<ThreadPool> pool_;
    mutable std::mutex statsMutex_;
    HttpServerStats stats_;
};

} // namespace rfl::service

#endif // RFL_SERVICE_HTTP_SERVER_HH
