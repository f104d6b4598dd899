/**
 * @file
 * HTTP wire-level tests, below the API: the request reader under a
 * seeded fuzzer, the gathered send under partial writes, and large
 * plain and chunked responses checked byte for byte on the socket.
 */

#include <atomic>
#include <csignal>
#include <cstdio>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include <netinet/in.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "service/http_client.hh"
#include "service/http_server.hh"
#include "service/net_util.hh"
#include "support/rng.hh"

namespace
{

using namespace rfl::service;

/** @p n bytes of a position-dependent pattern (no two chunks alike). */
std::string
patternBytes(size_t n)
{
    std::string s(n, '\0');
    for (size_t i = 0; i < n; ++i)
        s[i] = static_cast<char>((i * 131 + i / 977) & 0xff);
    return s;
}

/** Read from @p fd until EOF. */
std::string
readToEof(int fd)
{
    std::string got;
    char buf[4096];
    for (;;) {
        const ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n <= 0)
            return got;
        got.append(buf, static_cast<size_t>(n));
    }
}

// ------------------------------------------------------ gathered send

TEST(HttpWire, ConsumeIovSkipsWholeEntriesAndTrimsPartOne)
{
    // Every split point of a 3-entry array with an empty middle entry:
    // what remains is exactly the unsent suffix.
    const std::string data = "abcdefghij";
    for (size_t n = 0; n <= data.size(); ++n) {
        std::string a = data.substr(0, 4), c = data.substr(4);
        iovec arr[] = {{a.data(), a.size()}, {c.data(), 0},
                       {c.data(), c.size()}};
        iovec *iov = arr;
        size_t count = std::size(arr);
        net::consumeIov(iov, count, n);
        std::string rest;
        for (size_t i = 0; i < count; ++i)
            rest.append(static_cast<const char *>(iov[i].iov_base),
                        iov[i].iov_len);
        EXPECT_EQ(rest, data.substr(n)) << "n=" << n;
        if (n == data.size()) {
            EXPECT_EQ(count, 0u);
        }
    }
}

TEST(HttpWire, GatheredSendSurvivesPartialWrites)
{
    // A small send buffer and signals delivered while sendmsg blocks
    // make it return short (or EINTR); more entries than IOV_MAX make
    // it take several batches. The reader must see every byte once.
    struct sigaction quiet = {}, old = {};
    quiet.sa_handler = [](int) {};
    sigemptyset(&quiet.sa_mask);
    quiet.sa_flags = 0; // no SA_RESTART: interrupt the blocked send
    ASSERT_EQ(::sigaction(SIGUSR1, &quiet, &old), 0);

    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    const int small = 4096;
    ::setsockopt(sv[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));

    const std::string payload = patternBytes(1 << 20);
    std::vector<iovec> iov;
    for (size_t off = 0, k = 0; off < payload.size(); ++k) {
        const size_t n =
            std::min<size_t>((k * 37) % 2000, payload.size() - off);
        iov.push_back({const_cast<char *>(payload.data()) + off, n});
        off += n;
    }
    ASSERT_GT(iov.size(), static_cast<size_t>(IOV_MAX));

    std::atomic<bool> sent{false};
    std::thread sender([&] {
        sent = net::sendAllv(sv[0], iov.data(), iov.size());
        ::shutdown(sv[0], SHUT_WR);
    });
    std::string got;
    char buf[4096];
    for (int reads = 1;; ++reads) {
        const ssize_t n = ::read(sv[1], buf, sizeof(buf));
        if (n <= 0)
            break;
        got.append(buf, static_cast<size_t>(n));
        if (reads % 8 == 0)
            ::pthread_kill(sender.native_handle(), SIGUSR1);
    }
    sender.join();
    ::close(sv[0]);
    ::close(sv[1]);
    ::sigaction(SIGUSR1, &old, nullptr);
    EXPECT_TRUE(sent.load());
    EXPECT_TRUE(got == payload) << "got " << got.size() << " of "
                                << payload.size() << " bytes";
}

/** The framing a chunked response must carry, built independently. */
std::string
chunkedWire(const std::string &body, size_t chunkBytes)
{
    std::string wire;
    char frame[32];
    for (size_t off = 0; off < body.size(); off += chunkBytes) {
        const size_t n = std::min(chunkBytes, body.size() - off);
        std::snprintf(frame, sizeof(frame), "%zx\r\n", n);
        wire += frame;
        wire.append(body, off, n);
        wire += "\r\n";
    }
    return wire + "0\r\n\r\n";
}

TEST(HttpWire, LargeBodiesAreExactOnTheWire)
{
    // Plain and chunked bodies that span many chunks (more frames than
    // one sendmsg takes), read by a client with a small receive
    // buffer, must match the documented framing byte for byte.
    constexpr size_t kChunk = 1000;
    const std::string body = patternBytes(kChunk * 700 + 123);
    HttpServerOptions opts;
    opts.workers = 2;
    opts.chunkBytes = kChunk;
    HttpServer server(opts);
    server.start([&](const HttpRequest &req) {
        HttpResponse resp;
        resp.contentType = "application/octet-stream";
        resp.body = req.path == "/empty" ? "" : body;
        resp.chunked = req.path != "/plain";
        return resp;
    });

    const auto fetch = [&](const std::string &path) {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        const int small = 4096;
        ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(static_cast<uint16_t>(server.port()));
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                            sizeof(addr)),
                  0);
        const std::string req =
            "GET " + path + " HTTP/1.1\r\nConnection: close\r\n\r\n";
        EXPECT_TRUE(net::sendAll(fd, req.data(), req.size()));
        std::string wire = readToEof(fd);
        ::close(fd);
        return wire;
    };
    const std::string head =
        "HTTP/1.1 200 OK\r\nServer: roofline-serve\r\n"
        "Content-Type: application/octet-stream\r\n"
        "Connection: close\r\n";

    EXPECT_TRUE(fetch("/plain") ==
                head + "Content-Length: " + std::to_string(body.size()) +
                    "\r\n\r\n" + body);
    EXPECT_TRUE(fetch("/chunked") ==
                head + "Transfer-Encoding: chunked\r\n\r\n" +
                    chunkedWire(body, kChunk));
    EXPECT_EQ(fetch("/empty"),
              head + "Transfer-Encoding: chunked\r\n\r\n0\r\n\r\n");

    // The in-repo client decodes the same bodies over keep-alive.
    HttpClient client("127.0.0.1", server.port());
    for (const char *path : {"/plain", "/chunked", "/plain"}) {
        ClientResponse resp;
        ASSERT_TRUE(client.request("GET", path, &resp));
        EXPECT_EQ(resp.status, 200);
        EXPECT_TRUE(resp.body == body) << path;
    }
    server.stop();
}

// ---------------------------------------------------- request reader

/** One random edit of @p s: byte flip, insert, delete or duplicate. */
void
mutate(std::string &s, rfl::Rng &rng)
{
    static const std::string kTokens[] = {
        "\r\n", "\r\n\r\n", "\n", ":", " ", "\t", "?", "&", "=",
        "Content-Length: ", "content-length:0\r\n", "-1", "+7",
        "99999999999999999999", "4097", "HTTP/1.", "HTTP/2.0",
        "Expect: 100-continue\r\n", "Connection: close\r\n",
        std::string(1, '\0'), "\xc3\xa9", "GET / HTTP/1.1\r\n\r\n",
    };
    const size_t pos = s.empty() ? 0 : rng.nextBounded(s.size());
    switch (rng.nextBounded(4)) {
      case 0:
        if (!s.empty())
            s[pos] = static_cast<char>(rng.nextBounded(256));
        break;
      case 1:
        s.insert(pos, kTokens[rng.nextBounded(std::size(kTokens))]);
        break;
      case 2:
        s.erase(pos, rng.nextBounded(8) + 1);
        break;
      case 3:
        s.insert(pos, s.substr(pos, rng.nextBounded(32) + 1));
        break;
    }
}

/** The request as a client would send it (headers from the map). */
std::string
serialize(const HttpRequest &req)
{
    std::string wire = req.method + " " + req.target + " HTTP/1.1\r\n";
    for (const auto &[name, value] : req.headers)
        wire += name + ": " + value + "\r\n";
    return wire + "\r\n" + req.body;
}

/**
 * Feed @p input to readRequest over a socketpair whose far end is
 * closed for writing, and collect every request it yields before it
 * stops. @p end receives the result that stopped it.
 */
std::vector<HttpRequest>
readAll(const std::string &input, ReadResult *end)
{
    int sv[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    EXPECT_TRUE(net::sendAll(sv[1], input.data(), input.size()));
    ::shutdown(sv[1], SHUT_WR);
    HttpServerOptions opts;
    opts.maxRequestBytes = 4096;
    const std::atomic<bool> stopping{false};
    std::string buffer;
    std::vector<HttpRequest> out;
    for (;;) {
        HttpRequest req;
        *end = readRequest(sv[0], buffer, req, opts, stopping);
        if (*end != ReadResult::Ok)
            break;
        out.push_back(std::move(req));
    }
    ::close(sv[0]);
    ::close(sv[1]);
    return out;
}

/**
 * Crash and hang regressions found by the fuzzer below, replayed
 * first. None so far: the reader survived the fixed budget on every
 * seed tried (20261021 is the committed one).
 */
const std::vector<std::string> kRegressions = {};

TEST(HttpRequestFuzz, EveryInputIsRejectedOrRoundTrips)
{
    const std::string spec =
        "name = fuzz\nmachine = small\nkernel = sum:n=64\n";
    const std::vector<std::string> corpus = {
        "GET /healthz HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n",
        "POST /v1/campaigns HTTP/1.1\r\nHost: x\r\n"
        "Content-Type: text/plain\r\nContent-Length: " +
            std::to_string(spec.size()) + "\r\n\r\n" + spec,
        "POST /v1/campaigns HTTP/1.1\r\nExpect: 100-continue\r\n"
        "Content-Length: 5\r\n\r\nhello",
        "GET /v1/campaigns/0123456789abcdef/roofline.svg?scenario=1&x "
        "HTTP/1.1\r\nX-Request-Id: r7\r\nConnection: close\r\n\r\n",
        // Two pipelined requests in one segment.
        "GET /statsz HTTP/1.1\r\n\r\nGET /metricsz HTTP/1.0\r\n"
        "Accept:  text/plain \r\n\r\n",
    };
    std::vector<std::string> inputs = kRegressions;
    rfl::Rng rng(20261021);
    for (int iter = 0; iter < 20000; ++iter) {
        std::string input = corpus[rng.nextBounded(corpus.size())];
        const int edits = static_cast<int>(rng.nextBounded(6)) + 1;
        for (int e = 0; e < edits; ++e)
            mutate(input, rng);
        inputs.push_back(std::move(input));
    }

    size_t parsed = 0;
    for (const std::string &input : inputs) {
        ReadResult end;
        const std::vector<HttpRequest> reqs = readAll(input, &end);
        parsed += reqs.size();
        for (const HttpRequest &req : reqs) {
            ASSERT_EQ(req.path + (req.target.find('?') ==
                                          std::string::npos
                                      ? ""
                                      : "?" + req.query),
                      req.target)
                << "input: " << input;
            // A parsed request, sent again as a client would, reads
            // back as the same request.
            ReadResult again;
            const std::vector<HttpRequest> back =
                readAll(serialize(req), &again);
            ASSERT_EQ(back.size(), 1u) << "input: " << input;
            EXPECT_EQ(back[0].method, req.method);
            EXPECT_EQ(back[0].target, req.target);
            EXPECT_EQ(back[0].headers, req.headers);
            ASSERT_EQ(back[0].body, req.body) << "input: " << input;
        }
    }
    // The budget must exercise the accept path, not only rejection.
    EXPECT_GT(parsed, 5000u);
}

} // namespace
