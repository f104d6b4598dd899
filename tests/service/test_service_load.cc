/**
 * @file
 * Service load test: many concurrent keep-alive clients against the
 * in-process stack (HttpServer -> ApiHandler -> JobQueue) on a real
 * loopback socket. It checks what the service promises under load, not
 * how fast it is (perfbench times the same endpoints open-loop):
 *
 *   - a cold campaign reaches done, and the same grid under a new name
 *     runs from the result cache alone ("simulated":0);
 *   - every client request is answered (no dropped connection) with
 *     the expected status while clients cycle status polls, analysis
 *     fetches and identical-spec resubmits;
 *   - the resubmits are deduplicated and never execute.
 *
 * Each case runs once with a server thread per client and once with
 * more clients than server threads. A session holds its thread until
 * its client closes, so the clients past the thread count wait in the
 * server's pool until a session ends, and must still be served.
 */

#include <atomic>
#include <chrono>
#include <latch>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "service/api.hh"
#include "service/http_client.hh"
#include "service/http_server.hh"
#include "service/job_queue.hh"
#include "service/session.hh"

namespace
{

using namespace rfl::service;

const char *const kGrid =
    "machine = small\n"
    "kernel = daxpy:n=4096\n"
    "kernel = sum:n=4096\n"
    "kernel = triad:n=4096\n"
    "variant = cold-1c: protocol=cold cores=0 reps=1\n"
    "variant = warm-1c: protocol=warm cores=0 reps=2\n";

/** Clients, server threads and requests per client of one case. */
struct LoadCase
{
    int clients;
    int serverWorkers;
    int requestsPerClient; ///< a multiple of 3: one of each kind
};

void
PrintTo(const LoadCase &lc, std::ostream *os)
{
    *os << lc.clients << " clients on " << lc.serverWorkers
        << " server threads";
}

/** Crude extractor for top-level string members of flat JSON. */
std::string
jsonField(const std::string &body, const std::string &key)
{
    const std::string needle = "\"" + key + "\":\"";
    const size_t at = body.find(needle);
    if (at == std::string::npos)
        return "";
    const size_t start = at + needle.size();
    return body.substr(start, body.find('"', start) - start);
}

class ServiceLoadTest : public ::testing::TestWithParam<LoadCase>
{
  protected:
    void
    SetUp() override
    {
        JobQueueOptions qopts;
        qopts.workers = 2;
        qopts.maxQueued = 64;
        qopts.exec.threads = 2;
        queue_ = std::make_unique<JobQueue>(qopts);
        sessions_ = std::make_unique<SessionTable>(SessionOptions{
            /*ratePerSec=*/0.0, /*burst=*/64.0,
            /*logRequests=*/false});
        api_ = std::make_unique<ApiHandler>(*queue_, *sessions_);

        HttpServerOptions hopts;
        hopts.port = 0;
        hopts.workers = GetParam().serverWorkers;
        server_ = std::make_unique<HttpServer>(hopts);
        server_->start([this](const HttpRequest &req) {
            return api_->handle(req);
        });
    }

    void
    TearDown() override
    {
        server_->stop();
        queue_->stop();
    }

    /** Submit @p spec, poll until done; @return the final status body. */
    std::string
    submitAndWait(HttpClient &client, const std::string &spec)
    {
        ClientResponse resp;
        EXPECT_TRUE(client.request("POST", "/v1/campaigns", &resp, spec));
        EXPECT_TRUE(resp.status == 202 || resp.status == 200)
            << resp.status << " " << resp.body;
        const std::string id = jsonField(resp.body, "id");
        for (int i = 0; i < 3000; ++i) {
            if (!client.request("GET", "/v1/campaigns/" + id, &resp)) {
                ADD_FAILURE() << "status poll dropped";
                return "";
            }
            const std::string state = jsonField(resp.body, "state");
            if (state == "done")
                return resp.body;
            if (state == "failed" || state == "timed_out") {
                ADD_FAILURE() << "campaign " << state << ": " << resp.body;
                return resp.body;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        ADD_FAILURE() << "campaign did not finish";
        return resp.body;
    }

    std::unique_ptr<JobQueue> queue_;
    std::unique_ptr<SessionTable> sessions_;
    std::unique_ptr<ApiHandler> api_;
    std::unique_ptr<HttpServer> server_;
};

TEST_P(ServiceLoadTest, EveryClientIsServedAndResubmitsNeverExecute)
{
    const LoadCase lc = GetParam();
    const std::string coldSpec = std::string("name = load-cold\n") + kGrid;

    // Control connection: closed before the load, so it holds no
    // server thread while the clients run.
    std::string id;
    {
        HttpClient control("127.0.0.1", server_->port());
        const std::string cold = submitAndWait(control, coldSpec);
        id = jsonField(cold, "id");
        ASSERT_EQ(id.size(), 16u) << cold;

        const std::string cached = submitAndWait(
            control, std::string("name = load-cached\n") + kGrid);
        EXPECT_NE(cached.find("\"simulated\":0"), std::string::npos)
            << "the renamed grid must run from the result cache: "
            << cached;
    }

    const std::string statusTarget = "/v1/campaigns/" + id;
    const std::string analysisTarget = statusTarget + "/analysis";
    std::atomic<int> dropped{0};
    std::atomic<int> badStatus{0};
    std::latch ready(lc.clients);
    {
        std::vector<std::thread> clients;
        for (int c = 0; c < lc.clients; ++c) {
            clients.emplace_back([&] {
                HttpClient client("127.0.0.1", server_->port());
                ClientResponse r;
                // Start together, so the clients past the server's
                // thread count queue for a session to end.
                ready.arrive_and_wait();
                for (int i = 0; i < lc.requestsPerClient; ++i) {
                    bool ok;
                    if (i % 3 == 0)
                        ok = client.request("GET", statusTarget, &r);
                    else if (i % 3 == 1)
                        ok = client.request("GET", analysisTarget, &r);
                    else
                        ok = client.request("POST", "/v1/campaigns", &r,
                                            coldSpec);
                    if (!ok) {
                        ++dropped;
                        continue;
                    }
                    if (r.status != 200)
                        ++badStatus;
                }
                // Closing ends the session and frees its server thread
                // for a waiting client.
                client.close();
            });
        }
        for (std::thread &t : clients)
            t.join();
    }

    EXPECT_EQ(dropped.load(), 0) << "dropped connections under load";
    EXPECT_EQ(badStatus.load(), 0) << "unexpected statuses under load";

    const JobQueueStats qs = queue_->stats();
    EXPECT_EQ(qs.executed, 2u) << "dedup resubmits must not execute";
    EXPECT_EQ(qs.deduplicated,
              static_cast<uint64_t>(lc.clients * lc.requestsPerClient / 3));
}

INSTANTIATE_TEST_SUITE_P(
    Clients, ServiceLoadTest,
    ::testing::Values(LoadCase{64, 72, 9}, LoadCase{16, 4, 12}),
    [](const ::testing::TestParamInfo<LoadCase> &info) {
        return std::to_string(info.param.clients) + "On" +
               std::to_string(info.param.serverWorkers) + "Threads";
    });

} // namespace
