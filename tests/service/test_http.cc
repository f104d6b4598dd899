/**
 * @file
 * End-to-end HTTP tests: real sockets against a real server. Covers
 * the protocol surface (keep-alive, Content-Length framing, error codes),
 * the API contract, rate limiting, and the acceptance requirement
 * that artifact endpoints byte-match the offline CLI artifact files
 * for the same spec.
 */

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/analysis.hh"
#include "campaign/executor.hh"
#include "service/api.hh"
#include "service/http_client.hh"
#include "service/http_server.hh"
#include "service/job_queue.hh"
#include "service/session.hh"
#include "support/json.hh"
#include "telemetry/metrics.hh"

namespace
{

using namespace rfl;
using namespace rfl::service;

const char *const kSpec =
    "name = http-test\n"
    "machine = small\n"
    "kernel = daxpy:n=4096\n"
    "kernel = sum:n=4096\n"
    "phase = fft:n=1024 period=1024\n"
    "variant = cold-1c: protocol=cold cores=0 reps=1\n"
    "variant = warm-1c: protocol=warm cores=0 reps=2\n";

/** One full service stack on an ephemeral port. */
class HttpServiceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        JobQueueOptions qopts;
        qopts.workers = 1;
        qopts.exec.threads = 2;
        queue_ = std::make_unique<JobQueue>(qopts);
        sessions_ = std::make_unique<SessionTable>(SessionOptions{
            /*ratePerSec=*/0.0, /*burst=*/32.0,
            /*logRequests=*/false});
        api_ = std::make_unique<ApiHandler>(*queue_, *sessions_);

        HttpServerOptions hopts;
        hopts.port = 0;
        hopts.workers = 8;
        server_ = std::make_unique<HttpServer>(hopts);
        server_->start([this](const HttpRequest &req) {
            return api_->handle(req);
        });
        api_->setServerStats([this] { return server_->stats(); });
    }

    void
    TearDown() override
    {
        server_->stop();
        queue_->stop();
    }

    /** Submit @p spec and poll over HTTP until done; @return id. */
    std::string
    submitAndWait(HttpClient &client, const std::string &spec)
    {
        ClientResponse resp;
        EXPECT_TRUE(client.request("POST", "/v1/campaigns", &resp,
                                   spec));
        EXPECT_TRUE(resp.status == 202 || resp.status == 200)
            << resp.status << " " << resp.body;
        const std::string id = jsonField(resp.body, "id");
        EXPECT_EQ(id.size(), 16u) << resp.body;
        for (int i = 0; i < 600; ++i) {
            EXPECT_TRUE(client.request(
                "GET", "/v1/campaigns/" + id, &resp));
            const std::string state = jsonField(resp.body, "state");
            if (state == "done")
                return id;
            if (state == "failed") {
                ADD_FAILURE() << "campaign failed: " << resp.body;
                return id;
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
        }
        ADD_FAILURE() << "campaign did not finish";
        return id;
    }

    /** Crude extractor for top-level string members of flat JSON. */
    static std::string
    jsonField(const std::string &body, const std::string &key)
    {
        const std::string needle = "\"" + key + "\":\"";
        const size_t at = body.find(needle);
        if (at == std::string::npos)
            return "";
        const size_t start = at + needle.size();
        const size_t end = body.find('"', start);
        return body.substr(start, end - start);
    }

    std::unique_ptr<JobQueue> queue_;
    std::unique_ptr<SessionTable> sessions_;
    std::unique_ptr<ApiHandler> api_;
    std::unique_ptr<HttpServer> server_;
};

TEST_F(HttpServiceTest, HealthzAndErrors)
{
    HttpClient client("127.0.0.1", server_->port());
    ClientResponse resp;

    ASSERT_TRUE(client.request("GET", "/healthz", &resp));
    EXPECT_EQ(resp.status, 200);
    EXPECT_NE(resp.body.find("\"status\":\"ok\""), std::string::npos);

    ASSERT_TRUE(client.request("GET", "/no/such/route", &resp));
    EXPECT_EQ(resp.status, 404);

    ASSERT_TRUE(client.request("GET", "/v1/campaigns", &resp));
    EXPECT_EQ(resp.status, 405) << "submission is POST-only";

    ASSERT_TRUE(client.request("POST", "/v1/campaigns", &resp,
                               "machine = small\n"));
    EXPECT_EQ(resp.status, 400) << "invalid spec must answer 400";

    ASSERT_TRUE(client.request("GET",
                               "/v1/campaigns/0123456789abcdef",
                               &resp));
    EXPECT_EQ(resp.status, 404);
}

TEST_F(HttpServiceTest, KeepAliveServesManyRequestsPerConnection)
{
    HttpClient client("127.0.0.1", server_->port());
    ClientResponse resp;
    for (int i = 0; i < 20; ++i) {
        ASSERT_TRUE(client.request("GET", "/healthz", &resp));
        ASSERT_EQ(resp.status, 200);
    }
    const HttpServerStats stats = server_->stats();
    EXPECT_EQ(stats.connectionsAccepted, 1u)
        << "keep-alive must reuse the one connection";
    EXPECT_EQ(stats.requestsServed, 20u);
}

TEST_F(HttpServiceTest, JsonEnvelopeSubmissionWorks)
{
    HttpClient client("127.0.0.1", server_->port());
    ClientResponse resp;

    // {"spec": "..."} with escaped newlines.
    Json envelope = Json::makeObject();
    envelope.set("spec", Json::makeString(
                             "name = http-envelope\n"
                             "machine = small\n"
                             "kernel = daxpy:n=4096\n"
                             "variant = cold-1c: protocol=cold "
                             "cores=0 reps=1\n"));
    ASSERT_TRUE(client.request("POST", "/v1/campaigns", &resp,
                               envelope.dump(), "application/json"));
    EXPECT_EQ(resp.status, 202) << resp.body;

    ASSERT_TRUE(client.request("POST", "/v1/campaigns", &resp,
                               "{\"nospec\":1}",
                               "application/json"));
    EXPECT_EQ(resp.status, 400);
}

TEST_F(HttpServiceTest, StandardClientEnvelopeEscapesAreDecoded)
{
    HttpClient client("127.0.0.1", server_->port());
    ClientResponse resp;

    // Python's json.dumps output for a spec with "café" and an emoji
    // (\u escapes, a surrogate pair, ": " separator), plus the \/
    // escape other encoders write.
    const std::string body =
        "{\"spec\": \"# caf\\u00e9 \\/ \\ud83d\\ude42\\n"
        "name = http-unicode\\nmachine = small\\n"
        "kernel = daxpy:n=4096\\n"
        "variant = cold-1c: protocol=cold cores=0 reps=1\\n\"}";
    ASSERT_TRUE(client.request("POST", "/v1/campaigns", &resp, body,
                               "application/json"));
    EXPECT_EQ(resp.status, 202) << resp.body;
}

TEST_F(HttpServiceTest, OverDeepEnvelopeIsRejectedAndServerSurvives)
{
    HttpClient client("127.0.0.1", server_->port());
    ClientResponse resp;

    // Unbounded recursion overflowed the stack near 35 000 levels.
    const std::string body = "{\"spec\":" + std::string(50000, '[');
    ASSERT_TRUE(client.request("POST", "/v1/campaigns", &resp, body,
                               "application/json"));
    EXPECT_EQ(resp.status, 400) << resp.body;

    ASSERT_TRUE(client.request("GET", "/healthz", &resp));
    EXPECT_EQ(resp.status, 200);
}

TEST_F(HttpServiceTest, BadKernelParametersAnswer400AndServerSurvives)
{
    HttpClient client("127.0.0.1", server_->port());
    ClientResponse resp;

    // A bad kernel parameter is the client's error: a 400 naming it,
    // never a crash of the daemon.
    for (const char *kernel : {"sum:n=-1", "daxpy:n=0"}) {
        const std::string body = std::string("machine = small\nkernel = ") +
                                 kernel +
                                 "\nvariant = v: protocol=cold cores=0\n";
        ASSERT_TRUE(client.request("POST", "/v1/campaigns", &resp, body));
        EXPECT_EQ(resp.status, 400) << kernel << ": " << resp.body;
        EXPECT_NE(resp.body.find("n="), std::string::npos)
            << "the error names the parameter: " << resp.body;
    }

    ASSERT_TRUE(client.request("GET", "/healthz", &resp));
    EXPECT_EQ(resp.status, 200);
}

TEST_F(HttpServiceTest, ArtifactEndpointsByteMatchOfflineCli)
{
    HttpClient client("127.0.0.1", server_->port());
    const std::string id = submitAndWait(client, kSpec);

    // Offline equivalent: same spec through the same executor path
    // the CLI uses, artifacts written to disk.
    const std::string dir =
        ::testing::TempDir() + "rfl_http_offline_report";
    const campaign::CampaignSpec spec =
        campaign::parseCampaignSpec(kSpec);
    const campaign::CampaignRun run =
        campaign::CampaignExecutor(campaign::ExecutorOptions{})
            .run(spec);
    const analysis::CampaignAnalysis doc =
        analysis::analyzeCampaign(run);
    const analysis::ReportPaths paths =
        analysis::writeAnalysisReport(doc, dir, spec.name());

    const auto slurp = [](const std::string &path) {
        std::ifstream in(path, std::ios::binary);
        EXPECT_TRUE(in.good()) << path;
        std::ostringstream out;
        out << in.rdbuf();
        return out.str();
    };

    ClientResponse resp;
    ASSERT_TRUE(client.request(
        "GET", "/v1/campaigns/" + id + "/analysis", &resp));
    EXPECT_EQ(resp.status, 200);
    EXPECT_EQ(resp.body, slurp(paths.json))
        << "served analysis.json differs from the CLI file";

    ASSERT_TRUE(client.request(
        "GET", "/v1/campaigns/" + id + "/report.html", &resp));
    EXPECT_EQ(resp.status, 200);
    EXPECT_EQ(resp.body, slurp(paths.html))
        << "served report.html differs from the CLI file";

    ASSERT_EQ(paths.svgs.size(), 2u); // two scenarios
    for (size_t i = 0; i < paths.svgs.size(); ++i) {
        ASSERT_TRUE(client.request(
            "GET",
            "/v1/campaigns/" + id +
                "/roofline.svg?scenario=" + std::to_string(i),
            &resp));
        EXPECT_EQ(resp.status, 200);
        EXPECT_EQ(resp.body, slurp(paths.svgs[i]))
            << "served SVG " << i << " differs from the CLI file";
    }

    // Out-of-range scenario and premature artifacts answer cleanly.
    ASSERT_TRUE(client.request(
        "GET", "/v1/campaigns/" + id + "/roofline.svg?scenario=9",
        &resp));
    EXPECT_EQ(resp.status, 404);
}

TEST_F(HttpServiceTest, NotReadyArtifactsAnswer409)
{
    HttpClient client("127.0.0.1", server_->port());
    ClientResponse resp;
    // Big enough that the analysis fetch lands before completion.
    ASSERT_TRUE(client.request(
        "POST", "/v1/campaigns", &resp,
        "name = http-slow\n"
        "machine = default\n"
        "kernel = triad:n=2097152\n"
        "variant = warm-1c: protocol=warm cores=0 reps=3\n"));
    ASSERT_EQ(resp.status, 202) << resp.body;
    const std::string id = jsonField(resp.body, "id");

    ASSERT_TRUE(client.request(
        "GET", "/v1/campaigns/" + id + "/analysis", &resp));
    if (resp.status != 200) { // finished-already is legal, just rare
        EXPECT_EQ(resp.status, 409);
        EXPECT_NE(resp.body.find("not finished"), std::string::npos);
    }
    queue_->waitFor(id, 120.0);
}

TEST(HttpServiceRateLimit, OverRateClientsGet429ButHealthzPasses)
{
    JobQueueOptions qopts;
    qopts.workers = 1;
    JobQueue queue(qopts);
    SessionTable sessions(SessionOptions{/*ratePerSec=*/0.001,
                                         /*burst=*/2.0,
                                         /*logRequests=*/false});
    ApiHandler api(queue, sessions);

    HttpServerOptions hopts;
    hopts.port = 0;
    hopts.workers = 2;
    HttpServer server(hopts);
    server.start(
        [&api](const HttpRequest &req) { return api.handle(req); });

    HttpClient client("127.0.0.1", server.port());
    ClientResponse resp;
    // Burst of 2 passes, the third is throttled (unknown tickets are
    // still rate-limited requests).
    ASSERT_TRUE(client.request("GET", "/v1/campaigns/nope", &resp));
    EXPECT_EQ(resp.status, 404);
    ASSERT_TRUE(client.request("GET", "/v1/campaigns/nope", &resp));
    EXPECT_EQ(resp.status, 404);
    ASSERT_TRUE(client.request("GET", "/v1/campaigns/nope", &resp));
    EXPECT_EQ(resp.status, 429);
    // Backpressure responses tell well-behaved clients when to return.
    ASSERT_NE(resp.headers.find("retry-after"), resp.headers.end());
    EXPECT_EQ(resp.headers.at("retry-after"), "1");

    // Liveness probes and metric scrapers bypass the limiter.
    ASSERT_TRUE(client.request("GET", "/healthz", &resp));
    EXPECT_EQ(resp.status, 200);
    ASSERT_TRUE(client.request("GET", "/statsz", &resp));
    EXPECT_EQ(resp.status, 200);
    ASSERT_TRUE(client.request("GET", "/metricsz", &resp));
    EXPECT_EQ(resp.status, 200);

    EXPECT_GE(sessions.stats().rateLimited, 1u);
    server.stop();
}

TEST_F(HttpServiceTest, StatszReportsDedupAndCacheCounters)
{
    HttpClient client("127.0.0.1", server_->port());
    const std::string id = submitAndWait(client, kSpec);

    // Identical resubmission: pure dedup, no new execution.
    ClientResponse resp;
    ASSERT_TRUE(client.request("POST", "/v1/campaigns", &resp,
                               kSpec));
    EXPECT_EQ(resp.status, 200) << resp.body;
    EXPECT_NE(resp.body.find("\"deduplicated\":true"),
              std::string::npos);
    EXPECT_NE(resp.body.find("\"id\":\"" + id + "\""),
              std::string::npos);

    ASSERT_TRUE(client.request("GET", "/statsz", &resp));
    EXPECT_EQ(resp.status, 200);
    EXPECT_NE(resp.body.find("\"executed\":1"), std::string::npos)
        << resp.body;
    EXPECT_NE(resp.body.find("\"deduplicated\":1"),
              std::string::npos);
    EXPECT_NE(resp.body.find("\"stores\":"), std::string::npos);
}

TEST_F(HttpServiceTest, MetricszCountersMoveAcrossSubmitToDone)
{
    HttpClient client("127.0.0.1", server_->port());
    ClientResponse resp;

    // A metric's value on the line "name 3" / "name{labels} 3".
    const auto metricValue = [](const std::string &text,
                                const std::string &name) -> double {
        std::istringstream lines(text);
        for (std::string line; std::getline(lines, line);) {
            if (line.rfind(name, 0) != 0)
                continue;
            const char after = line.size() > name.size()
                                   ? line[name.size()]
                                   : '\0';
            if (after != ' ' && after != '{')
                continue; // prefix of a longer family name
            const size_t sp = line.rfind(' ');
            return std::stod(line.substr(sp + 1));
        }
        ADD_FAILURE() << "metric " << name << " not exposed";
        return -1.0;
    };

    ASSERT_TRUE(client.request("GET", "/metricsz", &resp));
    EXPECT_EQ(resp.status, 200);
    EXPECT_NE(resp.headers["content-type"].find("version=0.0.4"),
              std::string::npos)
        << "Prometheus scrapers key on the 0.0.4 content type";
    const double executedBefore =
        metricValue(resp.body, "rfl_queue_executed_total");

    const std::string id = submitAndWait(client, kSpec);

    ASSERT_TRUE(client.request("GET", "/metricsz", &resp));
    EXPECT_EQ(resp.status, 200);
    // The full submit -> done cycle must be visible in the registry:
    // queue counters, turnaround histogram and HTTP families all move.
    EXPECT_EQ(metricValue(resp.body, "rfl_queue_executed_total"),
              executedBefore + 1);
    EXPECT_GE(metricValue(resp.body, "rfl_queue_submitted_total"),
              1.0);
    EXPECT_GE(
        metricValue(resp.body, "rfl_queue_turnaround_seconds_count"),
        1.0);
    EXPECT_GE(metricValue(resp.body, "rfl_campaign_job_seconds_count"),
              1.0);
    EXPECT_GE(metricValue(resp.body, "rfl_http_requests_total"), 2.0);
    EXPECT_NE(resp.body.find("# TYPE rfl_queue_executed_total counter"),
              std::string::npos);
    EXPECT_NE(resp.body.find(
                  "rfl_http_request_seconds_bucket{endpoint="),
              std::string::npos)
        << "per-endpoint latency histograms must be labeled";

    // /statsz serves the same registry as JSON, same numbers.
    ASSERT_TRUE(client.request("GET", "/statsz", &resp));
    EXPECT_EQ(resp.status, 200);
    EXPECT_NE(resp.body.find("\"executed\":1"), std::string::npos);

    // And the span tree of the finished job is fetchable.
    ASSERT_TRUE(client.request("GET", "/tracez", &resp));
    EXPECT_EQ(resp.status, 400) << "?job=<ticket> is required";
    ASSERT_TRUE(client.request(
        "GET", "/tracez?job=0123456789abcdef", &resp));
    EXPECT_EQ(resp.status, 404);
    ASSERT_TRUE(client.request("GET", "/tracez?job=" + id, &resp));
    EXPECT_EQ(resp.status, 200);
    EXPECT_NE(resp.body.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(resp.body.find("\"name\":\"campaign\""),
              std::string::npos);
    EXPECT_NE(resp.body.find("\"name\":\"simulate\""),
              std::string::npos)
        << "executor-level spans must ride the job's tracer";
}


TEST_F(HttpServiceTest, MetricszScrapesWhileSeriesRegisterAndObserve)
{
    // Scrapes race with threads that register fresh series (labeled
    // histograms, and endpoint series on their first request) and
    // observe into them. Every scrape must parse line by line, and the
    // last one carries every observation. Under ThreadSanitizer this
    // is the race test for render, registration and observe.
    constexpr int kThreads = 4;
    constexpr int kSeries = 50;
    constexpr int kObservations = 40;
    const char *const paths[] = {"/healthz", "/statsz", "/tracez",
                                 "/seriesz", "/nope",
                                 "/v1/campaigns/0123456789abcdef"};
    std::atomic<bool> go{false};
    std::atomic<int> running{kThreads};
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
        writers.emplace_back([&, t] {
            while (!go.load())
                std::this_thread::yield();
            for (int i = 0; i < kSeries; ++i) {
                telemetry::Histogram &h =
                    telemetry::Registry::global().histogram(
                        "rfl_test_scrape_race_seconds", "race",
                        {{"series", std::to_string(t * kSeries + i)}});
                for (int k = 0; k < kObservations; ++k)
                    h.observe(1e-3);
                HttpRequest req;
                req.method = "GET";
                req.target = req.path =
                    paths[(t + i) % std::size(paths)];
                req.clientAddr = "127.0.0.1";
                (void)api_->handle(req);
            }
            running.fetch_sub(1);
        });
    }

    HttpClient client("127.0.0.1", server_->port());
    const auto scrapeParses = [&](std::string *text) {
        ClientResponse resp;
        if (!client.request("GET", "/metricsz", &resp) ||
            resp.status != 200)
            return false;
        std::istringstream lines(resp.body);
        for (std::string line; std::getline(lines, line);) {
            if (line.rfind("# HELP ", 0) == 0 ||
                line.rfind("# TYPE ", 0) == 0)
                continue;
            const size_t sp = line.rfind(' ');
            if (sp == std::string::npos || sp == 0)
                return false;
            const std::string value = line.substr(sp + 1);
            char *end = nullptr;
            std::strtod(value.c_str(), &end);
            if (value.empty() || *end != '\0')
                return false;
        }
        *text = resp.body;
        return true;
    };
    std::string text;
    ASSERT_TRUE(scrapeParses(&text)); // connection up before the race
    go.store(true);
    bool parsed = true;
    while (parsed && running.load() > 0)
        parsed = scrapeParses(&text);
    for (std::thread &w : writers)
        w.join();
    ASSERT_TRUE(parsed) << "a scrape during the race did not parse";
    ASSERT_TRUE(scrapeParses(&text));
    for (int s = 0; s < kThreads * kSeries; ++s) {
        EXPECT_NE(text.find("rfl_test_scrape_race_seconds_count{series=\"" +
                            std::to_string(s) + "\"} " +
                            std::to_string(kObservations) + "\n"),
                  std::string::npos)
            << "series " << s;
    }
    for (const char *endpoint : {"/healthz", "/statsz", "/tracez",
                                 "/seriesz", "other",
                                 "/v1/campaigns/{id}"}) {
        EXPECT_NE(text.find(std::string("rfl_http_request_seconds_count"
                                        "{endpoint=\"") +
                            endpoint + "\"}"),
                  std::string::npos)
            << endpoint;
    }
}

} // namespace
