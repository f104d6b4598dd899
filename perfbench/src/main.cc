/**
 * @file
 * perfbench: the repository benchmark (see ../README.md).
 *
 *   perfbench --workload <grid-stream|grid-latency>
 *             --seed <n> --seconds <s> --trace <0|1> --out <dir>
 *
 * Every workload runs the same stages, with different inputs:
 *
 *   setup     before every service pass: bring up a fresh in-process
 *             service stack (HttpServer -> ApiHandler -> JobQueue with
 *             roofline_serve's defaults), open the client connections
 *             and warm the workload's small *served* grid into its
 *             empty result cache;
 *   campaign  spec text -> parse -> run -> analyze -> render of the
 *             workload's grid, cold against a fresh on-disk cache per
 *             repetition;
 *   service   passes of an open loop of reads (status, analysis,
 *             roofline.svg, /metricsz) at three fixed offered rates,
 *             cached resubmits at the mid rate, and a rate search.
 *
 * Setups, campaign repetitions and service passes alternate, so a host
 * contention episode shorter than the run moves a minority of each and
 * the medians absorb it. Once the measurement ends, the analysis
 * digests are compared with the committed reference table
 * (reference_digests.json).
 *
 * Layers are timed from outside, around calls into each module's
 * public functions; nothing inside src/ is changed. With --trace 1 the
 * run prints per-layer metrics instead of end-to-end ones, and keeps
 * its spans in memory until the run ends.
 *
 * The last stdout line is one JSON object: correct, attempted, failed,
 * metrics. Any correctness failure makes the exit status non-zero.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/analysis.hh"
#include "analysis/report.hh"
#include "campaign/executor.hh"
#include "campaign/job_graph.hh"
#include "campaign/result_cache.hh"
#include "campaign/serialize.hh"
#include "campaign/spec.hh"
#include "harness.hh"
#include "roofline/experiment.hh"
#include "service/api.hh"
#include "service/http_client.hh"
#include "service/http_server.hh"
#include "service/job_queue.hh"
#include "service/session.hh"
#include "sim/machine.hh"
#include "support/rng.hh"
#include "telemetry/build_info.hh"
#include "telemetry/metrics.hh"
#include "telemetry/sim_counters.hh"
#include "telemetry/span.hh"
#include "telemetry/timeseries.hh"

namespace
{

using namespace rfl;
namespace fs = std::filesystem;
namespace sv = rfl::service;
namespace pb = perfbench;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ------------------------------------------------------------ inputs

/** Fixed offered read rates (requests/s) and the read latency limit;
 *  fixed so that two commits are compared at the same load. All three
 *  sit below the knee: svc_max_rps read 2600-9400 req/s on a shared
 *  4-vCPU host, lowest while other tenants took CPU time from it. */
constexpr double kRateLow = 600.0;
constexpr double kRateMid = 1500.0;
constexpr double kRateHigh = 2500.0;
/** Cached resubmits per second during the mid-rate step. An assumption,
 *  not a measured client pattern: each one is a new ticket that runs the
 *  executor and the renderer, so 25/s keeps writes under 2% of mid-rate
 *  requests while a run still collects a few dozen submit samples. */
constexpr double kWriteRate = 25.0;
/** svc_max_rps: read p99 from the due time must stay within this. */
constexpr double kReadLimitSeconds = 0.025;
/** Step lengths of one low/mid/high pass: >= 500 reads each, so a run
 *  fits several short passes rather than a few long ones. */
constexpr double kLowSeconds = 0.85;
constexpr double kMidSeconds = 0.35;
constexpr double kHighSeconds = 0.2;
/** Rate search, once per pass: geometric steps from kRateHigh, then
 *  bisections, each rate judged on one window of this length. */
constexpr double kSearchFactor = 1.5;
constexpr int kSearchSteps = 4;
constexpr int kBisectSteps = 3;
constexpr double kSearchWindowSeconds = 0.2;
/** Cold Q of a streaming row must match the analytic model this
 *  closely (relative): the bound tests/roofline/test_measurement.cc
 *  puts on the cold daxpy model (tbl_traffic_validation reports the
 *  same error without fixing a bound). */
constexpr double kTrafficTolerance = 0.001;
/** The seed later claims must also hold on; its digests are in the
 *  reference table, and a run whose seed is not re-checks them. */
constexpr uint64_t kHeldOutSeed = 9001;

/** Read endpoints, in request-kind order; kind kWrite is a POST. */
const char *const kEndpoints[] = {"status", "analysis", "svg",
                                  "metricsz"};
constexpr int kReadKinds = 4;
constexpr int kWrite = 4;
/** Equal shares of the read endpoints: bench/service_throughput cycles
 *  its status and analysis reads in equal turns, and with no recorded
 *  client polling pattern to go by, svg and metricsz get the same. */
const std::vector<double> kReadMix = {0.25, 0.25, 0.25, 0.25};

const char *const kWorkloads[] = {"grid-stream", "grid-latency"};

/** Share of --seconds spent in campaign repetitions; the rest goes to
 *  the service passes. */
constexpr double kCampaignShare = 0.5;

/** Variant seeds drawn from the workload seed (kernel data only). */
std::vector<uint64_t>
variantSeeds(uint64_t seed, size_t n)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
    std::vector<uint64_t> out;
    for (size_t i = 0; i < n; ++i)
        out.push_back(1 + rng.nextBounded(1u << 30));
    return out;
}

/**
 * The grid the campaign stage measures. Streaming arrays are 5 Mi
 * doubles (40 MiB), 4x the 10 MiB simulated L3 of the default preset;
 * the pointer chase's 20 MiB cycle is twice the L3, which LRU turns
 * into a miss on every hop, so it stays DRAM-resident warm or cold.
 */
std::string
gridSpec(const std::string &workload, uint64_t seed)
{
    std::ostringstream os;
    os << "name = " << workload << "-s" << seed << "\n"
       << "machine = default\n";
    if (workload == "grid-stream") {
        const auto s = variantSeeds(seed, 3);
        os << "kernel = sum:n=5242880\n"
           << "kernel = daxpy:n=5242880\n"
           << "kernel = triad:n=5242880\n"
           << "kernel = stencil3:n=5242880\n"
           << "kernel = dgemm-opt:n=160\n"
           << "variant = cold-1c: protocol=cold cores=0 reps=1 seed="
           << s[0] << "\n"
           << "variant = local-1s: protocol=cold cores=4-7 reps=1 "
              "numa=local seed="
           << s[1] << "\n"
           << "variant = socket0-1s: protocol=cold cores=4-7 reps=1 "
              "numa=socket0 seed="
           << s[2] << "\n";
    } else if (workload == "grid-latency") {
        const auto s = variantSeeds(seed, 2);
        os << "kernel = pointer-chase:nodes=327680\n"
           << "kernel = spmv-csr:rows=65536,nnz=16\n"
           << "kernel = strided-sum:n=262144,stride=16\n"
           << "kernel = fft:n=65536\n"
           << "trace = daxpy:n=262144\n"
           << "phase = stencil3:n=262144 period=8192\n"
           << "variant = cold-1c: protocol=cold cores=0 reps=1 seed="
           << s[0] << "\n"
           << "variant = warm-1c: protocol=warm cores=0 reps=1 seed="
           << s[1] << "\n";
    }
    return os.str();
}

/**
 * The grid the service serves (warmed during setup): the workload's
 * kernel family at a small size. @p name lets resubmits carry a new
 * ticket over the same cache keys.
 */
std::string
serveSpec(const std::string &workload, uint64_t seed,
          const std::string &name)
{
    const auto s = variantSeeds(seed ^ 0x5e7e, 2);
    std::ostringstream os;
    os << "name = " << name << "\n"
       << "machine = default\n";
    if (workload == "grid-stream") {
        os << "kernel = sum:n=262144\n"
           << "kernel = daxpy:n=262144\n"
           << "kernel = triad:n=262144\n"
           << "kernel = stencil3:n=262144\n"
           << "kernel = dgemm-opt:n=64\n";
    } else {
        os << "kernel = pointer-chase:nodes=16384\n"
           << "kernel = spmv-csr:rows=4096,nnz=16\n"
           << "kernel = strided-sum:n=16384,stride=16\n"
           << "kernel = fft:n=4096\n"
           << "trace = daxpy:n=16384\n"
           << "phase = stencil3:n=16384 period=2048\n";
    }
    os << "variant = cold-1c: protocol=cold cores=0 reps=1 seed=" << s[0]
       << "\n"
       << "variant = warm-1c: protocol=warm cores=0 reps=1 seed=" << s[1]
       << "\n";
    return os.str();
}

/** Ticket name of the served grid. */
std::string
serveName(const std::string &workload, uint64_t seed)
{
    return workload + "-serve-s" + std::to_string(seed);
}

// ----------------------------------------------------------- metrics

/** Ordered name -> (value, unit, summary) map for the output. */
class Metrics
{
  public:
    void set(const std::string &name, double value, const char *unit,
             pb::Summary summary = {})
    {
        if (summary.n == 0) {
            summary.n = 1;
            summary.median = value;
        }
        for (Entry &e : entries_) {
            if (e.name == name) {
                e = {name, value, unit, summary};
                return;
            }
        }
        entries_.push_back({name, value, unit, summary});
    }

    /** Set @p name to the median of @p samples (with its summary). */
    void setMedian(const std::string &name,
                   const std::vector<double> &samples, const char *unit)
    {
        const pb::Summary s = pb::summarize(samples);
        set(name, s.median, unit, s);
    }

    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
        pb::Summary summary;
    };
    const std::vector<Entry> &entries() const { return entries_; }

  private:
    std::vector<Entry> entries_;
};

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    return campaign::Json::makeString(s).dump();
}

// ------------------------------------------------------ campaign flow

/** One timed pass of spec text -> analysis.json + report. */
struct Flow
{
    double wall = 0.0;
    double parse = 0.0;
    double analyze = 0.0;
    double render = 0.0;
    campaign::CampaignRun result;
    analysis::CampaignAnalysis doc;
    std::string json; ///< the analysis.json artifact
};

/**
 * Run @p text the way roofline_campaign does, timing each layer call.
 * With a tracer, the calls also record benchmark-side spans and the
 * executor records its per-job span trees into the same tracer.
 */
Flow
runFlow(const std::string &text, campaign::ResultCache *cache,
        const std::string &traceDir, telemetry::Tracer *tracer)
{
    Flow f;
    telemetry::TraceScope scope(tracer);
    const Clock::time_point t0 = Clock::now();
    std::optional<campaign::CampaignSpec> spec;
    {
        telemetry::Span span("campaign.parse");
        spec.emplace(campaign::parseCampaignSpec(text));
    }
    const Clock::time_point t1 = Clock::now();
    {
        telemetry::Span span("campaign.run");
        campaign::ExecutorOptions opts;
        opts.cache = cache;
        opts.traceDir = traceDir;
        f.result = campaign::CampaignExecutor(opts).run(*spec, tracer);
    }
    const Clock::time_point t2 = Clock::now();
    {
        telemetry::Span span("analysis.analyze");
        f.doc = analysis::analyzeCampaign(f.result);
    }
    const Clock::time_point t3 = Clock::now();
    {
        telemetry::Span span("analysis.render");
        f.json = analysis::renderAnalysisReport(f.doc, spec->name()).json;
    }
    const Clock::time_point t4 = Clock::now();
    const auto d = [](Clock::time_point a, Clock::time_point b) {
        return std::chrono::duration<double>(b - a).count();
    };
    f.parse = d(t0, t1);
    f.analyze = d(t2, t3);
    f.render = d(t3, t4);
    f.wall = d(t0, t4);
    return f;
}

bool
isStreamingKernel(const std::string &kernel)
{
    return kernel == "sum" || kernel == "daxpy" || kernel == "triad" ||
           kernel == "stencil3";
}

/** Output checks on one campaign pass; "" when every check holds. */
std::string
checkFlow(const Flow &f)
{
    const campaign::CampaignRun &r = f.result;
    if (r.completionOrder.size() != r.jobs.size())
        return "campaign: not every job completed";
    for (const roofline::Measurement &m : r.measurements()) {
        // Exact up to the O(1) horizontal (lanes - 1 per core) and
        // partition (cores - 1) combines the kernel models leave out.
        if (m.expectedFlops > 0.0 &&
            std::fabs(m.flops - m.expectedFlops) >=
                static_cast<double>(m.cores) * m.lanes) {
            return "campaign: W of " + m.kernel + " " + m.sizeLabel +
                   " differs from Kernel::expectedFlops()";
        }
        if (m.protocol == "cold" && isStreamingKernel(m.kernel) &&
            !(m.trafficError() <= kTrafficTolerance)) {
            return "campaign: cold Q of " + m.kernel + " " +
                   m.sizeLabel + " off the analytic model by " +
                   std::to_string(m.trafficError());
        }
    }
    return "";
}

/**
 * The analysis digests of @p workload at @p seed: its grid run cold in
 * a fresh cache under @p dir, then its served grid over the same cache.
 * Output-check failures go to @p ledger.
 */
pb::ReferenceDigests
digestsOf(const std::string &workload, uint64_t seed, const std::string &dir,
          pb::Ledger &ledger)
{
    const std::string d = dir + "/reference-" + std::to_string(seed);
    fs::create_directories(d);
    pb::ReferenceDigests out;
    {
        campaign::ResultCache cache(d + "/cache.jsonl");
        const Flow grid = runFlow(gridSpec(workload, seed), &cache,
                                  d + "/traces", nullptr);
        const Flow served =
            runFlow(serveSpec(workload, seed, serveName(workload, seed)),
                    &cache, d + "/traces", nullptr);
        const std::string error = checkFlow(grid) + checkFlow(served);
        ledger.expect(error.empty(), "seed " + std::to_string(seed) +
                                         " reference run: " + error);
        out = {pb::digestHex(grid.json), pb::digestHex(served.json)};
    }
    fs::remove_all(d);
    return out;
}

// ---------------------------------------------------- service stack

/** The in-process roofline_serve stack with its default options
 *  (request logging off: it would only time stderr). */
class ServiceStack
{
  public:
    explicit ServiceStack(const std::string &dir)
    {
        fs::create_directories(dir);
        sv::JobQueueOptions qopts;
        qopts.exec.traceDir = dir + "/traces";
        qopts.cachePath = dir + "/serve.jsonl";
        telemetry::setSimTelemetryEnabled(true);
        queue_ = std::make_unique<sv::JobQueue>(qopts);
        sv::SessionOptions sopts;
        sopts.logRequests = false;
        sessions_ = std::make_unique<sv::SessionTable>(sopts);
        api_ = std::make_unique<sv::ApiHandler>(*queue_, *sessions_);
        telemetry::TimeSeriesOptions tsopts;
        tsopts.intervalSeconds = 1.0;
        tsopts.capacity = 600;
        sampler_ = std::make_unique<telemetry::TimeSeriesSampler>(
            telemetry::Registry::global(), tsopts);
        sampler_->start();
        api_->setTimeSeriesSampler(sampler_.get());
        sv::HttpServerOptions hopts;
        hopts.workers = 64;
        server_ = std::make_unique<sv::HttpServer>(hopts);
        sv::ApiHandler *api = api_.get();
        server_->start(
            [api](const sv::HttpRequest &req) { return api->handle(req); });
        sv::HttpServer *server = server_.get();
        api_->setServerStats([server] { return server->stats(); });
        cachePath_ = qopts.cachePath;
    }

    /** roofline_serve's shutdown order: server, sampler, queue. */
    ~ServiceStack()
    {
        server_->stop();
        sampler_->stop();
        queue_->stop();
        server_.reset();
        sampler_.reset();
        api_.reset();
        sessions_.reset();
        queue_.reset();
    }

    ServiceStack(const ServiceStack &) = delete;
    ServiceStack &operator=(const ServiceStack &) = delete;

    sv::JobQueue &queue() { return *queue_; }
    sv::ApiHandler &api() { return *api_; }
    int port() const { return server_->port(); }
    const std::string &cachePath() const { return cachePath_; }

  private:
    std::unique_ptr<sv::JobQueue> queue_;
    std::unique_ptr<sv::SessionTable> sessions_;
    std::unique_ptr<sv::ApiHandler> api_;
    std::unique_ptr<telemetry::TimeSeriesSampler> sampler_;
    std::unique_ptr<sv::HttpServer> server_;
    std::string cachePath_;
};

/** Parsed top-level fields of a status body, or nullopt. */
std::optional<campaign::Json>
parseJson(const std::string &body)
{
    campaign::Json doc;
    if (!campaign::Json::tryParse(body, &doc) ||
        doc.kind() != campaign::Json::Kind::Object)
        return std::nullopt;
    return doc;
}

std::string
stateOf(const campaign::Json &doc)
{
    return doc.has("state") ? doc.at("state").asString() : "";
}

/** User + system CPU seconds of every thread of this process. */
double
processCpuSeconds()
{
    struct rusage ru;
    ::getrusage(RUSAGE_SELF, &ru);
    const auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

// ---------------------------------------------------------- the run

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out = ".bench_build/perfbench-out";
    std::string reference = "perfbench/reference_digests.json";
    /** Only print the workload's digests at the seed (reference mode). */
    bool digests = false;
};

class Bench
{
  public:
    Bench(const Args &args)
        : args_(args),
          dir_(args.out + "/run-" + args.workload + "-" +
               std::to_string(args.seed) + "-" +
               std::to_string(::getpid())),
          clients_(std::max(1u, std::thread::hardware_concurrency()))
    {
    }

    int run();

  private:
    /** Replace the live service stack with a fresh one (timed). */
    void setup(int index);
    /** Campaign repetitions for about @p budget seconds (at least one,
     *  and at least two over the run). */
    void campaignReps(double budget);
    void finishCampaign();
    /** One low/mid/high pass and rate search on the live stack. */
    void servicePass(int pass);
    void finishService();
    /** Compare the digests with the committed reference table. */
    void checkReference();
    void layerProbes(const Flow &traced, const std::string &repDir);
    void attribution(const Flow &f);
    void report(bool ok);

    /** One open-loop step at @p rate (reads, plus writes if asked). */
    struct Step
    {
        std::vector<pb::Arrival> schedule;
        std::vector<pb::Outcome> outcomes;
        std::vector<double> readLatency; ///< from due; inf = missed
        std::vector<double> rtt[kReadKinds];
        std::vector<double> genLag;
        size_t backlog = 0;
        bool backlogOk = false;
        double achievedRps = 0.0;
        double p50 = 0.0;
        double p99 = 0.0;
        size_t okReads = 0;
        double cpuSeconds = 0.0; ///< process CPU time over the step
    };
    Step openLoop(double rate, double seconds, bool writes,
                  telemetry::Tracer *tracer, bool countFailures,
                  uint64_t salt);

    /** Whether reads at one offered rate meet the latency limit. */
    struct RateProbe
    {
        double rate = 0.0;
        double p99 = 0.0;
        double achievedRps = 0.0;
        bool pass = false;
    };
    /** Judge @p rate on one step: p99 and backlog against the limit. */
    static RateProbe judge(double rate, const Step &step);
    /** One rate search whose high rate is judged on @p high; @return
     *  the estimated highest rate meeting the latency limit. */
    double searchKnee(const Step &high, uint64_t salt);
    std::string target(int kind, uint32_t arg) const;
    bool checkRead(int kind, const sv::ClientResponse &resp) const;

    Args args_;
    std::string dir_;
    size_t clients_;
    pb::Ledger ledger_;
    Metrics e2e_;
    Metrics layer_;
    std::vector<std::unique_ptr<telemetry::Tracer>> tracers_;

    std::unique_ptr<ServiceStack> stack_;
    std::string stackDir_;
    std::vector<std::unique_ptr<sv::HttpClient>> http_;
    std::string servedId_;
    std::string serveName_;
    size_t scenarios_ = 1;
    std::string expectedAnalysis_;
    std::vector<std::string> digests_;
    uint64_t writeSerial_ = 0;

    struct WriteRec
    {
        double due = 0.0;
        double done = -1.0;
        std::string id;
    };
    std::mutex writesMutex_;
    std::vector<WriteRec> writes_;
    std::vector<std::thread> watchers_;
    std::vector<std::string> attributionLines_;
    std::vector<std::string> stepLines_;

    std::vector<double> setupSeconds_;
    std::vector<Step> steps_[3]; ///< low, mid, high
    std::vector<double> knees_;
    std::vector<double> submitMs_, execMs_, waitMs_;
    uint64_t cacheHits_ = 0, cacheLookups_ = 0;

    std::string campaignText_;
    int repIndex_ = 0;
    double longestRep_ = 0.0;
    std::vector<double> untracedWall_, tracedWall_;
    std::vector<double> analyzeMs_, renderMs_, encodeMs_;
};

std::string
Bench::target(int kind, uint32_t arg) const
{
    const std::string base = "/v1/campaigns/" + servedId_;
    switch (kind) {
      case 0: return base;
      case 1: return base + "/analysis";
      case 2:
        return base + "/roofline.svg?scenario=" +
               std::to_string(arg % scenarios_);
      default: return "/metricsz";
    }
}

bool
Bench::checkRead(int kind, const sv::ClientResponse &resp) const
{
    switch (kind) {
      case 0:
        return resp.status == 200 &&
               resp.body.find("\"state\":\"done\"") != std::string::npos;
      case 1:
        return pb::analysisBodyMatches(resp.status, resp.body,
                                       expectedAnalysis_);
      case 2:
        return resp.status == 200 &&
               resp.body.find("<svg") != std::string::npos &&
               resp.body.find("</svg>") != std::string::npos;
      default:
        return resp.status == 200 &&
               resp.body.find("rfl_http_requests_total") != std::string::npos;
    }
}

void
Bench::setup(int index)
{
    // Tear the previous stack down first: only one is ever live. Each
    // pass runs against the stack set up just before it, so a stack
    // finishes far fewer tickets than JobQueueOptions::maxFinished and
    // evicts none that its pass still reads.
    http_.clear();
    stack_.reset();
    std::error_code ec;
    if (!stackDir_.empty())
        fs::remove_all(stackDir_, ec);
    stackDir_ = dir_ + "/setup" + std::to_string(index);

    const Clock::time_point t0 = Clock::now();
    stack_ = std::make_unique<ServiceStack>(stackDir_);
    for (size_t c = 0; c < clients_; ++c) {
        http_.push_back(
            std::make_unique<sv::HttpClient>("127.0.0.1", stack_->port()));
        sv::ClientResponse resp;
        ledger_.expect(http_.back()->request("GET", "/healthz", &resp) &&
                           resp.status == 200,
                       "setup: /healthz");
    }
    serveName_ = serveName(args_.workload, args_.seed);
    sv::ClientResponse resp;
    const bool posted =
        http_[0]->request("POST", "/v1/campaigns", &resp,
                          serveSpec(args_.workload, args_.seed, serveName_));
    const auto doc = parseJson(resp.body);
    const bool accepted =
        posted && resp.status == 202 && doc && doc->has("id");
    ledger_.expect(accepted, "setup: submit served grid");
    servedId_ = accepted ? doc->at("id").asString() : "";
    stack_->queue().waitFor(servedId_, 300.0);
    http_[0]->request("GET", "/v1/campaigns/" + servedId_, &resp);
    const auto status = parseJson(resp.body);
    ledger_.expect(status && stateOf(*status) == "done",
                   "setup: served grid done");
    setupSeconds_.push_back(secondsSince(t0));
    if (status && status->has("stats"))
        scenarios_ = static_cast<size_t>(std::max(
            1.0, status->at("stats").at("scenarios").asNumber()));

    if (!expectedAnalysis_.empty())
        return;
    // The served grid re-run in-process from the first stack's cache
    // gives the rendering every served analysis body must match byte
    // for byte.
    campaign::ResultCache warmCache(stack_->cachePath());
    const Flow warm =
        runFlow(serveSpec(args_.workload, args_.seed, serveName_),
                &warmCache, stackDir_ + "/traces", nullptr);
    ledger_.expect(warm.result.simulated == 0 && checkFlow(warm).empty(),
                   "served grid re-run from cache");
    expectedAnalysis_ = warm.json;
}

void
Bench::campaignReps(double budget)
{
    // Campaigns run with the simulator counters off, as the
    // roofline_campaign CLI runs them; the service turns them back on.
    telemetry::setSimTelemetryEnabled(false);
    const Clock::time_point start = Clock::now();
    for (int reps = 0;; ++reps) {
        const double elapsed = secondsSince(start);
        if (reps >= 1 && repIndex_ >= 2 && elapsed + longestRep_ > budget)
            break;
        const int rep = repIndex_++;
        // Traced runs alternate traced and untraced repetitions so
        // the two share host conditions; untraced runs trace nothing.
        telemetry::Tracer *tracer = nullptr;
        if (args_.trace && rep % 2 == 1) {
            tracers_.push_back(std::make_unique<telemetry::Tracer>());
            tracer = tracers_.back().get();
        }
        const std::string repDir = dir_ + "/rep" + std::to_string(rep);
        fs::create_directories(repDir);
        campaign::ResultCache cache(repDir + "/cache.jsonl");
        Flow f;
        std::string error;
        try {
            f = runFlow(campaignText_, &cache, repDir + "/traces", tracer);
            error = checkFlow(f);
        } catch (const std::exception &e) {
            error = std::string("campaign: ") + e.what();
        }
        if (!ledger_.expect(error.empty(), error))
            break;
        digests_.push_back(pb::digestHex(f.json));
        longestRep_ = std::max(longestRep_, f.wall);
        (tracer ? tracedWall_ : untracedWall_).push_back(f.wall);
        analyzeMs_.push_back(f.analyze * 1e3);
        renderMs_.push_back(f.render * 1e3);
        const Clock::time_point e0 = Clock::now();
        analysis::encodeAnalysis(f.doc);
        encodeMs_.push_back(secondsSince(e0) * 1e3);
        // The first traced repetition is the one attributed and probed;
        // later ones only add wall times for the tracing overhead.
        if (rep == 1 && tracer) {
            attribution(f);
            layerProbes(f, repDir);
        }
        fs::remove_all(repDir);
    }
    telemetry::setSimTelemetryEnabled(true);
}

void
Bench::finishCampaign()
{
    for (const std::string &d : digests_)
        ledger_.expect(d == digests_.front(),
                       "analysis digest differs between repetitions");
    e2e_.setMedian("campaign_s", untracedWall_, "s");
    layer_.setMedian("analysis.analyze_ms", analyzeMs_, "ms");
    layer_.setMedian("analysis.encode_ms", encodeMs_, "ms");
    layer_.setMedian("analysis.render_ms", renderMs_, "ms");
    if (!tracedWall_.empty() && !untracedWall_.empty()) {
        layer_.set("telemetry.trace_overhead_pct.campaign",
                   100.0 * (pb::median(tracedWall_) /
                                pb::median(untracedWall_) -
                            1.0),
                   "%");
    }
}

void
Bench::checkReference()
{
    std::ifstream in(args_.reference);
    std::stringstream table;
    table << in.rdbuf();
    const auto ref =
        pb::findReference(table.str(), args_.workload, args_.seed);
    if (ref) {
        ledger_.expect(!digests_.empty() && digests_.front() == ref->grid,
                       "analysis digest of the grid differs from " +
                           args_.reference);
        ledger_.expect(pb::digestHex(expectedAnalysis_) == ref->served,
                       "analysis digest of the served grid differs from " +
                           args_.reference);
        return;
    }
    // A seed the table does not list: run the held-out seed's grids
    // once more, untimed, so a change to simulated results still shows.
    const auto held =
        pb::findReference(table.str(), args_.workload, kHeldOutSeed);
    if (!ledger_.expect(held.has_value(),
                        "no reference digests for the held-out seed in " +
                            args_.reference))
        return;
    const pb::ReferenceDigests got =
        digestsOf(args_.workload, kHeldOutSeed, dir_, ledger_);
    ledger_.expect(got.grid == held->grid && got.served == held->served,
                   "analysis digests of the held-out seed differ from " +
                       args_.reference);
}

/** Span seconds of one traced run: each job's, and its stages'. */
struct JobSpans
{
    std::vector<double> jobSeconds;           ///< by job id
    std::vector<std::map<std::string, double>> stages; ///< by job id
};

JobSpans
collectJobSpans(const campaign::CampaignRun &run,
                const telemetry::Tracer &tracer)
{
    JobSpans js;
    js.jobSeconds.assign(run.jobs.size(), 0.0);
    js.stages.resize(run.jobs.size());
    std::map<uint64_t, size_t> jobOfSpan;
    const std::vector<telemetry::SpanRecord> spans = tracer.spans();
    for (const telemetry::SpanRecord &s : spans) {
        for (const auto &[k, v] : s.attrs) {
            if (k == "job" && s.parent == 0) {
                const size_t id = std::stoul(v);
                if (id < run.jobs.size()) {
                    js.jobSeconds[id] = s.durUs * 1e-6;
                    jobOfSpan[s.id] = id;
                }
            }
        }
    }
    for (const telemetry::SpanRecord &s : spans) {
        const auto it = jobOfSpan.find(s.parent);
        if (it != jobOfSpan.end())
            js.stages[it->second][s.name] += s.durUs * 1e-6;
    }
    return js;
}

/**
 * Split one traced repetition's wall time into layer shares. Work on
 * the executor's threads counts as thread-seconds / threads; whatever
 * the layers do not cover is idle, so the shares sum to the wall time.
 */
void
Bench::attribution(const Flow &f)
{
    const JobSpans js = collectJobSpans(f.result, *tracers_.back());
    const double threads = std::max(1, f.result.threadsUsed);
    std::map<std::string, double> busy;
    for (const campaign::Job &job : f.result.jobs) {
        double staged = 0.0;
        for (const auto &[name, sec] : js.stages[job.id]) {
            staged += sec;
            std::string layer = "cache";
            if (name == "machine-build")
                layer = "machine_build";
            else if (job.kind == campaign::JobKind::TraceRecord)
                layer = "trace_record";
            else if (name == "simulate" &&
                     job.kind == campaign::JobKind::Ceiling)
                layer = "ceiling";
            else if (name == "simulate")
                layer = "simulate";
            busy[layer] += sec;
        }
        busy["job_other"] += std::max(0.0, js.jobSeconds[job.id] - staged);
    }
    std::vector<std::pair<std::string, double>> shares = {
        {"parse", f.parse}};
    for (const char *layer : {"ceiling", "simulate", "machine_build",
                              "trace_record", "cache", "job_other"})
        shares.emplace_back(layer, busy[layer] / threads);
    shares.emplace_back("analyze", f.analyze);
    shares.emplace_back("render", f.render);
    double covered = 0.0;
    for (const auto &[name, sec] : shares)
        covered += sec;
    shares.emplace_back("idle", f.wall - covered);

    std::ostringstream line;
    line << "attribution " << f.result.spec.name() << " campaign_s="
         << f.wall << ":";
    double sum = 0.0;
    for (const auto &[name, sec] : shares) {
        layer_.set("campaign.share_pct." + name, 100.0 * sec / f.wall,
                   "%");
        line << " " << name << "=" << jsonNumber(100.0 * sec / f.wall)
             << "%";
        sum += sec;
    }
    line << " (sum " << jsonNumber(sum) << " s)";
    attributionLines_.push_back(line.str());

    std::vector<std::vector<size_t>> deps;
    for (const campaign::Job &job : f.result.jobs)
        deps.push_back(job.deps);
    const pb::ScheduleBound b = pb::scheduleBound(
        deps, js.jobSeconds, f.result.threadsUsed, f.result.wallSeconds);
    layer_.set("campaign.critical_path_s", b.criticalPath, "s");
    layer_.set("campaign.sched_efficiency", b.efficiency, "ratio");
    for (const char *kind :
         {"ceiling", "measure", "phase", "trace-record", "trace-replay"}) {
        const auto it = f.result.jobsByKind.find(kind);
        layer_.set(std::string("campaign.job_s.") + kind,
                   it == f.result.jobsByKind.end() ? 0.0
                                                   : it->second.seconds,
                   "s");
    }
    std::vector<double> ceilings;
    for (const campaign::Job &job : f.result.jobs) {
        if (job.kind == campaign::JobKind::Ceiling &&
            js.stages[job.id].count("simulate"))
            ceilings.push_back(js.stages[job.id].at("simulate"));
    }
    layer_.setMedian("roofline.ceiling_s", ceilings, "s");
}

uint64_t
l1Accesses(const sim::Machine::Snapshot &delta)
{
    uint64_t total = 0;
    for (const sim::CacheStats &s : delta.l1)
        total += s.accesses();
    return total;
}

/** Kernel class of a Measure job for the sim.maccess_per_s family. */
std::string
kernelClass(const campaign::CampaignSpec &spec, const campaign::Job &job)
{
    const std::string kernel = spec.kernels()[job.kernelIndex];
    const std::string name = kernel.substr(0, kernel.find(':'));
    if (name == "pointer-chase")
        return "chase";
    if (name.rfind("dgemm", 0) == 0)
        return "compute";
    if (isStreamingKernel(name))
        return spec.variants()[job.variantIndex].opts.measure.cores.size() >
                       1
                   ? "socket"
                   : "stream";
    return "irregular";
}

/**
 * Per-layer probes run once per traced run, from outside: the
 * simulated access counts behind sim.maccess_per_s (each Measure job
 * of the first two variants re-simulated on its own Experiment), the
 * trace codec, JobGraph::expand, sim::Machine construction and the
 * ResultCache calls.
 */
void
Bench::layerProbes(const Flow &traced, const std::string &repDir)
{
    const campaign::CampaignRun &run = traced.result;
    const campaign::CampaignSpec &spec = run.spec;
    const JobSpans js = collectJobSpans(run, *tracers_.back());

    std::map<std::string, double> accesses, seconds;
    double totalAccesses = 0.0;
    for (const campaign::Job &job : run.jobs) {
        const bool measure = job.kind == campaign::JobKind::Measure;
        const bool replay = job.kind == campaign::JobKind::TraceReplay;
        if (!(measure || replay) || run.results[job.id].fromCache)
            continue;
        // The first variant covers every class but "socket", which
        // the second (1-socket) variant of grid-stream adds.
        const std::string cls =
            measure ? kernelClass(spec, job) : "replay";
        if (job.variantIndex > (cls == "socket" ? 1u : 0u))
            continue;
        const campaign::MachineEntry &machine =
            spec.machines()[job.machineIndex];
        const campaign::RunOptions &opts =
            spec.variants()[job.variantIndex].opts;
        roofline::Experiment exp(machine.config);
        exp.machine().setMemPolicy(opts.memPolicy);
        exp.machine().setPrefetchEnabled(opts.prefetchEnabled);
        const std::string kernel =
            measure ? spec.kernels()[job.kernelIndex]
                    : "trace:file=" +
                          run.results[job.deps[1]].trace.path;
        const sim::Machine::Snapshot before = exp.machine().snapshot();
        exp.measureSpec(kernel, opts.measure);
        const double n = static_cast<double>(
            l1Accesses(exp.machine().snapshot() - before));
        accesses[cls] += n;
        totalAccesses += n;
        const auto stage = js.stages[job.id].find("simulate");
        if (stage != js.stages[job.id].end())
            seconds[cls] += stage->second;
    }
    layer_.set("sim.accesses", totalAccesses, "count");
    for (const char *cls :
         {"stream", "compute", "socket", "chase", "irregular"}) {
        layer_.set(std::string("sim.maccess_per_s.") + cls,
                   seconds[cls] > 0 ? accesses[cls] / seconds[cls] / 1e6
                                    : 0.0,
                   "Macc/s");
    }
    layer_.set("trace.replay_maccess_per_s",
               seconds["replay"] > 0
                   ? accesses["replay"] / seconds["replay"] / 1e6
                   : 0.0,
               "Macc/s");

    double recordMs = 0.0, traceBytes = 0.0, traceRecords = 0.0;
    for (const campaign::Job &job : run.jobs) {
        if (job.kind != campaign::JobKind::TraceRecord)
            continue;
        recordMs += js.jobSeconds[job.id] * 1e3;
        const campaign::TraceInfo &info = run.results[job.id].trace;
        std::error_code ec;
        const auto size = fs::file_size(info.path, ec);
        traceBytes += ec ? 0.0 : static_cast<double>(size);
        traceRecords += static_cast<double>(info.summary.records);
    }
    layer_.set("trace.record_ms", recordMs, "ms");
    layer_.set("trace.bytes_per_access",
               traceRecords > 0 ? traceBytes / traceRecords : 0.0,
               "B/access");

    std::vector<double> expand, build;
    for (int i = 0; i < 5; ++i) {
        Clock::time_point t0 = Clock::now();
        campaign::JobGraph::expand(spec);
        expand.push_back(secondsSince(t0) * 1e3);
        t0 = Clock::now();
        { sim::Machine m(spec.machines()[0].config); }
        build.push_back(secondsSince(t0) * 1e3);
    }
    layer_.setMedian("campaign.expand_ms", expand, "ms");
    layer_.setMedian("sim.machine_build_ms", build, "ms");

    // Replay this repetition's cache entries into a fresh spill-backed
    // cache, then look each one up again.
    campaign::ResultCache from(repDir + "/cache.jsonl");
    campaign::ResultCache sink(repDir + "/replay.jsonl");
    std::vector<double> storeUs, lookupUs;
    std::string payload;
    for (const campaign::Job &job : run.jobs) {
        if (!from.lookup(job.cacheKey, &payload))
            continue;
        Clock::time_point t0 = Clock::now();
        sink.store(job.cacheKey, payload);
        storeUs.push_back(secondsSince(t0) * 1e6);
        t0 = Clock::now();
        sink.lookup(job.cacheKey, &payload);
        lookupUs.push_back(secondsSince(t0) * 1e6);
    }
    layer_.setMedian("campaign.cache_store_us", storeUs, "us");
    layer_.setMedian("campaign.cache_lookup_us", lookupUs, "us");
}

Bench::Step
Bench::openLoop(double rate, double seconds, bool writes,
                telemetry::Tracer *tracer, bool countFailures,
                uint64_t salt)
{
    Step st;
    std::vector<double> weights;
    for (double w : kReadMix)
        weights.push_back(w * rate);
    if (writes)
        weights.push_back(kWriteRate);
    double total = 0.0;
    for (double w : weights)
        total += w;
    const uint64_t stepSeed = args_.seed * 1000003u +
                              static_cast<uint64_t>(rate) * 7919u + salt;
    st.schedule = pb::fixedRateSchedule(stepSeed, total, seconds, weights);
    std::vector<sv::ClientResponse> responses(st.schedule.size());
    std::vector<char> bodyOk(st.schedule.size(), 0);
    const std::string specBase = serveSpec(args_.workload, args_.seed, "");
    const uint64_t serial0 = writeSerial_;
    writeSerial_ += st.schedule.size();

    const Clock::time_point origin = Clock::now();
    const double cpu0 = processCpuSeconds();
    st.outcomes = pb::runOpenLoop(
        st.schedule, clients_, 0.5,
        [&](size_t c, const pb::Arrival &a) {
            telemetry::TraceScope scope(tracer);
            telemetry::Span span("service.request");
            const size_t i = &a - st.schedule.data();
            sv::ClientResponse &resp = responses[i];
            if (a.kind != kWrite) {
                span.attr("endpoint", kEndpoints[a.kind]);
                const bool sent =
                    http_[c]->request("GET", target(a.kind, a.arg), &resp);
                bodyOk[i] = sent && checkRead(a.kind, resp);
                resp.body.clear();
                return sent;
            }
            span.attr("endpoint", "submit");
            // Same grid, new name: a new ticket over cached results.
            const std::string name = serveName_ + "-w" +
                                     std::to_string(serial0 + i);
            const bool sent = http_[c]->request(
                "POST", "/v1/campaigns", &resp, "name = " + name + "\n" +
                    specBase.substr(specBase.find('\n') + 1));
            const auto doc = parseJson(resp.body);
            bodyOk[i] =
                sent && resp.status == 202 && doc && doc->has("id");
            if (!bodyOk[i])
                return sent;
            std::lock_guard<std::mutex> lock(writesMutex_);
            const size_t slot = writes_.size();
            writes_.push_back({a.due, -1.0, doc->at("id").asString()});
            const std::string id = writes_.back().id;
            watchers_.emplace_back([this, slot, id, origin] {
                const bool done = stack_->queue().waitFor(id, 60.0);
                const double t = secondsSince(origin);
                std::lock_guard<std::mutex> guard(writesMutex_);
                writes_[slot].done = done ? t : -1.0;
            });
            return sent;
        });
    st.cpuSeconds = processCpuSeconds() - cpu0;

    size_t okReads = 0;
    for (size_t i = 0; i < st.schedule.size(); ++i) {
        const pb::Arrival &a = st.schedule[i];
        pb::Outcome o = st.outcomes[i];
        o.ok = o.ok && bodyOk[i];
        if (countFailures || o.sent >= 0.0) {
            ledger_.expect(o.ok, std::string("service: ") +
                                     (a.kind == kWrite
                                          ? "submit"
                                          : kEndpoints[a.kind]) +
                                     " request failed or wrong");
        }
        if (a.kind == kWrite)
            continue;
        st.readLatency.push_back(pb::latencyFromDue(a, o));
        if (o.ok) {
            ++okReads;
            st.rtt[a.kind].push_back((o.done - o.sent) * 1e6);
            st.genLag.push_back((o.sent - a.due) * 1e6);
        }
    }
    st.backlog = pb::backlogAt(st.schedule, st.outcomes, seconds);
    double lastDone = seconds;
    for (const pb::Outcome &o : st.outcomes)
        lastDone = std::max(lastDone, o.done);
    st.achievedRps = okReads / lastDone;
    st.okReads = okReads;
    st.p50 = pb::median(st.readLatency);
    st.p99 = pb::percentile(st.readLatency, 99.0);
    // "No growing backlog": at most 2% of the step (or two requests
    // per client) still outstanding when the step's last one is due.
    st.backlogOk = st.backlog <= std::max<size_t>(
                                     2 * clients_, st.schedule.size() / 50);
    char line[160];
    std::snprintf(line, sizeof(line),
                  "step rate=%g s=%.3g sent=%zu ok_rps=%.6g "
                  "read_p50_us=%.6g read_p99_us=%.6g backlog=%zu",
                  rate, seconds, st.schedule.size(), st.achievedRps,
                  st.p50 * 1e6, st.p99 * 1e6, st.backlog);
    stepLines_.push_back(line);
    return st;
}

Bench::RateProbe
Bench::judge(double rate, const Step &step)
{
    RateProbe p;
    p.rate = rate;
    p.p99 = step.p99;
    p.achievedRps = step.achievedRps;
    p.pass = step.p99 <= kReadLimitSeconds && step.backlogOk;
    return p;
}

double
Bench::searchKnee(const Step &high, uint64_t salt)
{
    // Geometric steps from the high rate (up while they pass, down while
    // they fail); bisections narrow the bracket and the limit crossing
    // is interpolated log-log inside it.
    const auto probe = [&](double rate) {
        return judge(rate, openLoop(rate, kSearchWindowSeconds, false,
                                    nullptr, false, salt));
    };
    RateProbe pass, fail;
    const RateProbe first = judge(kRateHigh, high);
    (first.pass ? pass : fail) = first;
    for (int i = 1;
         i <= kSearchSteps && (pass.rate == 0.0 || fail.rate == 0.0); ++i) {
        const double f = std::pow(kSearchFactor, i);
        const RateProbe p =
            probe(first.pass ? kRateHigh * f : kRateHigh / f);
        (p.pass ? pass : fail) = p;
    }
    for (int i = 0; i < kBisectSteps && pass.rate > 0.0 && fail.rate > 0.0;
         ++i) {
        const RateProbe p = probe(std::sqrt(pass.rate * fail.rate));
        (p.pass ? pass : fail) = p;
    }
    double maxRps = pass.achievedRps;
    // Interpolate only a latency failure; a backlog failure caps the
    // result at the passing rate. A failed window's p99 may be infinite
    // (abandoned requests); one second stands in for it.
    const double failP99 = std::min(fail.p99, 1.0);
    if (pass.rate > 0.0 && fail.rate > 0.0 && pass.p99 > 0.0 &&
        failP99 > kReadLimitSeconds) {
        const double frac = std::log(kReadLimitSeconds / pass.p99) /
                            std::log(failP99 / pass.p99);
        maxRps = pass.achievedRps *
                 std::pow(fail.rate / pass.rate, std::clamp(frac, 0.0, 1.0));
    }
    char line[160];
    std::snprintf(line, sizeof(line),
                  "search pass=%g (p99 %.6g us) fail=%g (p99 %.6g us) "
                  "max_rps=%.6g",
                  pass.rate, pass.p99 * 1e6, fail.rate, fail.p99 * 1e6,
                  maxRps);
    stepLines_.push_back(line);
    return maxRps;
}

/** Low/mid/high passes that fit a service budget (at least three). */
int
passesFor(double budget)
{
    const double passSeconds =
        kLowSeconds + kMidSeconds + kHighSeconds +
        (kSearchSteps + kBisectSteps) * kSearchWindowSeconds;
    return std::max(3, static_cast<int>(budget / passSeconds));
}

void
Bench::servicePass(int pass)
{
    for (auto &client : http_) {
        sv::ClientResponse resp;
        ledger_.expect(client->request("GET", "/healthz", &resp) &&
                           resp.status == 200,
                       "service: reconnect");
    }
    const campaign::CacheStats cache0 = stack_->queue().cacheStats();

    // low -> mid (with resubmits) -> high -> rate search, each fixed
    // step long enough for >= 500 reads; a statistic is the median over
    // passes, so one host hiccup moves one pass, not the result.
    const double rates[] = {kRateLow, kRateMid, kRateHigh};
    const double stepSeconds[] = {kLowSeconds, kMidSeconds, kHighSeconds};
    for (int r = 0; r < 3; ++r)
        steps_[r].push_back(openLoop(rates[r], stepSeconds[r], r == 1,
                                     nullptr, true, pass));
    knees_.push_back(searchKnee(steps_[2].back(), 100 + pass));
    for (std::thread &t : watchers_)
        t.join();
    watchers_.clear();

    // Cached resubmits: checked over HTTP once they are done.
    for (const WriteRec &w : writes_) {
        sv::ClientResponse resp;
        http_[0]->request("GET", "/v1/campaigns/" + w.id, &resp);
        const auto doc = parseJson(resp.body);
        const bool done = doc && stateOf(*doc) == "done" &&
                          doc->has("stats") && w.done >= 0.0;
        const bool cached =
            done && doc->at("stats").at("simulated").asNumber() == 0.0;
        if (!ledger_.expect(cached, "service: resubmit " + w.id +
                                        " not done from cache"))
            continue;
        const double total = (w.done - w.due) * 1e3;
        const double exec =
            doc->at("stats").at("wall_seconds").asNumber() * 1e3;
        submitMs_.push_back(total);
        execMs_.push_back(exec);
        waitMs_.push_back(std::max(0.0, total - exec));
    }
    writes_.clear();
    const campaign::CacheStats cache1 = stack_->queue().cacheStats();
    cacheHits_ += cache1.hits - cache0.hits;
    cacheLookups_ += (cache1.hits - cache0.hits) +
                     (cache1.misses - cache0.misses);
}

void
Bench::finishService()
{
    const char *names[] = {"low", "mid", "high"};
    size_t backlog = 0;
    for (int r = 0; r < 3; ++r) {
        std::vector<double> p50s, p90s, p99s;
        size_t n = 0;
        for (const Step &st : steps_[r]) {
            p50s.push_back(st.p50 * 1e6);
            p90s.push_back(pb::percentile(st.readLatency, 90.0) * 1e6);
            p99s.push_back(st.p99 * 1e6);
            n += st.readLatency.size();
            backlog = std::max(backlog, st.backlog);
        }
        pb::Summary s50 = pb::summarize(p50s);
        pb::Summary s99 = pb::summarize(p99s);
        s50.n = s99.n = n;
        s50.tailP = s99.tailP = 99.0;
        s50.tail = s99.tail = pb::median(p99s);
        e2e_.set(std::string("read_p50_us.") + names[r], s50.median, "us",
                 s50);
        e2e_.set(std::string("read_p90_us.") + names[r],
                 pb::median(p90s), "us", s99);
        e2e_.set(std::string("read_p99_us.") + names[r], s99.median, "us",
                 s99);
    }
    const pb::Summary sub = pb::summarize(submitMs_);
    e2e_.set("submit_p50_ms", sub.median, "ms", sub);
    e2e_.set("submit_p90_ms", pb::percentile(submitMs_, 90.0), "ms", sub);
    e2e_.setMedian("svc_max_rps", knees_, "req/s");
    // CPU cost of a read at the low rate, where no resubmit runs: the
    // client and server threads of this process together.
    std::vector<double> cpuPerRead;
    for (const Step &st : steps_[0]) {
        if (st.okReads > 0)
            cpuPerRead.push_back(st.cpuSeconds * 1e6 / st.okReads);
    }
    e2e_.setMedian("read_cpu_us", cpuPerRead, "us");

    std::vector<double> rtt[kReadKinds], genLag;
    for (const Step &st : steps_[1]) {
        for (int k = 0; k < kReadKinds; ++k)
            rtt[k].insert(rtt[k].end(), st.rtt[k].begin(), st.rtt[k].end());
        genLag.insert(genLag.end(), st.genLag.begin(), st.genLag.end());
    }
    for (int k = 0; k < kReadKinds; ++k) {
        const std::string ep = kEndpoints[k];
        layer_.set("service.rtt_us." + ep + ".p50", pb::median(rtt[k]),
                   "us");
        layer_.set("service.rtt_us." + ep + ".p99",
                   pb::percentile(rtt[k], 99.0), "us");
    }
    layer_.setMedian("service.exec_ms", execMs_, "ms");
    layer_.setMedian("service.queue_wait_ms", waitMs_, "ms");
    layer_.set("service.gen_lag_us", pb::percentile(genLag, 99.0), "us");
    layer_.set("service.backlog", static_cast<double>(backlog), "count");
    layer_.set("campaign.cache_hit_ratio",
               cacheLookups_ > 0 ? static_cast<double>(cacheHits_) /
                                       static_cast<double>(cacheLookups_)
                                 : 0.0,
               "ratio");

    if (!args_.trace)
        return;
    // Mid-rate reads with one client span per request, alternating
    // with plain steps: the tracing overhead on read_p50_us.mid.
    std::vector<double> tracedP50, plainP50;
    tracers_.push_back(std::make_unique<telemetry::Tracer>());
    for (int p = 0; p < 3; ++p) {
        tracedP50.push_back(openLoop(kRateMid, kMidSeconds, false,
                                     tracers_.back().get(), true, 200 + p)
                                .p50);
        plainP50.push_back(
            openLoop(kRateMid, kMidSeconds, false, nullptr, true, 200 + p)
                .p50);
    }
    layer_.set("telemetry.trace_overhead_pct.read",
               100.0 * (pb::median(tracedP50) / pb::median(plainP50) - 1.0),
               "%");

    // Handler time: the same requests through ApiHandler::handle
    // in-process; transport is what the client saw beyond it.
    for (int k = 0; k < kReadKinds; ++k) {
        std::vector<double> us;
        for (uint32_t i = 0; i < 200; ++i) {
            sv::HttpRequest req;
            req.method = "GET";
            req.target = target(k, i);
            const size_t q = req.target.find('?');
            req.path = req.target.substr(0, q);
            req.query =
                q == std::string::npos ? "" : req.target.substr(q + 1);
            req.clientAddr = "127.0.0.1";
            const Clock::time_point t0 = Clock::now();
            const sv::HttpResponse resp = stack_->api().handle(req);
            us.push_back(secondsSince(t0) * 1e6);
            ledger_.expect(resp.status == 200, "service: in-process " +
                                                   req.target);
        }
        const std::string ep = kEndpoints[k];
        const double handler = pb::median(us);
        layer_.set("service.handler_us." + ep, handler, "us");
        layer_.set("service.transport_us." + ep + ".p50",
                   pb::median(rtt[k]) - handler, "us");
        layer_.set("service.transport_us." + ep + ".p99",
                   pb::percentile(rtt[k], 99.0) - handler, "us");
    }
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0)
            return line.substr(line.find(':') + 2);
    }
    return "unknown";
}

/** Total and steal jiffies of all CPUs, from /proc/stat ({0, 0} if
 *  unreadable). */
std::pair<double, double>
cpuJiffies()
{
    std::ifstream in("/proc/stat");
    std::string cpu;
    in >> cpu;
    double total = 0.0, steal = 0.0, v = 0.0;
    for (int field = 0; field < 8 && in >> v; ++field) {
        total += v;
        if (field == 7)
            steal = v;
    }
    return {total, steal};
}

void
Bench::report(bool ok)
{
    const telemetry::BuildInfo &build = telemetry::buildInfo();
    std::ostringstream host;
    host << "{\"cpu_model\":" << jsonString(cpuModel())
         << ",\"nproc\":" << std::thread::hardware_concurrency()
         << ",\"host_identity\":"
         << jsonString(campaign::hostIdentityHash())
         << ",\"build_info\":{\"git_sha\":" << jsonString(build.gitSha)
         << ",\"compiler\":" << jsonString(build.compiler)
         << ",\"build_type\":" << jsonString(build.buildType)
         << ",\"simd\":" << jsonString(build.simdTier) << "}}";

    const Metrics &shown = args_.trace ? layer_ : e2e_;
    std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
                args_.workload.c_str(),
                static_cast<unsigned long long>(args_.seed), args_.seconds,
                args_.trace ? 1 : 0);
    std::printf("host %s\n", host.str().c_str());
    std::printf("%-44s %14s %-7s %6s %s\n", "metric", "median", "unit",
                "n", "tail");
    for (const Metrics::Entry &e : shown.entries()) {
        char tail[64] = "-";
        if (e.summary.tailP > 0.0)
            std::snprintf(tail, sizeof(tail), "p%g=%.6g", e.summary.tailP,
                          e.summary.tail);
        std::printf("%-44s %14.6g %-7s %6zu %s\n", e.name.c_str(),
                    e.value, e.unit.c_str(), e.summary.n, tail);
    }
    const double failedFrac =
        ledger_.attempted()
            ? static_cast<double>(ledger_.failed()) / ledger_.attempted()
            : 1.0;
    std::printf("%-44s %14.6g %-7s %6zu\n", "failed_frac", failedFrac,
                "ratio", ledger_.attempted());
    if (!digests_.empty())
        std::printf("analysis digest %s (%zu repetitions)\n",
                    digests_.front().c_str(), digests_.size());
    for (const std::string &line : stepLines_)
        std::printf("%s\n", line.c_str());
    for (const std::string &line : attributionLines_)
        std::printf("%s\n", line.c_str());
    for (const std::string &f : ledger_.failures())
        std::printf("FAILED: %s\n", f.c_str());

    std::ostringstream metrics;
    metrics << "{";
    bool first = true;
    for (const Metrics::Entry &e : shown.entries()) {
        metrics << (first ? "" : ", ") << jsonString(e.name)
                << ": {\"value\": " << jsonNumber(e.value)
                << ", \"unit\": " << jsonString(e.unit) << "}";
        first = false;
    }
    metrics << "}";

    // The full record (host block, summaries, spans) stays on disk.
    const std::string stem = args_.out + "/" + args_.workload + "-seed" +
                             std::to_string(args_.seed) + "-trace" +
                             (args_.trace ? "1" : "0");
    {
        std::ofstream rec(stem + ".json");
        rec << "{\"workload\":" << jsonString(args_.workload)
            << ",\"seed\":" << args_.seed << ",\"host\":" << host.str()
            << ",\"correct\":" << (ok ? "true" : "false")
            << ",\"attempted\":" << ledger_.attempted()
            << ",\"failed\":" << ledger_.failed() << ",\"metrics\":[";
        bool firstRec = true;
        for (const Metrics *m : {&e2e_, &layer_}) {
            for (const Metrics::Entry &e : m->entries()) {
                rec << (firstRec ? "" : ",") << "{\"name\":"
                    << jsonString(e.name)
                    << ",\"value\":" << jsonNumber(e.value)
                    << ",\"unit\":" << jsonString(e.unit)
                    << ",\"n\":" << e.summary.n
                    << ",\"tail_p\":" << jsonNumber(e.summary.tailP)
                    << ",\"tail\":" << jsonNumber(e.summary.tail) << "}";
                firstRec = false;
            }
        }
        rec << "]}\n";
    }
    if (!tracers_.empty()) {
        std::ofstream spans(stem + "-spans.jsonl");
        for (const auto &t : tracers_)
            t->writeTraceJsonl(spans);
    }

    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": %s}\n",
                ok ? "true" : "false", ledger_.attempted(),
                ledger_.failed(), metrics.str().c_str());
    std::fflush(stdout);
}

int
Bench::run()
{
    fs::create_directories(dir_);
    const auto jiffies0 = cpuJiffies();
    try {
        campaignText_ = gridSpec(args_.workload, args_.seed);
        const double campaignBudget = kCampaignShare * args_.seconds;
        const int passes = passesFor(args_.seconds - campaignBudget);
        for (int p = 0; p < passes; ++p) {
            setup(p);
            campaignReps(campaignBudget / passes);
            servicePass(p);
        }
        e2e_.setMedian("setup_s", setupSeconds_, "s");
        finishService();
        finishCampaign();
    } catch (const std::exception &e) {
        ledger_.expect(false, std::string("aborted: ") + e.what());
    }
    for (std::thread &t : watchers_)
        t.join();
    watchers_.clear();
    struct rusage ru;
    ::getrusage(RUSAGE_SELF, &ru);
    e2e_.set("peak_rss_mib", ru.ru_maxrss / 1024.0, "MiB");
    // On a VM, the share of CPU time the hypervisor gave to other
    // tenants while this run wanted it: every timing above slows with
    // it, so it tells a slow host from a slow program. Not gated.
    const auto jiffies1 = cpuJiffies();
    const double ticks = jiffies1.first - jiffies0.first;
    e2e_.set("host_steal_pct",
             ticks > 0 ? 100.0 * (jiffies1.second - jiffies0.second) / ticks
                       : 0.0,
             "%");

    http_.clear();
    stack_.reset();
    try {
        checkReference();
    } catch (const std::exception &e) {
        ledger_.expect(false, std::string("reference check: ") + e.what());
    }
    std::error_code ec;
    fs::remove_all(dir_, ec);
    const bool ok = ledger_.failed() == 0;
    report(ok);
    return ok ? 0 : 1;
}

bool
parseArgs(int argc, char **argv, Args *args)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        if (key == "--workload")
            args->workload = value;
        else if (key == "--seed")
            args->seed = std::stoull(value);
        else if (key == "--seconds")
            args->seconds = std::stod(value);
        else if (key == "--trace")
            args->trace = value == "1";
        else if (key == "--out")
            args->out = value;
        else if (key == "--reference")
            args->reference = value;
        else if (key == "--digests")
            args->digests = value == "1";
        else
            return false;
    }
    return argc % 2 == 1 && args->seconds > 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    bool parsed = false;
    try {
        parsed = parseArgs(argc, argv, &args);
    } catch (const std::exception &) {
        parsed = false;
    }
    bool known = false;
    for (const char *w : kWorkloads)
        known = known || args.workload == w;
    if (!parsed || !known) {
        std::fprintf(stderr,
                     "usage: perfbench --workload <grid-stream|grid-latency> "
                     "--seed <n> --seconds <s> --trace <0|1> [--out <dir>] "
                     "[--reference <file>] [--digests 1]\n");
        return 2;
    }
    fs::create_directories(args.out);
    if (!args.digests)
        return Bench(args).run();
    // Reference mode: one line of the table make_reference.py writes.
    pb::Ledger ledger;
    const pb::ReferenceDigests d =
        digestsOf(args.workload, args.seed, args.out, ledger);
    std::printf("{\"workload\": %s, \"seed\": %llu, \"grid\": %s, "
                "\"served\": %s}\n",
                jsonString(args.workload).c_str(),
                static_cast<unsigned long long>(args.seed),
                jsonString(d.grid).c_str(), jsonString(d.served).c_str());
    for (const std::string &f : ledger.failures())
        std::fprintf(stderr, "FAILED: %s\n", f.c_str());
    return ledger.failed() == 0 ? 0 : 1;
}
