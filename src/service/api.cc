#include "service/api.hh"

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <thread>

#include "pmu/perf_backend.hh"
#include "support/failpoint.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "telemetry/build_info.hh"
#include "telemetry/metrics.hh"
#include "telemetry/profiler.hh"

namespace rfl::service
{

namespace
{

HttpResponse
jsonResponse(int status, const Json &doc)
{
    HttpResponse resp;
    resp.status = status;
    resp.contentType = "application/json";
    resp.body = doc.dump() + "\n";
    return resp;
}

HttpResponse
jsonError(int status, const std::string &message)
{
    Json doc = Json::makeObject();
    doc.set("error", Json::makeString(message));
    return jsonResponse(status, doc);
}

/** 429 with a Retry-After hint so well-behaved clients back off for a
 *  sane interval instead of hammering or guessing. */
HttpResponse
backpressureError(const std::string &message, int retryAfterSeconds)
{
    HttpResponse resp = jsonError(429, message);
    resp.headers.emplace_back("Retry-After",
                              std::to_string(retryAfterSeconds));
    return resp;
}

Json
statusJson(const JobStatus &st)
{
    Json doc = Json::makeObject();
    doc.set("id", Json::makeString(st.id));
    doc.set("campaign", Json::makeString(st.campaign));
    doc.set("state", Json::makeString(jobStateName(st.state)));
    if (st.state == JobState::Failed ||
        st.state == JobState::TimedOut)
        doc.set("error", Json::makeString(st.error));
    if (st.state == JobState::Queued && st.queuePosition > 0) {
        doc.set("queue_position",
                Json::makeNumber(
                    static_cast<double>(st.queuePosition)));
    }
    if (st.state == JobState::Done) {
        Json stats = Json::makeObject();
        stats.set("jobs",
                  Json::makeNumber(static_cast<double>(st.jobs)));
        stats.set("simulated",
                  Json::makeNumber(static_cast<double>(st.simulated)));
        stats.set("cache_hits",
                  Json::makeNumber(static_cast<double>(st.cacheHits)));
        stats.set("wall_seconds", Json::makeNumber(st.wallSeconds));
        stats.set("threads", Json::makeNumber(
                                 static_cast<double>(st.threadsUsed)));
        stats.set("scenarios",
                  Json::makeNumber(
                      static_cast<double>(st.scenarioCount)));
        doc.set("stats", std::move(stats));

        // What the campaign cost the machine, not just how long it
        // took: thread CPU seconds and fault counts summed across its
        // jobs, peak process RSS observed (a level, not a sum — see
        // telemetry/resource.hh).
        Json res = Json::makeObject();
        res.set("cpu_user_seconds",
                Json::makeNumber(st.resources.cpuUserSeconds));
        res.set("cpu_system_seconds",
                Json::makeNumber(st.resources.cpuSystemSeconds));
        res.set("maxrss_bytes",
                Json::makeNumber(
                    static_cast<double>(st.resources.maxrssBytes)));
        res.set("minor_faults",
                Json::makeNumber(
                    static_cast<double>(st.resources.minorFaults)));
        res.set("major_faults",
                Json::makeNumber(
                    static_cast<double>(st.resources.majorFaults)));
        doc.set("resources", std::move(res));

        Json links = Json::makeObject();
        const std::string base = "/v1/campaigns/" + st.id;
        links.set("analysis", Json::makeString(base + "/analysis"));
        links.set("report", Json::makeString(base + "/report.html"));
        links.set("roofline",
                  Json::makeString(base + "/roofline.svg"));
        doc.set("links", std::move(links));
    }
    return doc;
}

/**
 * Per-endpoint service-time histogram with bounded label cardinality:
 * fixed endpoints by name, campaign artifact routes collapsed to one
 * template, everything else "other". Each endpoint's series is
 * registered on its first request (so /metricsz lists only endpoints
 * that were hit) and read lock-free after that: the registry hands out
 * stable references, and a race between two first requests resolves
 * to the same one.
 */
telemetry::Histogram &
endpointHistogram(const std::string &path)
{
    static constexpr const char *kEndpoints[] = {
        "/healthz",  "/statsz",   "/metricsz", "/tracez",
        "/seriesz",  "/dashz",    "/profilez", "/v1/campaigns",
        "/v1/campaigns/{id}",     "other",
    };
    constexpr size_t kTemplated = std::size(kEndpoints) - 2;
    static std::atomic<telemetry::Histogram *>
        resolved[std::size(kEndpoints)];

    size_t slot = 0;
    while (slot < kTemplated && path != kEndpoints[slot])
        ++slot;
    if (slot == kTemplated && path.rfind("/v1/campaigns/", 0) != 0)
        ++slot; // "other"
    telemetry::Histogram *h =
        resolved[slot].load(std::memory_order_acquire);
    if (!h) {
        h = &telemetry::Registry::global().histogram(
            "rfl_http_request_seconds",
            "request service time by endpoint",
            {{"endpoint", kEndpoints[slot]}});
        resolved[slot].store(h, std::memory_order_release);
    }
    return *h;
}

} // namespace

ApiHandler::ApiHandler(JobQueue &queue, SessionTable &sessions)
    : queue_(queue), sessions_(sessions),
      start_(std::chrono::steady_clock::now())
{
    telemetry::Registry &reg = telemetry::Registry::global();
    telemetry::registerBuildInfoMetric(reg);
    metricsCollector_ = reg.addCollector(
        [this,
         &admitted = reg.counter("rfl_sessions_admitted_total",
                                 "requests admitted past rate limits"),
         &limited = reg.counter("rfl_sessions_rate_limited_total",
                                "requests answered 429"),
         &clients = reg.gauge("rfl_sessions_clients",
                              "distinct client addresses tracked"),
         &conns = reg.counter("rfl_http_connections_total",
                              "TCP connections accepted"),
         &reqs = reg.counter("rfl_http_requests_total",
                             "HTTP requests served"),
         &parseErrors = reg.counter("rfl_http_parse_errors_total",
                                    "malformed or oversized requests"),
         &bytesOut = reg.counter("rfl_http_bytes_out_total",
                                 "response bytes written")] {
            const SessionStats s = sessions_.stats();
            admitted.mirror(s.admitted);
            limited.mirror(s.rateLimited);
            clients.set(static_cast<double>(s.clients));
            if (serverStats_) {
                const HttpServerStats h = serverStats_();
                conns.mirror(h.connectionsAccepted);
                reqs.mirror(h.requestsServed);
                parseErrors.mirror(h.parseErrors);
                bytesOut.mirror(h.bytesOut);
            }
        });
}

void
ApiHandler::setServerStats(std::function<HttpServerStats()> supplier)
{
    serverStats_ = std::move(supplier);
}

void
ApiHandler::setTimeSeriesSampler(telemetry::TimeSeriesSampler *sampler)
{
    sampler_ = sampler;
}

HttpResponse
ApiHandler::handle(const HttpRequest &req)
{
    const auto t0 = std::chrono::steady_clock::now();

    // Propagate the client's request id or mint one; it joins the
    // access-log line with the campaign job's root span.
    std::string requestId = req.header("x-request-id");
    if (requestId.empty()) {
        requestId =
            "r" + std::to_string(nextRequestId_.fetch_add(
                                     1, std::memory_order_relaxed) +
                                 1);
    }

    HttpResponse resp;
    // Liveness probes and metric scrapers are exempt: a throttled
    // /healthz reads as a dead service to an orchestrator, and a
    // throttled scrape reads as an outage on a dashboard.
    // /seriesz and /dashz join the exempt set: the dashboard refreshes
    // itself every sampler interval, and a throttled refresh reads as
    // a dead dashboard. /profilez is NOT exempt — it costs real CPU.
    const bool exempt = req.path == "/healthz" ||
                        req.path == "/statsz" ||
                        req.path == "/metricsz" ||
                        req.path == "/seriesz" ||
                        req.path == "/dashz";
    if (!exempt && !sessions_.admit(req.clientAddr))
        resp = backpressureError("rate limited", 1);
    else
        resp = dispatch(req, requestId);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    endpointHistogram(req.path).observe(seconds);
    sessions_.logRequest(req.clientAddr, req.method, req.target,
                         resp.status, seconds, requestId);
    return resp;
}

HttpResponse
ApiHandler::dispatch(const HttpRequest &req,
                     const std::string &requestId)
{
    if (req.path == "/healthz") {
        if (req.method != "GET")
            return jsonError(405, "use GET");
        return health();
    }
    if (req.path == "/statsz") {
        if (req.method != "GET")
            return jsonError(405, "use GET");
        return statsz();
    }
    if (req.path == "/metricsz") {
        if (req.method != "GET")
            return jsonError(405, "use GET");
        return metricsz();
    }
    if (req.path == "/tracez") {
        if (req.method != "GET")
            return jsonError(405, "use GET");
        return tracez(req);
    }
    if (req.path == "/seriesz") {
        if (req.method != "GET")
            return jsonError(405, "use GET");
        return seriesz();
    }
    if (req.path == "/dashz") {
        if (req.method != "GET")
            return jsonError(405, "use GET");
        return dashz();
    }
    if (req.path == "/profilez") {
        if (req.method != "GET")
            return jsonError(405, "use GET");
        return profilez(req);
    }
    if (req.path == "/v1/campaigns") {
        if (req.method != "POST")
            return jsonError(405, "use POST to submit a campaign");
        return submitCampaign(req, requestId);
    }
    if (req.path.rfind("/v1/campaigns/", 0) == 0)
        return campaignRoute(req);
    return jsonError(404, "no such endpoint: " + req.path);
}

HttpResponse
ApiHandler::submitCampaign(const HttpRequest &req,
                           const std::string &requestId)
{
    if (req.body.empty())
        return jsonError(400, "empty campaign spec");

    // Raw spec text, or a {"spec": "..."} JSON envelope.
    std::string specText = req.body;
    const size_t first = req.body.find_first_not_of(" \t\r\n");
    if (first != std::string::npos && req.body[first] == '{') {
        Json envelope;
        if (!Json::tryParse(req.body, &envelope) ||
            envelope.kind() != Json::Kind::Object ||
            !envelope.has("spec") ||
            envelope.at("spec").kind() != Json::Kind::String) {
            return jsonError(
                400, "JSON body must be {\"spec\": \"<campaign>\"}");
        }
        specText = envelope.at("spec").asString();
    }

    const SubmitOutcome outcome = queue_.submit(specText, requestId);
    switch (outcome.kind) {
      case SubmitOutcome::Kind::Invalid:
        return jsonError(400, outcome.error);
      case SubmitOutcome::Kind::QueueFull:
        return backpressureError("campaign queue is full, retry later",
                                 2);
      case SubmitOutcome::Kind::Accepted:
      case SubmitOutcome::Kind::Deduplicated: {
        JobStatus st;
        Json doc;
        if (queue_.status(outcome.id, &st)) {
            doc = statusJson(st);
        } else {
            doc = Json::makeObject();
            doc.set("id", Json::makeString(outcome.id));
            doc.set("state",
                    Json::makeString(jobStateName(outcome.state)));
        }
        doc.set("deduplicated",
                Json::makeBool(outcome.kind ==
                               SubmitOutcome::Kind::Deduplicated));
        return jsonResponse(
            outcome.kind == SubmitOutcome::Kind::Accepted ? 202 : 200,
            doc);
      }
    }
    return jsonError(500, "unreachable submit outcome");
}

HttpResponse
ApiHandler::campaignRoute(const HttpRequest &req)
{
    if (req.method != "GET")
        return jsonError(405, "use GET");

    // "/v1/campaigns/<id>[/<artifact>]"
    const std::string rest = req.path.substr(14);
    const size_t slash = rest.find('/');
    const std::string id = rest.substr(0, slash);
    const std::string artifact =
        slash == std::string::npos ? "" : rest.substr(slash + 1);

    JobStatus st;
    if (id.empty() || !queue_.status(id, &st))
        return jsonError(404, "unknown campaign ticket '" + id + "'");

    if (artifact.empty())
        return jsonResponse(200, statusJson(st));

    if (st.state == JobState::Failed)
        return jsonError(500, "campaign failed: " + st.error);
    if (st.state == JobState::TimedOut)
        return jsonError(504, "campaign timed out: " + st.error +
                                  " (resubmit to retry)");
    if (st.state != JobState::Done) {
        Json doc = statusJson(st);
        doc.set("error",
                Json::makeString("campaign not finished; poll "
                                 "/v1/campaigns/" +
                                 id));
        return jsonResponse(409, doc);
    }

    // Fault-injection seam for artifact streaming: the client gets a
    // well-formed 503 and the artifact stays intact for the retry.
    if (RFL_FAILPOINT("api.stream"))
        return jsonError(503,
                         "artifact stream unavailable (injected "
                         "fault), retry");

    HttpResponse resp;
    if (artifact == "analysis") {
        if (!queue_.analysisJson(id, &resp.body))
            return jsonError(500, "analysis artifact missing");
        resp.contentType = "application/json";
        return resp;
    }
    if (artifact == "report.html") {
        if (!queue_.reportHtml(id, &resp.body))
            return jsonError(500, "report artifact missing");
        resp.contentType = "text/html; charset=utf-8";
        return resp;
    }
    if (artifact == "roofline.svg") {
        const std::string idxText = req.queryParam("scenario", "0");
        char *end = nullptr;
        const long idx = std::strtol(idxText.c_str(), &end, 10);
        if (end == idxText.c_str() || *end != '\0' || idx < 0)
            return jsonError(400, "scenario must be a non-negative "
                                  "integer");
        if (!queue_.svg(id, static_cast<size_t>(idx), &resp.body)) {
            return jsonError(
                404, "no scenario " + idxText + " (campaign has " +
                         std::to_string(st.scenarioCount) + ")");
        }
        resp.contentType = "image/svg+xml";
        return resp;
    }
    return jsonError(404, "unknown artifact '" + artifact +
                              "' (use analysis, report.html or "
                              "roofline.svg)");
}

namespace
{

/**
 * The host's PMU capability, probed once per process: the answer
 * cannot change under a running service, and probing registers the
 * rfl_pmu_* gauges so the pmu group is present in /statsz and
 * /metricsz from the first scrape on regardless of request order.
 */
const pmu::PmuProbe &
cachedPmuProbe()
{
    static const pmu::PmuProbe probe = pmu::PerfEventBackend::probe();
    return probe;
}

/** The /healthz pmu block (shape asserted by tools/service_smoke.sh
 *  against `roofline_campaign --pmu-probe`). */
Json
pmuHealthJson()
{
    const pmu::PmuProbe &probe = cachedPmuProbe();
    Json pmu = Json::makeObject();
    pmu.set("available", Json::makeBool(probe.available));
    pmu.set("paranoid", Json::makeNumber(probe.paranoid));
    pmu.set("events_live", Json::makeNumber(probe.liveCount()));
    pmu.set("events_dead", Json::makeNumber(probe.deadCount()));
    Json events = Json::makeArray();
    for (const pmu::ProbedEvent &e : probe.events) {
        Json ev = Json::makeObject();
        ev.set("event",
               Json::makeString(pmu::eventName(e.mapping.id)));
        ev.set("source", Json::makeString(e.mapping.fromEnv ? "env"
                                                            : "default"));
        ev.set("live", Json::makeBool(e.live));
        events.push(std::move(ev));
    }
    pmu.set("events", std::move(events));
    return pmu;
}

} // namespace

HttpResponse
ApiHandler::health() const
{
    Json doc = Json::makeObject();
    doc.set("status", Json::makeString("ok"));
    doc.set(
        "uptime_seconds",
        Json::makeNumber(std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start_)
                             .count()));
    // The same identity rfl_build_info carries in labels: "did the
    // numbers change or did the binary?" answerable from a liveness
    // probe.
    const telemetry::BuildInfo &b = telemetry::buildInfo();
    Json build = Json::makeObject();
    build.set("git_sha", Json::makeString(b.gitSha));
    build.set("compiler", Json::makeString(b.compiler));
    build.set("build_type", Json::makeString(b.buildType));
    build.set("simd", Json::makeString(b.simdTier));
    build.set("profiler", Json::makeBool(true));
    doc.set("build", std::move(build));
    // Hardware measurement capability: whether backend=perf campaign
    // rows on this host will carry real counters or degrade to
    // unavailable placeholders.
    doc.set("pmu", pmuHealthJson());
    return jsonResponse(200, doc);
}

HttpResponse
ApiHandler::seriesz() const
{
    if (!sampler_)
        return jsonError(503, "no time-series sampler attached");
    HttpResponse resp;
    resp.contentType = "application/json";
    resp.body = sampler_->renderSeriesJson() + "\n";
    return resp;
}

HttpResponse
ApiHandler::dashz() const
{
    if (!sampler_)
        return jsonError(503, "no time-series sampler attached");
    HttpResponse resp;
    resp.contentType = "text/html; charset=utf-8";
    resp.body = sampler_->renderDashHtml();
    return resp;
}

HttpResponse
ApiHandler::profilez(const HttpRequest &req) const
{
    double seconds =
        std::strtod(req.queryParam("seconds", "2").c_str(), nullptr);
    seconds = std::clamp(seconds, 0.05, 30.0);
    telemetry::ProfilerOptions opts;
    const long hz =
        std::strtol(req.queryParam("hz", "997").c_str(), nullptr, 10);
    if (hz > 0)
        opts.hz = static_cast<int>(std::clamp(hz, 50l, 5000l));

    if (!telemetry::Profiler::instance().start(opts))
        return jsonError(409, "a profile is already running");
    // Blocks this request's server thread only; the profiler samples
    // the whole process meanwhile.
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    const telemetry::Profile profile =
        telemetry::Profiler::instance().stop(
            "profilez " + std::to_string(opts.hz) + "Hz");

    HttpResponse resp;
    if (req.queryParam("format", "json") == "svg") {
        resp.contentType = "image/svg+xml";
        resp.body = telemetry::renderFlamegraphSvg(
            profile.stacks, "roofline_serve CPU profile");
        return resp;
    }
    resp.contentType = "application/json";
    resp.body = telemetry::renderProfileJson(profile) + "\n";
    return resp;
}

HttpResponse
ApiHandler::statsz() const
{
    // One source of truth: the same registry /metricsz scrapes,
    // rendered in the grouped-JSON shape /statsz has always served
    // (the queue/cache/sessions/http groups come from the naming
    // convention — see telemetry/metrics.hh). Touching the probe
    // guarantees the pmu group exists even when no campaign or
    // /healthz request registered it yet.
    cachedPmuProbe();
    HttpResponse resp;
    resp.contentType = "application/json";
    resp.body = telemetry::Registry::global().renderJsonGrouped() + "\n";
    return resp;
}

HttpResponse
ApiHandler::metricsz() const
{
    HttpResponse resp;
    resp.contentType = "text/plain; version=0.0.4; charset=utf-8";
    resp.body = telemetry::Registry::global().renderPrometheus();
    return resp;
}

HttpResponse
ApiHandler::tracez(const HttpRequest &req) const
{
    const std::string job = req.queryParam("job");
    if (job.empty())
        return jsonError(400, "tracez requires ?job=<ticket>");
    HttpResponse resp;
    if (!queue_.traceJson(job, &resp.body)) {
        return jsonError(404, "no trace for ticket '" + job +
                                  "' (unknown, unfinished, or "
                                  "evicted)");
    }
    resp.contentType = "application/json";
    return resp;
}

} // namespace rfl::service
