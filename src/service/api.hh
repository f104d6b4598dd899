/**
 * @file
 * The roofline service's JSON API: HTTP in, campaign artifacts out.
 *
 * Endpoints (DESIGN.md §10, README "Serving"):
 *   POST /v1/campaigns                   submit a campaign spec (the
 *        text format of campaign/spec.hh, either raw in the body or
 *        as {"spec": "..."} JSON). 202 + ticket on acceptance, 200
 *        when an identical spec is already known (deduplicated), 400
 *        on an invalid spec, 429 when the queue is full.
 *   GET  /v1/campaigns/<id>              poll status (state, queue
 *        position, execution stats, artifact links).
 *   GET  /v1/campaigns/<id>/analysis     analysis.json (schema v4),
 *        byte-identical to roofline_report's file output.
 *   GET  /v1/campaigns/<id>/report.html  the HTML report.
 *   GET  /v1/campaigns/<id>/roofline.svg one scenario's SVG roofline
 *        (?scenario=N, default 0).
 *   GET  /healthz                        liveness + uptime.
 *   GET  /statsz                         queue depth, cache hit rate,
 *        in-flight counts, session and HTTP counters — a grouped JSON
 *        rendering of the global telemetry registry.
 *   GET  /metricsz                       the same registry in
 *        Prometheus text exposition format (0.0.4).
 *   GET  /tracez?job=<ticket>            chrome://tracing span tree of
 *        a finished campaign's execution.
 *   GET  /seriesz                        metrics time-series rings as
 *        JSON (kind "rfl-series"; see telemetry/timeseries.hh). 503
 *        until a sampler is attached.
 *   GET  /dashz                          self-contained live HTML
 *        dashboard (SVG sparklines, auto-refresh, no scripts).
 *   GET  /profilez?seconds=N&hz=H&format=json|svg
 *        run the SIGPROF sampling profiler for N seconds (blocking
 *        this request only) and return the collapsed profile as JSON
 *        or a flamegraph SVG. 409 when a profile is already running.
 *
 * Artifact endpoints answer 409 while the campaign is still queued or
 * running (poll the status endpoint), 404 for unknown tickets, and
 * 500 with the failure message for failed campaigns.
 *
 * Every request carries a request id (client-supplied X-Request-Id
 * header, or minted here) that joins the access-log line with the
 * job's root span.
 *
 * The handler is plain request -> response and owns no socket state,
 * so it is directly testable without a server. Rate limiting
 * (session.hh) applies to everything except /healthz, /statsz and
 * /metricsz — liveness probes and metric scrapers must never be
 * throttled (a throttled scrape reads as an outage on a dashboard).
 */

#ifndef RFL_SERVICE_API_HH
#define RFL_SERVICE_API_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>

#include "service/http_server.hh"
#include "service/job_queue.hh"
#include "service/session.hh"
#include "telemetry/metrics.hh"
#include "telemetry/timeseries.hh"

namespace rfl::service
{

/** See file comment. */
class ApiHandler
{
  public:
    ApiHandler(JobQueue &queue, SessionTable &sessions);

    /**
     * Wire the owning server's counters into /statsz (optional; the
     * server cannot be constructed before its handler exists).
     */
    void setServerStats(std::function<HttpServerStats()> supplier);

    /**
     * Attach the time-series sampler backing /seriesz and /dashz
     * (optional; both answer 503 without one). The sampler must
     * outlive the handler.
     */
    void setTimeSeriesSampler(telemetry::TimeSeriesSampler *sampler);

    /** Route one request; thread-safe. */
    HttpResponse handle(const HttpRequest &req);

  private:
    HttpResponse dispatch(const HttpRequest &req,
                          const std::string &requestId);
    HttpResponse submitCampaign(const HttpRequest &req,
                                const std::string &requestId);
    HttpResponse campaignRoute(const HttpRequest &req);
    HttpResponse health() const;
    HttpResponse statsz() const;
    HttpResponse metricsz() const;
    HttpResponse tracez(const HttpRequest &req) const;
    HttpResponse seriesz() const;
    HttpResponse dashz() const;
    HttpResponse profilez(const HttpRequest &req) const;

    JobQueue &queue_;
    SessionTable &sessions_;
    telemetry::TimeSeriesSampler *sampler_ = nullptr;
    std::function<HttpServerStats()> serverStats_;
    std::chrono::steady_clock::time_point start_;
    /** Minted ids for requests arriving without X-Request-Id. */
    std::atomic<uint64_t> nextRequestId_{0};
    /** Mirrors session + HTTP server stats into the global registry;
     *  declared last so it deregisters before the members it reads. */
    telemetry::Registry::CollectorHandle metricsCollector_;
};

} // namespace rfl::service

#endif // RFL_SERVICE_API_HH
