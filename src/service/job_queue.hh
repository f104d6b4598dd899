/**
 * @file
 * Asynchronous campaign job queue: the service's execution core.
 *
 * Clients submit campaign specs (the text format of campaign/spec.hh);
 * the queue validates, deduplicates and enqueues them, and a fixed set
 * of worker threads drains the queue through one shared
 * CampaignExecutor — campaign/phase/trace jobs all ride the same
 * spec-driven path. Results are rendered to in-memory artifacts
 * (analysis/report.hh ReportArtifacts) the API layer streams out.
 *
 * Ticket ids ARE content addresses: a submission's id is the hex of
 * CampaignSpec::stableHash(), so two clients submitting an identical
 * spec — concurrently or hours apart — get the same ticket, the
 * campaign executes at most once, and both read the same cached
 * artifacts. Distinct in-flight specs queue up to maxQueued deep;
 * beyond that submissions are rejected (the API answers 429) so a
 * flood degrades into explicit backpressure instead of unbounded
 * memory growth. Finished jobs are retained up to maxFinished and
 * then evicted oldest-first, so memory stays bounded for any
 * submission history — evicted specs re-run from the warm result
 * cache when resubmitted.
 *
 * The queue flips the process into fatal-throws mode (see
 * support/logging.hh): every user-error fatal() anywhere under a
 * worker — bad kernel spec, unwritable cache, vanished trace file —
 * surfaces as a Failed job with the message as its error, never as
 * exit(1). Worker exceptions propagate through the hardened
 * ThreadPool (support/thread_pool.hh) the same way.
 */

#ifndef RFL_SERVICE_JOB_QUEUE_HH
#define RFL_SERVICE_JOB_QUEUE_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "analysis/report.hh"
#include "campaign/executor.hh"
#include "campaign/result_cache.hh"
#include "telemetry/metrics.hh"

namespace rfl::service
{

/** Queue knobs. */
struct JobQueueOptions
{
    /** Concurrent campaign executions (each one is itself parallel
     *  across ExecutorOptions::threads host threads). */
    int workers = 2;
    /** Distinct campaigns allowed to wait; more rejects with
     *  QueueFull (HTTP 429). Running/finished jobs don't count. */
    size_t maxQueued = 32;
    /**
     * Finished (Done/Failed) jobs retained in memory, artifact sets
     * included; beyond this the oldest-finished are evicted. An
     * evicted ticket answers 404, and resubmitting its spec re-runs
     * the campaign — cheaply, since every cell is still in the
     * result cache. Together with maxQueued this bounds the
     * daemon's memory for any submission history.
     */
    size_t maxFinished = 256;
    /** Per-campaign executor knobs; the cache field is ignored (the
     *  queue owns the shared cache — see cachePath). */
    campaign::ExecutorOptions exec;
    /** JSONL spill path of the shared result cache; "" = in-memory. */
    std::string cachePath;
};

/** Lifecycle of one submitted campaign. */
enum class JobState
{
    Queued,
    Running,
    Done,
    Failed,
    /** Exceeded its deadline (spec `timeout =` or the executor's
     *  per-job budget) and was cancelled cooperatively; the worker is
     *  free, the ticket answers 504, and a resubmission retries. */
    TimedOut,
};

/** @return "queued", "running", "done", "failed" or "timed_out". */
const char *jobStateName(JobState state);

/** Snapshot of one job, as reported by GET /v1/campaigns/<id>. */
struct JobStatus
{
    std::string id;
    std::string campaign; ///< spec name
    JobState state = JobState::Queued;
    std::string error;        ///< Failed/TimedOut only
    size_t queuePosition = 0; ///< 1-based; Queued only
    /** Execution stats; Done only. */
    size_t jobs = 0;
    size_t simulated = 0;
    size_t cacheHits = 0;
    double wallSeconds = 0.0;
    int threadsUsed = 0;
    size_t scenarioCount = 0; ///< SVG artifacts available
    /** Aggregated rusage of the execution; Done/Failed only. */
    telemetry::ResourceDelta resources;
};

/** What submit() decided. */
struct SubmitOutcome
{
    enum class Kind
    {
        Accepted,      ///< new job enqueued
        Deduplicated,  ///< identical spec already known (any state)
        QueueFull,     ///< backpressure: retry later (429)
        Invalid,       ///< spec rejected (400); see error
    };
    Kind kind = Kind::Invalid;
    std::string id;    ///< Accepted/Deduplicated
    JobState state = JobState::Queued; ///< Accepted/Deduplicated
    std::string error; ///< Invalid
};

/** Monotonic queue counters, exposed by /statsz. */
struct JobQueueStats
{
    size_t depth = 0;   ///< currently queued
    size_t running = 0; ///< currently executing
    size_t done = 0;
    size_t failed = 0;
    size_t timedOut = 0; ///< deadline-cancelled, retained in memory
    uint64_t submitted = 0;     ///< all submit() calls
    uint64_t accepted = 0;      ///< new jobs enqueued
    uint64_t deduplicated = 0;  ///< answered by an existing ticket
    uint64_t rejectedFull = 0;
    uint64_t rejectedInvalid = 0;
    uint64_t executed = 0;      ///< campaigns actually run
};

/** See file comment. */
class JobQueue
{
  public:
    explicit JobQueue(JobQueueOptions opts = {});

    /** Drains nothing: stops workers after their current campaign. */
    ~JobQueue();

    JobQueue(const JobQueue &) = delete;
    JobQueue &operator=(const JobQueue &) = delete;

    /** Parse, validate, dedup and enqueue @p specText. @p requestId
     *  (the API layer's per-request id) is attached to the job's root
     *  span so access-log lines and trace trees correlate. */
    SubmitOutcome submit(const std::string &specText,
                         const std::string &requestId = "");

    /** @return false when @p id is unknown. */
    bool status(const std::string &id, JobStatus *out) const;

    /** @name Artifact access (Done jobs only; false otherwise). */
    ///@{
    bool analysisJson(const std::string &id, std::string *out) const;
    bool reportHtml(const std::string &id, std::string *out) const;
    /** SVG of scenarios()[@p scenario]; false when out of range. */
    bool svg(const std::string &id, size_t scenario,
             std::string *out) const;
    /** Chrome trace-event JSON of the job's execution (Done or
     *  Failed — a failed campaign still has a partial trace). */
    bool traceJson(const std::string &id, std::string *out) const;
    ///@}

    /**
     * Block until @p id reaches Done, Failed or TimedOut (used by
     * tests and perfbench; HTTP clients poll instead). @return
     * false on timeout or unknown id.
     */
    bool waitFor(const std::string &id, double timeoutSeconds) const;

    JobQueueStats stats() const;
    campaign::CacheStats cacheStats() const;

    /** Stop workers (after their in-flight campaign); idempotent. */
    void stop();

  private:
    struct Record
    {
        std::string id;
        campaign::CampaignSpec spec;
        JobState state = JobState::Queued;
        std::string error;
        std::string requestId; ///< API request that enqueued it
        std::chrono::steady_clock::time_point submittedAt;
        size_t jobs = 0;
        size_t simulated = 0;
        size_t cacheHits = 0;
        double wallSeconds = 0.0;
        int threadsUsed = 0;
        telemetry::ResourceDelta resources;
        analysis::ReportArtifacts artifacts;
        /** Chrome trace of the execution; set when it finishes. */
        std::string traceJson;
    };

    void workerLoop();
    std::shared_ptr<const Record> find(const std::string &id) const;
    /** Drop oldest finished records past maxFinished; mutex_ held. */
    void evictFinishedLocked();

    JobQueueOptions opts_;
    std::unique_ptr<campaign::ResultCache> cache_;
    campaign::CampaignExecutor executor_;

    mutable std::mutex mutex_;
    std::condition_variable queueCv_; ///< work available / stopping
    mutable std::condition_variable stateCv_; ///< job state changed
    std::deque<std::string> queue_;
    /** Completion order of finished jobs (eviction is FIFO). */
    std::deque<std::string> finishedOrder_;
    std::map<std::string, std::shared_ptr<Record>> jobs_;
    std::vector<std::thread> workers_;
    bool stopping_ = false;
    JobQueueStats stats_;

    /** Submit-to-finish latency (global registry; set in ctor). */
    telemetry::Histogram *turnaround_ = nullptr;
    /**
     * Mirrors stats_/cacheStats() into the rfl_queue and rfl_cache
     * metric families on every scrape. Declared last: its destructor
     * deregisters the collector before any member it reads dies.
     */
    telemetry::Registry::CollectorHandle metricsCollector_;
};

} // namespace rfl::service

#endif // RFL_SERVICE_JOB_QUEUE_HH
