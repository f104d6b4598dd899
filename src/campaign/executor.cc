#include "campaign/executor.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <mutex>
#include <optional>
#include <random>

#include "analysis/phase.hh"
#include "kernels/engine.hh"
#include "kernels/registry.hh"
#include "pmu/perf_backend.hh"
#include "roofline/native_measurement.hh"
#include "roofline/platform.hh"
#include "support/address_arena.hh"
#include "support/cancel.hh"
#include "support/failpoint.hh"
#include "support/hash.hh"
#include "support/logging.hh"
#include "support/thread_pool.hh"
#include "telemetry/metrics.hh"
#include "telemetry/resource.hh"
#include "telemetry/sim_counters.hh"
#include "trace/trace_file.hh"
#include "trace/trace_kernel.hh"

namespace rfl::campaign
{

namespace
{

/** Shared state of one run(); workers touch it only under mutex. */
struct RunState
{
    std::mutex mutex;
    std::vector<size_t> remainingDeps; // per job
    std::vector<std::vector<size_t>> dependents;
    std::vector<size_t> completionOrder;
    std::vector<size_t> nativeQueue; // ready NativeMeasure jobs, parked
    std::map<std::string, CampaignRun::KindStats> jobsByKind;
    std::atomic<size_t> simulated{0};
    std::atomic<size_t> cacheHits{0};
    telemetry::ResourceDelta resources; // run totals, under mutex
};

/** Number of JobKind values (NativeMeasure is the last). */
constexpr size_t kJobKinds = static_cast<size_t>(JobKind::NativeMeasure) + 1;

/** Process-global campaign metrics; registered once, bumped per job. */
struct CampaignMetrics
{
    telemetry::Counter &cacheHits;
    telemetry::Counter &cacheMisses;
    telemetry::Histogram &jobSeconds;
    telemetry::Gauge &jobMaxRss;
    /** rfl_job_cpu_seconds{kind=}, indexed by JobKind. A kind's series
     *  is resolved by its first finished job, so /metricsz lists only
     *  the kinds that ran. */
    std::array<std::atomic<telemetry::Histogram *>, kJobKinds>
        jobCpuSeconds{};
};

CampaignMetrics &
campaignMetrics()
{
    telemetry::Registry &reg = telemetry::Registry::global();
    static CampaignMetrics m{
        reg.counter("rfl_campaign_cache_hits_total",
                    "campaign jobs answered by the result cache"),
        reg.counter("rfl_campaign_cache_misses_total",
                    "campaign jobs that had to execute"),
        reg.histogram("rfl_campaign_job_seconds",
                      "host wall seconds per executed campaign job"),
        reg.gauge("rfl_job_maxrss_bytes",
                  "process peak RSS observed at the end of the most "
                  "recent campaign job"),
    };
    return m;
}

/** @return rfl_job_cpu_seconds{kind=@p kind}; the registry lock is
 *  taken only by the first finished job of each kind. */
telemetry::Histogram &
jobCpuSeconds(JobKind kind)
{
    std::atomic<telemetry::Histogram *> &slot =
        campaignMetrics().jobCpuSeconds[static_cast<size_t>(kind)];
    telemetry::Histogram *h = slot.load(std::memory_order_acquire);
    if (!h) {
        // Registration is idempotent: racing first jobs get the same
        // series.
        h = &telemetry::Registry::global().histogram(
            "rfl_job_cpu_seconds",
            "thread CPU seconds (user+system) per executed campaign job",
            {{"kind", jobKindName(kind)}});
        slot.store(h, std::memory_order_release);
    }
    return *h;
}

/**
 * A stage span that also brackets the stage with
 * getrusage(RUSAGE_THREAD): when tracing is active the span carries
 * the stage's CPU seconds and fault counts as attrs, correlating the
 * trace tree with what the stage cost the machine. Costs two rusage
 * syscalls per *traced* stage and nothing extra when untraced beyond
 * the snapshot at construction.
 */
class StageSpan
{
  public:
    explicit StageSpan(const char *name) : span_(name) {}

    ~StageSpan()
    {
        if (!span_.active())
            return;
        const telemetry::ResourceDelta d = usage_.delta();
        char cpu[32];
        std::snprintf(cpu, sizeof(cpu), "%.6f", d.cpuSeconds());
        span_.attr("cpu_s", cpu);
        span_.attr("maj_faults", std::to_string(d.majorFaults));
        span_.attr("min_faults", std::to_string(d.minorFaults));
    }

  private:
    telemetry::Span span_;
    telemetry::ScopedThreadUsage usage_;
};

/**
 * The one entry into a job stage: a deadline check and the named
 * failpoint, then @p body inside a StageSpan called @p name; @return
 * what @p body returns. An error-action failpoint fails the job via
 * fatal() (which throws in service mode), a throw-action one throws
 * FailpointError directly; either way the job fails cleanly between
 * stages, never mid-simulation.
 */
template <typename Body>
auto
stage(const char *failpointName, const char *name, Body &&body)
{
    checkCancelled(name);
    if (failpoint::fire(failpointName))
        fatal("campaign: injected fault before %s stage", name);
    StageSpan span(name);
    return body();
}

/** A machine of @p config under the variant's NUMA policy and
 *  prefetch switch. */
std::unique_ptr<sim::Machine>
buildMachine(const sim::MachineConfig &config, const RunOptions &opts)
{
    auto machine = std::make_unique<sim::Machine>(config);
    machine->setMemPolicy(opts.memPolicy);
    machine->setPrefetchEnabled(opts.prefetchEnabled);
    return machine;
}

/**
 * Measure one kernel on a machine of its own (Measure and TraceReplay
 * jobs): @p makeKernel runs in the machine-build stage, the
 * measurement in the simulate stage, both inside one canonical
 * address space so the result is reproducible across processes, heap
 * states and host threads (see support/address_arena.hh).
 */
roofline::Measurement
measureKernel(
    const std::function<std::unique_ptr<kernels::Kernel>()> &makeKernel,
    const sim::MachineConfig &config, const RunOptions &opts,
    const roofline::MeasureOptions &mopts)
{
    AddressArena::Scope addresses;
    std::unique_ptr<kernels::Kernel> kernel;
    const auto machine = stage("job.machine-build", "machine-build", [&] {
        kernel = makeKernel();
        return buildMachine(config, opts);
    });
    roofline::Measurer measurer(*machine);
    return stage("job.simulate", "simulate",
                 [&] { return measurer.measure(*kernel, mopts); });
}

/**
 * Record one traced kernel's access stream into a content-addressed
 * file under @p trace_dir. The stream depends only on the kernel spec
 * and the record parameters (machine max lanes, fixed seed) — see
 * traceRecordCacheKey — so the final file name (the stream's stable
 * hash) is deterministic across processes.
 */
TraceInfo
recordTrace(const sim::MachineConfig &config, const std::string &spec,
            const std::string &trace_dir, size_t job_id)
{
    namespace fs = std::filesystem;
    fs::create_directories(trace_dir);

    // Unique scratch name: job ids restart at 0 in every process and
    // two processes may race on the same spec in a shared traceDir, so
    // the name needs a per-process random component on top of the job
    // id — the rename to the content-addressed name is atomic either
    // way, but the scratch files must never alias.
    static const uint64_t process_nonce = std::random_device{}();
    const std::string tmp =
        trace_dir + "/.recording-" + std::to_string(job_id) + "-" +
        hashToHex(Fnv1a()
                      .mix(spec)
                      .mix(process_nonce)
                      .mix(static_cast<uint64_t>(
                          std::chrono::steady_clock::now()
                              .time_since_epoch()
                              .count()))
                      .value()) +
        ".tmp";

    const TraceRecordParams params = traceRecordParams(config);
    AddressArena::Scope scope;
    std::unique_ptr<kernels::Kernel> kernel;
    const auto machine = stage("job.machine-build", "machine-build", [&] {
        auto built = std::make_unique<sim::Machine>(config);
        kernel = kernels::createKernel(spec);
        kernel->init(params.seed);
        built->setDependentAccesses(kernel->dependentAccesses());
        return built;
    });

    TraceInfo info;
    try {
        trace::TraceWriter writer(tmp);
        writer.setDependentAccesses(kernel->dependentAccesses());
        stage("job.simulate", "simulate", [&] {
            kernels::SimEngine engine(*machine, 0, params.lanes,
                                      /*use_fma=*/true);
            engine.setTraceWriter(&writer);
            kernel->run(engine, 0, 1);
            // The last batch is written here, not by the engine's
            // destructor: a failed write must propagate, and a
            // destructor that throws terminates the process.
            engine.flush();
        });
        stage("job.encode", "encode", [&] {
            writer.finish();
            info.summary = writer.summary();
            info.path = trace_dir + "/" + hashToHex(info.summary.hash) +
                        ".rfltrace";
            std::error_code ec;
            fs::rename(tmp, info.path, ec);
            if (ec) {
                fatal("campaign: cannot move trace to '%s': %s",
                      info.path.c_str(), ec.message().c_str());
            }
        });
    } catch (...) {
        // A failed, cancelled or timed-out recording must not leave
        // its scratch file in the shared trace directory.
        std::error_code ignored;
        fs::remove(tmp, ignored);
        throw;
    }
    return info;
}

/** @return whether the cached trace file still exists and matches. */
bool
traceFileValid(const TraceInfo &info)
{
    trace::TraceReader reader;
    return reader.open(info.path) &&
           reader.stableHash() == info.summary.hash;
}

/** Decode a cached @p payload into the field @p kind fills; JsonError
 *  on a payload of another shape. */
void
decodePayload(JobKind kind, const std::string &payload, JobResult &result)
{
    switch (kind) {
      case JobKind::Ceiling:
        result.model = decodeModel(payload);
        return;
      case JobKind::TraceRecord:
        result.trace = decodeTraceInfo(payload);
        return;
      case JobKind::PhaseSample:
        result.phases = decodePhaseTrajectory(payload);
        return;
      default:
        result.measurement = decodeMeasurement(payload);
        return;
    }
}

/** The cache payload of the field @p kind fills (decodePayload()'s
 *  inverse). */
std::string
encodePayload(JobKind kind, const JobResult &result)
{
    switch (kind) {
      case JobKind::Ceiling: return encodeModel(result.model);
      case JobKind::TraceRecord: return encodeTraceInfo(result.trace);
      case JobKind::PhaseSample: return encodePhaseTrajectory(result.phases);
      default: return encodeMeasurement(result.measurement);
    }
}

/** Execute one job (cache lookup, else its stages, then the store).
 *  @p results carries completed dependencies (a replay reads its
 *  recording's file path from them, a ceiling fold its probes'
 *  results). */
JobResult
executeJob(const CampaignSpec &spec, const Job &job,
           const std::vector<JobResult> &results,
           const ExecutorOptions &exec_opts,
           std::atomic<size_t> &simulated, std::atomic<size_t> &cacheHits)
{
    ResultCache *cache = exec_opts.cache;
    JobResult result;

    std::string payload;
    {
        telemetry::Span probe("cache-probe");
        if (cache && cache->lookup(job.cacheKey, &payload)) {
            result.fromCache = true;
            bool valid = true;
            try {
                decodePayload(job.kind, payload, result);
                // A cached recording is only as good as the file it
                // points at: someone may have pruned the trace
                // directory.
                if (job.kind == JobKind::TraceRecord)
                    valid = traceFileValid(result.trace);
            } catch (const JsonError &) {
                // A payload of another shape (corrupt, or written by
                // another schema) is recomputed like a stale trace.
                valid = false;
            }
            if (valid) {
                probe.attr("outcome", "hit");
                ++cacheHits;
                campaignMetrics().cacheHits.inc();
                return result;
            }
            probe.attr("outcome", "stale");
            result = JobResult{};
        } else {
            probe.attr("outcome", "miss");
        }
    }
    campaignMetrics().cacheMisses.inc();

    const sim::MachineConfig &config =
        spec.machines()[job.machineIndex].config;
    const RunOptions &opts = spec.variants()[job.variantIndex].opts;

    switch (job.kind) {
      case JobKind::Ceiling: {
        if (job.ceilingPart != CeilingPart::Fold) {
            // A probe runs on a machine of its own and stores nothing:
            // its fold stores the whole model.
            const auto machine =
                stage("job.machine-build", "machine-build",
                      [&] { return buildMachine(config, opts); });
            roofline::PlatformProbe probe(*machine);
            stage("job.simulate", "simulate", [&] {
                if (job.ceilingPart == CeilingPart::Compute)
                    result.model = probe.computeCeilings(opts.measure.cores);
                else
                    result.bandwidth =
                        probe.bandwidthPeak(opts.measure.cores, job.flavor);
            });
            break;
        }
        // deps = {compute probe, bandwidth probes in allBwProbes()
        // order}, all complete. A probe answered from the cache decoded
        // the whole model: that happens only when the entry vanished
        // between its lookup and this one (ResultCache::compact), and
        // then that model is the answer.
        const auto cached =
            std::find_if(job.deps.begin(), job.deps.end(),
                         [&](size_t dep) { return results[dep].fromCache; });
        if (cached != job.deps.end()) {
            result.model = results[*cached].model;
        } else {
            std::vector<roofline::BandwidthResult> bandwidth;
            for (size_t i = 1; i < job.deps.size(); ++i)
                bandwidth.push_back(results[job.deps[i]].bandwidth);
            result.model = roofline::foldCeilings(
                results[job.deps.front()].model, bandwidth);
        }
        break;
      }
      case JobKind::Measure:
        result.measurement = measureKernel(
            [&] {
                return kernels::createKernel(
                    spec.kernels()[job.kernelIndex]);
            },
            config, opts, opts.measure);
        break;
      case JobKind::TraceRecord:
        result.trace =
            recordTrace(config, spec.traces()[job.kernelIndex],
                        exec_opts.traceDir, job.id);
        break;
      case JobKind::TraceReplay: {
        // deps = {ceiling, record}; only the record gates this job, and
        // it ran first and left the trace file behind.
        RFL_ASSERT(job.deps.size() == 2);
        const std::string &path = results[job.deps[1]].trace.path;
        // Replay is single-stream: run on the variant's first core.
        roofline::MeasureOptions mopts = opts.measure;
        mopts.cores = {opts.measure.cores.front()};
        result.measurement = measureKernel(
            [&] { return std::make_unique<trace::TraceKernel>(path); },
            config, opts, mopts);
        // Label the measurement by what was traced, not the replay
        // mechanism, so sinks show "trace(daxpy:n=65536)" rows.
        result.measurement.kernel =
            "trace(" + spec.traces()[job.kernelIndex] + ")";
        break;
      }
      case JobKind::PhaseSample: {
        const PhaseEntry &phase = spec.phases()[job.kernelIndex];
        const auto machine =
            stage("job.machine-build", "machine-build",
                  [&] { return buildMachine(config, opts); });
        result.phases = stage("job.simulate", "simulate", [&] {
            return analysis::samplePhasesSpec(*machine, phase.spec,
                                              opts.measure, phase.period);
        });
        break;
      }
      case JobKind::NativeMeasure: {
        const std::string &kspec = spec.kernels()[job.kernelIndex];
        roofline::Measurement &m = result.measurement;
        if (!pmu::PerfEventBackend::available()) {
            // Placeholder row: the labels are valid (so every sink and
            // the delta table can name the missing cell) but the
            // numbers are not, and it is never cached — a later run
            // with PMU access must not hit a hollow entry.
            StageSpan build("machine-build");
            const std::unique_ptr<kernels::Kernel> kernel =
                kernels::createKernel(kspec);
            m.backend = "perf";
            m.available = false;
            m.quality = 0.0;
            m.kernel = kernel->name();
            m.sizeLabel = kernel->sizeLabel();
            m.protocol = roofline::protocolName(opts.measure.protocol);
            m.cores = static_cast<int>(opts.measure.cores.size());
            m.lanes = opts.measure.lanes;
            break;
        }
        std::unique_ptr<kernels::Kernel> kernel;
        std::optional<roofline::NativeMeasurer> measurer;
        stage("job.machine-build", "machine-build", [&] {
            kernel = kernels::createKernel(kspec);
            measurer.emplace();
        });
        roofline::NativeMeasureOptions nopts;
        nopts.protocol = opts.measure.protocol;
        nopts.repetitions = opts.measure.repetitions;
        nopts.warmupRuns = opts.measure.warmupRuns;
        // lanes=0 means "machine maximum" on the sim; the host default
        // is the 256-bit engine (4 doubles).
        nopts.lanes = opts.measure.lanes > 0 ? opts.measure.lanes : 4;
        nopts.useFma = opts.measure.useFma;
        // One host thread per simulated core of the variant.
        nopts.threads = static_cast<int>(opts.measure.cores.size());
        nopts.seed = opts.measure.seed;
        m = stage("job.simulate", "measure-native",
                  [&] { return measurer->measure(*kernel, nopts).base; });
        break;
      }
    }
    // Probes leave the model to their fold, and an unavailable row
    // (the native placeholder) is never cached.
    const bool probe =
        job.kind == JobKind::Ceiling && job.ceilingPart != CeilingPart::Fold;
    if (cache && !probe && result.measurement.available) {
        stage("job.encode", "encode", [&] {
            cache->store(job.cacheKey, encodePayload(job.kind, result));
        });
    }
    ++simulated;
    return result;
}

/** @return the result of the (machine, item, variant) grid cell of
 *  @p kind; panics when the campaign has no such cell. */
const JobResult &
cellResult(const CampaignRun &run, JobKind kind, size_t machineIdx,
           size_t itemIdx, size_t variantIdx)
{
    for (const Job &job : run.jobs)
        if (job.kind == kind && job.machineIndex == machineIdx &&
            job.kernelIndex == itemIdx && job.variantIndex == variantIdx)
            return run.results[job.id];
    panic("campaign: no %s job for machine %zu item %zu variant %zu",
          jobKindName(kind), machineIdx, itemIdx, variantIdx);
}

} // namespace

const roofline::Measurement &
CampaignRun::measurementFor(size_t machineIdx, size_t kernelIdx,
                            size_t variantIdx) const
{
    return cellResult(*this, JobKind::Measure, machineIdx, kernelIdx,
                      variantIdx)
        .measurement;
}

const roofline::Measurement &
CampaignRun::replayMeasurementFor(size_t machineIdx, size_t traceIdx,
                                  size_t variantIdx) const
{
    return cellResult(*this, JobKind::TraceReplay, machineIdx, traceIdx,
                      variantIdx)
        .measurement;
}

const analysis::PhaseTrajectory &
CampaignRun::phaseTrajectoryFor(size_t machineIdx, size_t phaseIdx,
                                size_t variantIdx) const
{
    return cellResult(*this, JobKind::PhaseSample, machineIdx, phaseIdx,
                      variantIdx)
        .phases;
}

const roofline::RooflineModel &
CampaignRun::modelFor(size_t machineIdx, size_t variantIdx) const
{
    // Every job of the variant that links a ceiling links the same
    // fold; follow the first such link.
    for (const Job &job : jobs)
        if (job.linksCeiling() && job.machineIndex == machineIdx &&
            job.variantIndex == variantIdx)
            return results[JobGraph::ceilingJobFor(job)].model;
    panic("campaign: no model for machine %zu variant %zu", machineIdx,
          variantIdx);
}

std::vector<roofline::Measurement>
CampaignRun::measurements() const
{
    std::vector<roofline::Measurement> out;
    for (const Job &job : jobs)
        if (job.kind == JobKind::Measure ||
            job.kind == JobKind::TraceReplay)
            out.push_back(results[job.id].measurement);
    for (const Job &job : jobs)
        if (job.kind == JobKind::NativeMeasure &&
            results[job.id].measurement.available)
            out.push_back(results[job.id].measurement);
    return out;
}

CampaignExecutor::CampaignExecutor(ExecutorOptions opts) : opts_(opts)
{
}

CampaignRun
CampaignExecutor::run(const CampaignSpec &spec,
                      telemetry::Tracer *tracer) const
{
    const auto start = std::chrono::steady_clock::now();
    telemetry::ensureGlobalSimCollector();

    const JobGraph graph = JobGraph::expand(spec);

    CampaignRun run;
    run.spec = spec;
    run.jobs = graph.jobs();
    run.results.resize(run.jobs.size());

    RunState state;
    state.remainingDeps.resize(run.jobs.size());
    state.dependents.resize(run.jobs.size());
    // Only data deps gate execution: a ceiling fold reads its probes'
    // results, a trace replay its recording's file, and a duplicate
    // native job replays the first one's cache entry. A job's edge to
    // its ceiling fold is a result link — no job reads the model while
    // it runs; modelFor() and the analysis follow it after run()
    // returns — so it does not hold the job back.
    for (const Job &job : run.jobs) {
        for (size_t dep : job.dataDeps()) {
            ++state.remainingDeps[job.id];
            state.dependents[dep].push_back(job.id);
        }
    }

    ThreadPool pool(opts_.threads);
    run.threadsUsed = pool.threadCount();

    // Deadline plumbing: the run deadline (spec `timeout =`) is fixed
    // at start; each job additionally gets jobTimeoutSeconds from its
    // own start, the earlier deadline winning. All tokens link one
    // abort flag — the first failure (timeout or otherwise) cancels
    // every sibling at its next drain check.
    std::atomic<bool> abortRun{false};
    const bool hasRunDeadline = spec.timeoutSeconds() > 0.0;
    const auto runDeadline =
        start + std::chrono::duration_cast<
                    std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(spec.timeoutSeconds()));

    // submitJob is recursive through the pool: finishing a job submits
    // its newly-unblocked dependents. NativeMeasure jobs are the
    // exception — they observe the physical host (wall clock and PMU
    // counters), so running them beside sim jobs on the shared pool
    // multiplexes their counters against workers saturating the same
    // cores and skews the sim-vs-silicon delta pessimistic. submitJob
    // parks them instead; they run serially after the pool drains.
    std::function<void(size_t)> submitJob;

    const auto runJob = [&](size_t id) {
        // One scope per task: the executing thread binds the
        // campaign's tracer for exactly this job.
        telemetry::TraceScope traceScope(tracer);
        const Job &job = run.jobs[id];
        const auto jobStart = std::chrono::steady_clock::now();
        CancelToken token;
        token.linkAbortFlag(&abortRun);
        if (hasRunDeadline)
            token.setDeadline(runDeadline);
        if (opts_.jobTimeoutSeconds > 0.0) {
            const auto jobDeadline =
                jobStart +
                std::chrono::duration_cast<
                    std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(
                        opts_.jobTimeoutSeconds));
            token.setDeadline(hasRunDeadline
                                  ? std::min(runDeadline,
                                             jobDeadline)
                                  : jobDeadline);
        }
        CancelScope cancelScope(&token);
        try {
            telemetry::Span span(jobKindName(job.kind));
            span.attr("job", std::to_string(id));
            span.attr("machine",
                      spec.machines()[job.machineIndex].label);
            // The job runs entirely on the current thread (a pool
            // worker, or this thread for serial native jobs), so a
            // RUSAGE_THREAD bracket is exactly the job's own
            // consumption regardless of concurrency.
            const telemetry::ScopedThreadUsage usage;
            run.results[id] =
                executeJob(spec, job, run.results, opts_,
                           state.simulated, state.cacheHits);
            if (run.results[id].fromCache) {
                span.attr("cached", "true");
            } else {
                const telemetry::ResourceDelta res = usage.delta();
                run.results[id].resources = res;
                char cpu[32];
                std::snprintf(cpu, sizeof(cpu), "%.6f",
                              res.cpuSeconds());
                span.attr("cpu_s", cpu);
                jobCpuSeconds(job.kind).observe(res.cpuSeconds());
                campaignMetrics().jobMaxRss.set(
                    static_cast<double>(res.maxrssBytes));
            }
        } catch (...) {
            // The pool keeps (and rethrows) only the first
            // failure; the flag makes the rest unwind fast.
            abortRun.store(true, std::memory_order_relaxed);
            throw;
        }
        const double jobSeconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - jobStart)
                .count();
        campaignMetrics().jobSeconds.observe(jobSeconds);
        std::vector<size_t> ready;
        {
            std::lock_guard<std::mutex> lock(state.mutex);
            state.completionOrder.push_back(id);
            auto &ks = state.jobsByKind[jobKindName(job.kind)];
            ks.count += 1;
            ks.seconds += jobSeconds;
            ks.cpuSeconds += run.results[id].resources.cpuSeconds();
            state.resources.add(run.results[id].resources);
            for (size_t dep_id : state.dependents[id]) {
                RFL_ASSERT(state.remainingDeps[dep_id] > 0);
                if (--state.remainingDeps[dep_id] == 0)
                    ready.push_back(dep_id);
            }
        }
        for (size_t next : ready)
            submitJob(next);
    };

    submitJob = [&](size_t id) {
        if (run.jobs[id].kind == JobKind::NativeMeasure) {
            std::lock_guard<std::mutex> lock(state.mutex);
            state.nativeQueue.push_back(id);
            return;
        }
        pool.submit([&runJob, id] { runJob(id); });
    };

    // Collect the initial ready set before submitting any of it: once
    // the first job is on the pool, workers decrement remainingDeps
    // concurrently, and a job whose count they drive to zero is
    // submitted by them — reading the counters here too would submit
    // it twice.
    std::vector<size_t> initial;
    for (const Job &job : run.jobs)
        if (state.remainingDeps[job.id] == 0)
            initial.push_back(job.id);
    for (size_t id : initial)
        submitJob(id);
    // Drain the pool, then run any parked native jobs one at a time on
    // this thread with the pool idle (the quiet-machine discipline the
    // hardware rows need). A native job can unblock more work — pool
    // jobs or further natives — so alternate until both are empty.
    for (;;) {
        pool.wait();
        std::vector<size_t> natives;
        {
            std::lock_guard<std::mutex> lock(state.mutex);
            natives.swap(state.nativeQueue);
        }
        if (natives.empty())
            break;
        std::sort(natives.begin(), natives.end());
        for (size_t id : natives)
            runJob(id);
    }

    RFL_ASSERT(state.completionOrder.size() == run.jobs.size());
    run.completionOrder = std::move(state.completionOrder);
    run.jobsByKind = std::move(state.jobsByKind);
    run.resources = state.resources;
    run.simulated = state.simulated.load();
    run.cacheHits = state.cacheHits.load();
    run.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    return run;
}

} // namespace rfl::campaign
