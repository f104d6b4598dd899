/**
 * @file
 * JobGraph: expansion of a CampaignSpec into schedulable jobs.
 *
 * Six job kinds:
 *   - Ceiling: characterize the roofline ceilings of one machine under
 *     one scenario signature (core set, NUMA policy, prefetch enable).
 *     Each distinct signature per machine, however many variants share
 *     it, becomes seven Ceiling jobs: six probes and one fold (see
 *     Job::ceilingPart). One probe measures the compute roofs and one
 *     each bandwidth flavor of roofline::allBwProbes(), every probe on
 *     its own sim::Machine. The fold depends on all six, combines them
 *     with roofline::foldCeilings() into the model, and is the only
 *     one to store it. All seven share the ceiling's cache key and
 *     decode a cached entry the same way, so a valid entry answers all
 *     of them and a stale one makes all of them recompute.
 *   - Measure: run one kernel under one variant on one machine.
 *   - TraceRecord: record one traced kernel's access stream on one
 *     machine into a content-addressed trace file. One per (machine,
 *     trace) — the stream depends only on the kernel, the machine's
 *     vector width and the record seed, never on the variant.
 *   - TraceReplay: measure the recorded stream (as a TraceKernel) under
 *     one variant on one machine. Links its Ceiling job (first dep)
 *     and depends on its TraceRecord job (second dep).
 *   - PhaseSample: run one phase entry's kernel under one variant on
 *     one machine with the interval sampler enabled, producing a
 *     PhaseTrajectory (analysis/phase.hh). Links its Ceiling job like
 *     a Measure job.
 *   - NativeMeasure: run one kernel under one variant natively on the
 *     host CPU with perf_event counters (backend = perf in the spec).
 *     Links its Ceiling job so the hardware row can be plotted
 *     against the scenario's simulated roofs. Cached under a
 *     host-identity key (cpu model + flags + RFL_PERF_EVENTS hash):
 *     hardware rows are not reproducible from MachineConfig alone.
 *
 * Every non-ceiling job except TraceRecord lists its machine's
 * ceiling fold for the variant's signature as its first dep, so a
 * config is characterized exactly once however many variants share
 * it. That first dep is a result link, not a scheduling edge: no job
 * reads the model while it runs, so the executor starts each job
 * without waiting for its ceiling, and the sinks and the analysis
 * follow the link to plot each measurement against its model once the
 * run has finished. The remaining deps (Job::dataDeps()) are data deps
 * the executor does wait for: a fold's probes, a replay's recording,
 * and a duplicate native job's first twin.
 *
 * Jobs are numbered in deterministic spec order: ceiling folds, then
 * machines x kernels x variants, then trace records, trace replays and
 * phase samples, then the ceiling probes, then native measurements.
 * That is also the aggregation order; the executor may *complete* jobs
 * in any order without affecting artifacts. The executor's pool is
 * FIFO, so the order is also the start order of the ready jobs. Probes
 * therefore come after the measure jobs, whose length the pool cannot
 * know, and longest first (triad, scale, copy, read, nt-set, then the
 * compute roofs), so the short probes fill the tail of the run.
 */

#ifndef RFL_CAMPAIGN_JOB_GRAPH_HH
#define RFL_CAMPAIGN_JOB_GRAPH_HH

#include <cstddef>
#include <string>
#include <vector>

#include "campaign/spec.hh"
#include "roofline/platform.hh"

namespace rfl::campaign
{

/** What a job computes. */
enum class JobKind
{
    Ceiling,
    Measure,
    TraceRecord,
    TraceReplay,
    PhaseSample,
    NativeMeasure,
};

/** @return "ceiling", "measure", "trace-record", "trace-replay",
 *  "phase" or "native-measure". */
const char *jobKindName(JobKind kind);

/** What a Ceiling job contributes to its scenario's model. */
enum class CeilingPart
{
    Fold,      ///< folds the six probes below into the model
    Compute,   ///< probe: the compute roofs
    Bandwidth, ///< probe: one bandwidth flavor (Job::flavor)
};

/** One schedulable unit. */
struct Job
{
    size_t id = 0;
    JobKind kind = JobKind::Measure;
    size_t machineIndex = 0;
    /** Variant whose signature/options this job runs under. */
    size_t variantIndex = 0;
    /** Kernel index (Measure), traces() index (TraceRecord/Replay), or
     *  phases() index (PhaseSample). */
    size_t kernelIndex = 0;
    /** Ceiling jobs: the fold or one of its probes. */
    CeilingPart ceilingPart = CeilingPart::Fold;
    /** Bandwidth probes: the flavor measured. */
    roofline::BwProbe flavor = roofline::BwProbe::Read;
    /** Content-addressed cache key (see result_cache.hh). */
    std::string cacheKey;
    /** Related job ids. deps.front() is the job's ceiling fold for
     *  every kind but Ceiling and TraceRecord — a result link the
     *  executor does not wait for. A fold's deps are its compute probe,
     *  then its bandwidth probes in allBwProbes() order. */
    std::vector<size_t> deps;

    /** @return whether deps.front() is this job's ceiling link: true
     *  for every kind but Ceiling and TraceRecord. */
    bool linksCeiling() const;

    /** @return the deps that must complete before this job starts:
     *  all of them but the ceiling link (see file comment). */
    std::vector<size_t> dataDeps() const;

    /** Human-readable description for logs and error messages. */
    std::string describe(const CampaignSpec &spec) const;
};

/** See file comment. */
class JobGraph
{
  public:
    /** Expand @p spec (validated first) into jobs with dependencies. */
    static JobGraph expand(const CampaignSpec &spec);

    const std::vector<Job> &jobs() const { return jobs_; }
    size_t size() const { return jobs_.size(); }
    /** Ceiling jobs: folds and probes alike. */
    size_t ceilingJobs() const { return ceilingJobs_; }
    size_t measureJobs() const { return jobs_.size() - ceilingJobs_; }

    /**
     * @return the ceiling fold whose model covers @p job (itself for
     * Ceiling jobs); panics for a TraceRecord job, which has none.
     */
    static size_t ceilingJobFor(const Job &job);

  private:
    std::vector<Job> jobs_;
    size_t ceilingJobs_ = 0;
};

/**
 * Cache key of a ceiling characterization:
 * "ceiling|<machine-hash>|cores=...,numa=...,prefetch=...".
 */
std::string ceilingCacheKey(const sim::MachineConfig &config,
                            const RunOptions &opts);

/**
 * Cache key of one measurement:
 * "measure|<machine-hash>|<kernel spec>|<canonical run options>".
 */
std::string measureCacheKey(const sim::MachineConfig &config,
                            const std::string &kernelSpec,
                            const RunOptions &opts);

/** Lanes/seed a trace recording runs with (part of its cache key). */
struct TraceRecordParams
{
    int lanes = 0; ///< machine max vector doubles
    uint64_t seed = 42;
};

/** Record parameters for @p config (lanes resolved to machine max). */
TraceRecordParams traceRecordParams(const sim::MachineConfig &config);

/**
 * Cache key of a trace recording:
 * "trace|<machine-hash>|<kernel spec>|lanes=..,seed=..". The recorded
 * stream is deterministic in exactly these inputs, so the key
 * content-addresses the trace file across processes.
 */
std::string traceRecordCacheKey(const sim::MachineConfig &config,
                                const std::string &kernelSpec);

/**
 * Cache key of a trace-replay measurement:
 * "replay|<machine-hash>|<kernel spec>|lanes=..,seed=..|<options>".
 */
std::string traceReplayCacheKey(const sim::MachineConfig &config,
                                const std::string &kernelSpec,
                                const RunOptions &opts);

/**
 * Cache key of a phase-sample run:
 * "phase|<machine-hash>|<kernel spec>|period=N|<canonical options>".
 */
std::string phaseSampleCacheKey(const sim::MachineConfig &config,
                                const PhaseEntry &phase,
                                const RunOptions &opts);

/**
 * Stable hex hash identifying the measurement host for native rows:
 * cpu model name + feature flags (first /proc/cpuinfo processor) +
 * the RFL_PERF_EVENTS map + the LLC size (roofline::hostLlcBytes()).
 * Two hosts with the same hash count the same events on the same
 * silicon. Computed once per process.
 */
std::string hostIdentityHash();

/**
 * Cache key of a native (hardware) measurement:
 * "native|<host-identity>|<kernel spec>|<canonical run options>".
 * Deliberately machine-config-free — the simulated machine does not
 * shape what the host CPU does.
 */
std::string nativeMeasureCacheKey(const std::string &kernelSpec,
                                  const RunOptions &opts);

} // namespace rfl::campaign

#endif // RFL_CAMPAIGN_JOB_GRAPH_HH
