/**
 * @file
 * Hot-path simulator telemetry: where do batch-drain cycles go?
 *
 * The simulator's batched drain is the hottest code in the tree, so
 * its counters sit behind a runtime gate: every site is guarded by one
 * relaxed atomic-bool load, hoisted out of per-record loops, so with
 * telemetry disabled (the default) the drain pays a branch per
 * batch/run, not per access.
 *
 * The counters are process-global atomics, deliberately NOT per
 * Machine: they answer fleet questions ("how much of the traffic
 * coalesced?", "what forces flushes?") across every machine a
 * campaign builds. They only ever observe — no simulator state reads
 * them — so golden bit-identical equivalence holds with telemetry on
 * or off.
 *
 * Exposed through the global metrics Registry under the "sim" group
 * (rfl_sim_*): registerSimCollector() installs a collector mirroring
 * the atomics at scrape time.
 */

#ifndef RFL_TELEMETRY_SIM_COUNTERS_HH
#define RFL_TELEMETRY_SIM_COUNTERS_HH

#include <atomic>
#include <cstdint>

#include "telemetry/metrics.hh"

namespace rfl::telemetry
{

/** See file comment. */
struct SimCounters
{
    /** drainBatchSources() calls that had sources to drain. */
    std::atomic<uint64_t> drains{0};
    /** Batches consumed because an observation point forced a drain. */
    std::atomic<uint64_t> drainFlushBatches{0};
    /** Batches consumed because the producer's buffer filled up. */
    std::atomic<uint64_t> capacityFlushBatches{0};
    /** Records consumed across all batches. */
    std::atomic<uint64_t> records{0};
    /** Same-line coalesced runs taken (bulk counter update paths). */
    std::atomic<uint64_t> coalescedRuns{0};
    /** Records retired inside coalesced runs. */
    std::atomic<uint64_t> coalescedRecords{0};

    void
    reset()
    {
        drains = 0;
        drainFlushBatches = 0;
        capacityFlushBatches = 0;
        records = 0;
        coalescedRuns = 0;
        coalescedRecords = 0;
    }
};

/** The process-global instance. */
SimCounters &simCounters();

/** @name Runtime gate (default: disabled). */
///@{
extern std::atomic<bool> g_simTelemetryEnabled;

inline bool
simTelemetryEnabled()
{
    return g_simTelemetryEnabled.load(std::memory_order_relaxed);
}

void setSimTelemetryEnabled(bool enabled);
///@}

/**
 * Install a collector on @p registry that mirrors the sim counters
 * into rfl_sim_* metrics at every scrape. Idempotent per registry is
 * NOT guaranteed — call once per registry (the global registry gets
 * it automatically via ensureGlobalSimCollector()).
 */
Registry::CollectorHandle registerSimCollector(Registry &registry);

/** Install the collector on Registry::global() exactly once. */
void ensureGlobalSimCollector();

/**
 * Instrumentation-site macro: @p ... runs only when telemetry is
 * runtime-enabled. Keep sites out of per-record loops; accumulate
 * locally and publish per batch/span instead.
 */
#define RFL_TELEM(...)                                                 \
    do {                                                               \
        if (::rfl::telemetry::simTelemetryEnabled()) {                 \
            __VA_ARGS__;                                               \
        }                                                              \
    } while (0)

} // namespace rfl::telemetry

#endif // RFL_TELEMETRY_SIM_COUNTERS_HH
