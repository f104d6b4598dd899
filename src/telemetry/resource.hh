/**
 * @file
 * Per-job resource accounting: what did this job cost the machine?
 *
 * Spans answer "where did the wall time go"; this answers the
 * orthogonal question — CPU seconds (user/system), peak RSS and page
 * faults — per executed campaign job. The mechanism is two
 * getrusage(RUSAGE_THREAD) calls bracketing the job: the executor
 * runs each job entirely on one worker thread, so the thread-scoped
 * deltas are exactly the job's own consumption even with many jobs in
 * flight (RUSAGE_SELF would smear all workers together).
 *
 * One caveat is inherent to the kernel interface: ru_maxrss is the
 * *process* high-water mark even under RUSAGE_THREAD, so it is
 * reported as an absolute level ("peak RSS observed by the end of
 * this job"), not a delta — useful for spotting the job that pushed
 * the process to its peak, meaningless to sum.
 *
 * ThreadUsage is a plain snapshot; ScopedThreadUsage is the RAII
 * bracket used at executor stage gates and around whole jobs.
 */

#ifndef RFL_TELEMETRY_RESOURCE_HH
#define RFL_TELEMETRY_RESOURCE_HH

#include <cstdint>
#include <string>

namespace rfl::telemetry
{

/** Point snapshot of the calling thread's resource usage. */
struct ThreadUsage
{
    double utimeSeconds = 0.0; ///< user CPU consumed by this thread
    double stimeSeconds = 0.0; ///< system CPU consumed by this thread
    uint64_t maxrssBytes = 0;  ///< process peak RSS (see file comment)
    uint64_t minorFaults = 0;
    uint64_t majorFaults = 0;

    /** Snapshot the calling thread (getrusage(RUSAGE_THREAD)). */
    static ThreadUsage now();
};

/**
 * Consumption between two snapshots: CPU and faults subtract;
 * maxrssBytes carries the end snapshot's absolute level.
 */
struct ResourceDelta
{
    double cpuUserSeconds = 0.0;
    double cpuSystemSeconds = 0.0;
    uint64_t maxrssBytes = 0;
    uint64_t minorFaults = 0;
    uint64_t majorFaults = 0;

    double
    cpuSeconds() const
    {
        return cpuUserSeconds + cpuSystemSeconds;
    }

    /** Accumulate another delta (campaign-level totals). maxrss
     *  takes the max — it is a level, not a flow. */
    void add(const ResourceDelta &other);
};

/** RAII bracket: snapshot at construction, delta on demand. */
class ScopedThreadUsage
{
  public:
    ScopedThreadUsage() : start_(ThreadUsage::now()) {}

    /** Delta from construction to now (callable repeatedly). */
    ResourceDelta delta() const;

  private:
    ThreadUsage start_;
};

} // namespace rfl::telemetry

#endif // RFL_TELEMETRY_RESOURCE_HH
