/**
 * @file
 * Platform characterization: measured peak compute and peak bandwidth —
 * the ceilings of the roofline plot.
 *
 * Following the methodology, neither number is taken from a datasheet:
 *   - Peak compute is measured by a register-resident chain-free FMA
 *     loop (the paper's runtime-generated assembly benchmark) per
 *     scenario (width x FMA x core set).
 *   - Peak bandwidth is measured as the best of several streaming probes
 *     (read / copy / scale / triad / nt-set) over a buffer twice the
 *     total LLC, with traffic read from the IMC counters, so the beta used
 *     for the roof is consistent with the Q used for kernel points.
 *
 * characterize() is two halves: computeCeilings(), then foldCeilings()
 * over one bandwidthPeak() per flavor. Every probe resets the machine,
 * flushes its caches and clears its counters first, and gets canonical
 * addresses from its own AddressArena scope, so no probe depends on
 * another: each may run on its own machine, in any order or at once,
 * and the fold yields the same model bit for bit. The campaign
 * executor runs them that way, one job per probe (see
 * campaign/job_graph.hh).
 */

#ifndef RFL_ROOFLINE_PLATFORM_HH
#define RFL_ROOFLINE_PLATFORM_HH

#include <string>
#include <vector>

#include "pmu/sim_backend.hh"
#include "roofline/model.hh"
#include "sim/machine.hh"

namespace rfl::roofline
{

/** Streaming-probe flavors for the bandwidth measurement. */
enum class BwProbe
{
    Read,  ///< sum reduction: pure read stream
    Copy,  ///< a[i] = b[i] (write-allocate stores)
    Scale, ///< a[i] = s*b[i]
    Triad, ///< a[i] = b[i] + s*c[i]
    NtSet, ///< a[i] = s with non-temporal stores (memset-style)
};

/** @return probe name, e.g. "triad". */
const char *bwProbeName(BwProbe probe);

/** All probes in a fixed order. */
std::vector<BwProbe> allBwProbes();

/** Result of one bandwidth probe. */
struct BandwidthResult
{
    BwProbe probe = BwProbe::Read;
    double bytesPerSec = 0.0;     ///< IMC bytes / modeled time
    double usefulBytesPerSec = 0.0; ///< application bytes / time
};

/**
 * Measures ceilings on a simulated machine. The machine is reset between
 * probes; prefetcher setting is preserved.
 */
class PlatformProbe
{
  public:
    explicit PlatformProbe(sim::Machine &machine);

    /**
     * Measured peak compute in flops/s for the given core set, vector
     * width (0 = machine max) and FMA setting. Register-resident: no
     * memory traffic.
     */
    double computePeak(const std::vector<int> &cores, int lanes = 0,
                       bool fma = true);

    /**
     * Measured peak bandwidth for one probe flavor over @p buf_doubles
     * doubles (0 = 2x the total LLC capacity). Cold caches. Operands
     * the flavor only reads are left zero: simulated counters depend
     * on addresses, not values, and untouched pages cost no memory.
     */
    BandwidthResult bandwidthPeak(const std::vector<int> &cores,
                                  BwProbe probe, size_t buf_doubles = 0);

    /**
     * Compute half of characterize(): ceilings for scalar and full
     * width, each x FMA when available.
     */
    RooflineModel computeCeilings(const std::vector<int> &cores);

    /**
     * Standard ceiling set for a scenario: computeCeilings(), then
     * foldCeilings() over one bandwidthPeak() per allBwProbes() flavor.
     */
    RooflineModel characterize(const std::vector<int> &cores);

    sim::Machine &machine() { return machine_; }

  private:
    sim::Machine &machine_;
    pmu::SimBackend backend_;
};

/**
 * Bandwidth half of characterize(): @p compute plus a "read" ceiling
 * and a best-streaming one, the fastest of @p flavors (one result per
 * allBwProbes() flavor, in that order; the earliest wins a tie, and
 * the ceiling is omitted when that is read).
 */
RooflineModel foldCeilings(RooflineModel compute,
                           const std::vector<BandwidthResult> &flavors);

/** @return {0}: the single-thread scenario of the paper. */
std::vector<int> singleThreadCores(const sim::Machine &machine);

/** @return all cores of socket 0. */
std::vector<int> oneSocketCores(const sim::Machine &machine);

/** @return every core of every socket. */
std::vector<int> allCores(const sim::Machine &machine);

/** @return scenario label: "single core" / "single socket" / "N sockets".*/
std::string scenarioName(const sim::Machine &machine,
                         const std::vector<int> &cores);

} // namespace rfl::roofline

#endif // RFL_ROOFLINE_PLATFORM_HH
