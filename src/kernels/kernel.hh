/**
 * @file
 * Kernel interface: a measurable workload with analytic work/traffic
 * models.
 *
 * Every kernel:
 *   - checks its parameters when constructed, and allocates nothing
 *     then: every query below except run() and checksum() answers
 *     from the parameters alone, so constructing a kernel is how a
 *     spec is validated,
 *   - owns its operands (cache-line aligned), allocated by init(),
 *   - initializes them deterministically from a seed,
 *   - runs on either engine (same template body; see engine.hh),
 *   - can be partitioned across simulated cores (part / nparts),
 *   - provides the analytic expected work W and expected cold-cache DRAM
 *     traffic Q used by the counter-validation experiments (paper's
 *     validation tables), and
 *   - exposes a checksum so tests can prove the native and simulated
 *     executions computed identical results.
 */

#ifndef RFL_KERNELS_KERNEL_HH
#define RFL_KERNELS_KERNEL_HH

#include <cmath>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "kernels/engine.hh"
#include "support/rng.hh"

namespace rfl::kernels
{

/**
 * Split [0, n) into nparts contiguous chunks, aligned to @p align
 * elements so partitions do not share cache lines.
 * @return [lo, hi) for chunk @p part.
 */
std::pair<size_t, size_t> partitionRange(size_t n, int part, int nparts,
                                         size_t align = 8);

/**
 * Running total of a reduction kernel (dot, sum, strided) whose
 * partitions may run concurrently: NativeMeasurer runs each on its own
 * host thread. Each partition reports its partial sum; once all
 * @p nparts partitions of a run have reported, the partials are added
 * to the total in partition order. The total is thus bit-identical to
 * running the partitions one after another, and no two threads ever
 * write it at once.
 */
class PartialSums
{
  public:
    /** Report partition @p part's partial sum for the current run. */
    void add(int part, int nparts, double partial);
    /** @return the total; read only while no partition is running. */
    double total() const { return total_; }
    /** Start over, dropping the partials of a run cut short. */
    void
    reset()
    {
        total_ = 0.0;
        reported_ = 0;
    }

  private:
    std::mutex mu_;
    std::vector<double> parts_; // this run's partials, by partition
    int reported_ = 0;
    double total_ = 0.0;
};

/** Abstract measurable workload. */
class Kernel
{
  public:
    virtual ~Kernel() = default;

    /** @return short kernel name, e.g. "daxpy". */
    virtual std::string name() const = 0;

    /** @return size description, e.g. "n=16384". */
    virtual std::string sizeLabel() const = 0;

    /** @return total bytes of all operands. */
    virtual size_t workingSetBytes() const = 0;

    /**
     * @return analytic work W in double-precision flops. Identical for
     * FMA and non-FMA execution (an FMA retires two ops).
     */
    virtual double expectedFlops() const = 0;

    /**
     * @return analytic DRAM traffic in bytes for a cold-cache run with
     * hardware prefetching disabled, including trailing writebacks
     * (i.e. assuming the measured region ends with a cache flush).
     * NaN when no closed-form model exists for this kernel/size.
     */
    virtual double expectedColdTrafficBytes() const = 0;

    /**
     * @return analytic DRAM traffic for a warm-cache run given the
     * last-level capacity @p llc_bytes: 0 when the working set is
     * LLC-resident, otherwise the cold value (streaming kernels get no
     * reuse from warm caches).
     */
    virtual double expectedWarmTrafficBytes(uint64_t llc_bytes) const;

    /**
     * Deterministically (re)initialize the operands from @p seed. The
     * first call allocates them, in member order (so they register
     * with an active AddressArena in that order); later calls refill.
     * Must precede run() and checksum().
     */
    virtual void init(uint64_t seed) = 0;

    /** Run partition @p part of @p nparts on the native engine. */
    virtual void run(NativeEngine &e, int part, int nparts) = 0;

    /** Run partition @p part of @p nparts on the simulated engine. */
    virtual void run(SimEngine &e, int part, int nparts) = 0;

    /** @return whether the kernel supports nparts > 1. */
    virtual bool parallelizable() const { return true; }

    /** @return whether accesses form a dependency chain (MLP == 1). */
    virtual bool dependentAccesses() const { return false; }

    /** @return order-insensitive digest of the kernel's current output. */
    virtual double checksum() const = 0;

    /**
     * Tell the analytic traffic model which last-level-cache capacity to
     * assume (kernels whose cold-traffic formula is regime-dependent,
     * e.g. FFT and dgemm, pick the in-cache vs streaming regime by it).
     */
    void setLlcHintBytes(uint64_t bytes) { llcHintBytes_ = bytes; }
    uint64_t llcHintBytes() const { return llcHintBytes_; }

  protected:
    /** Default matches the default simulated platform's 10 MiB L3. */
    uint64_t llcHintBytes_ = 10ull * 1024 * 1024;
};

/**
 * A kernel whose run() overrides both call Derived::runT, the one
 * template body every engine instantiates (see engine.hh). Derived
 * declares `friend EngineKernel;` so runT can stay private; @p Base
 * lets a family share state (DgemmBase).
 */
template <typename Derived, typename Base = Kernel>
class EngineKernel : public Base
{
  public:
    using Base::Base;

    void
    run(NativeEngine &e, int part, int nparts) override
    {
        static_cast<Derived *>(this)->runT(e, part, nparts);
    }

    void
    run(SimEngine &e, int part, int nparts) override
    {
        static_cast<Derived *>(this)->runT(e, part, nparts);
    }
};

} // namespace rfl::kernels

#endif // RFL_KERNELS_KERNEL_HH
