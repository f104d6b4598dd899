/**
 * @file
 * TraceKernel: a recorded (or externally generated) access stream as a
 * first-class measurable workload.
 *
 * Replaying a trace through the standard Measurer gives W/Q/T for the
 * exact stream that was recorded — decoupled from the kernel source that
 * produced it, reproducible across processes and machines (addresses in
 * a trace are canonical simulated addresses, see support/address_arena),
 * and usable where no kernel exists at all: any tool that writes the
 * trace format can inject workloads into the campaign grid.
 *
 * Semantics:
 *   - the stream is replayed verbatim onto the engine's core (a trace
 *     records per-record cores, but replay collapses onto one core, so
 *     record single-core traces for faithful replay); not partitionable.
 *   - init() is a no-op: the trace IS the workload, there are no
 *     operands to (re)initialize, and every repetition replays the
 *     identical stream.
 *   - only the simulated engine can replay (there is no arithmetic to
 *     perform); running on the native engine is a user error.
 *   - expected work W comes from the trace summary (it is exact); no
 *     closed-form traffic model exists, so expected Q is NaN.
 */

#ifndef RFL_TRACE_TRACE_KERNEL_HH
#define RFL_TRACE_TRACE_KERNEL_HH

#include <string>

#include "kernels/kernel.hh"
#include "trace/trace_file.hh"

namespace rfl::trace
{

/** See file comment. */
class TraceKernel : public kernels::Kernel
{
  public:
    /** Load @p path; fatal() with the reader's message on failure. */
    explicit TraceKernel(std::string path);

    std::string name() const override { return "trace"; }
    std::string sizeLabel() const override;
    size_t workingSetBytes() const override;
    double expectedFlops() const override;
    double expectedColdTrafficBytes() const override;
    void init(uint64_t seed) override;
    void run(kernels::NativeEngine &e, int part, int nparts) override;
    void run(kernels::SimEngine &e, int part, int nparts) override;
    bool parallelizable() const override { return false; }
    /** From the recorded summary flags (pointer-chase traces keep
     *  their MLP=1 timing semantics across record/replay). */
    bool dependentAccesses() const override;
    double checksum() const override;

  private:
    std::string path_;
    TraceReader reader_;
};

} // namespace rfl::trace

#endif // RFL_TRACE_TRACE_KERNEL_HH
