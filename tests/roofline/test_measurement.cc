/** @file Tests for the measurement methodology (protocols, overhead). */

#include <gtest/gtest.h>

#include "kernels/daxpy.hh"
#include "kernels/registry.hh"
#include "pmu/sim_backend.hh"
#include "roofline/experiment.hh"
#include "roofline/measurement.hh"
#include "sim/machine.hh"
#include "support/cancel.hh"
#include "trace/access_batch.hh"

namespace
{

using namespace rfl;
using namespace rfl::roofline;

sim::MachineConfig
quietConfig()
{
    sim::MachineConfig cfg = sim::MachineConfig::defaultPlatform();
    cfg.l1Prefetcher.kind = sim::PrefetcherKind::None;
    cfg.l2Prefetcher.kind = sim::PrefetcherKind::None;
    return cfg;
}

TEST(Measurement, DerivedQuantities)
{
    Measurement m;
    m.flops = 1000.0;
    m.trafficBytes = 4000.0;
    m.seconds = 1e-6;
    m.expectedFlops = 1000.0;
    m.expectedTrafficBytes = 4200.0;
    EXPECT_DOUBLE_EQ(m.oi(), 0.25);
    EXPECT_DOUBLE_EQ(m.perf(), 1e9);
    EXPECT_DOUBLE_EQ(m.workError(), 0.0);
    EXPECT_NEAR(m.trafficError(), 200.0 / 4200.0, 1e-12);
}

/** The Measurer is decoupled from the backend implementation: an
 *  externally supplied pmu::Backend must produce the same measurement
 *  as the internally owned SimBackend. */
TEST(Measurement, ExternalBackendMatchesOwnedBackend)
{
    kernels::Daxpy daxpy(1 << 12);
    MeasureOptions opts;
    opts.repetitions = 2;

    sim::Machine owned_machine(quietConfig());
    Measurer owned(owned_machine);
    const Measurement a = owned.measure(daxpy, opts);

    sim::Machine machine(quietConfig());
    pmu::SimBackend backend(machine);
    Measurer external(machine, backend);
    EXPECT_EQ(external.backend().name(), "sim");
    const Measurement b = external.measure(daxpy, opts);

    EXPECT_EQ(a.flops, b.flops);
    EXPECT_EQ(a.trafficBytes, b.trafficBytes);
    EXPECT_EQ(a.seconds, b.seconds);
}

TEST(Measurement, ColdDaxpyMatchesAnalyticModelExactly)
{
    sim::Machine machine(quietConfig());
    Measurer measurer(machine);
    kernels::Daxpy daxpy(1 << 16);

    MeasureOptions opts;
    opts.repetitions = 3;
    const Measurement m = measurer.measure(daxpy, opts);

    EXPECT_DOUBLE_EQ(m.flops, daxpy.expectedFlops());
    EXPECT_NEAR(m.trafficBytes, daxpy.expectedColdTrafficBytes(),
                0.001 * daxpy.expectedColdTrafficBytes());
    EXPECT_GT(m.seconds, 0.0);
    EXPECT_EQ(m.protocol, "cold");
    EXPECT_EQ(m.cores, 1);
}

TEST(Measurement, RepetitionsAreDeterministicOnSim)
{
    sim::Machine machine(quietConfig());
    Measurer measurer(machine);
    kernels::Daxpy daxpy(1 << 14);
    MeasureOptions opts;
    opts.repetitions = 4;
    const Measurement m = measurer.measure(daxpy, opts);
    EXPECT_EQ(m.secondsSample.count(), 4u);
    // The cold protocol flushes caches but (like real hardware) not the
    // TLB, so the first repetition pays page walks the rest do not:
    // runtime varies below 0.5%, traffic is exact.
    EXPECT_LT(m.secondsSample.cv(), 0.005);
    EXPECT_NEAR(m.trafficSample.cv(), 0.0, 1e-9);
}

TEST(Measurement, WarmProtocolShrinksTrafficForResidentSets)
{
    sim::Machine machine(quietConfig());
    Measurer measurer(machine);
    kernels::Daxpy daxpy(1 << 14); // 256 KiB, LLC resident

    MeasureOptions cold;
    const Measurement mc = measurer.measure(daxpy, cold);

    MeasureOptions warm;
    warm.protocol = CacheProtocol::Warm;
    const Measurement mw = measurer.measure(daxpy, warm);

    EXPECT_LT(mw.trafficBytes, 0.05 * mc.trafficBytes);
    // Same code, same work:
    EXPECT_DOUBLE_EQ(mw.flops, mc.flops);
    // Hence much higher operational intensity when warm.
    EXPECT_GT(mw.oi(), 10.0 * mc.oi());
}

TEST(Measurement, WarmEqualsColdForStreamingSets)
{
    sim::Machine machine(quietConfig());
    Measurer measurer(machine);
    kernels::Daxpy daxpy(1 << 21); // 32 MiB, far beyond the 10 MiB L3

    MeasureOptions cold;
    cold.repetitions = 1;
    const Measurement mc = measurer.measure(daxpy, cold);
    MeasureOptions warm;
    warm.protocol = CacheProtocol::Warm;
    warm.repetitions = 1;
    const Measurement mw = measurer.measure(daxpy, warm);

    EXPECT_NEAR(mw.trafficBytes, mc.trafficBytes,
                0.15 * mc.trafficBytes);
}

TEST(Measurement, FlushAfterCapturesTrailingWritebacks)
{
    sim::Machine machine(quietConfig());
    Measurer measurer(machine);
    // LLC-resident working set: without the closing flush, the dirty
    // output stays cached and the write traffic leaks out of the region.
    kernels::Daxpy daxpy(1 << 14);

    MeasureOptions with_flush;
    const Measurement m1 = measurer.measure(daxpy, with_flush);

    MeasureOptions no_flush;
    no_flush.flushAfter = false;
    const Measurement m2 = measurer.measure(daxpy, no_flush);

    EXPECT_GT(m1.trafficBytes, m2.trafficBytes);
    // The gap is exactly the output array's writeback (8n of 24n).
    EXPECT_NEAR(m1.trafficBytes - m2.trafficBytes,
                8.0 * (1 << 14), 0.02 * m1.trafficBytes);
}

TEST(Measurement, MultiCoreRunsPartitionAcrossCores)
{
    sim::Machine machine(quietConfig());
    Measurer measurer(machine);
    kernels::Daxpy daxpy(1 << 18);

    MeasureOptions one;
    one.cores = {0};
    const Measurement m1 = measurer.measure(daxpy, one);

    MeasureOptions four;
    four.cores = {0, 1, 2, 3};
    const Measurement m4 = measurer.measure(daxpy, four);

    EXPECT_EQ(m4.cores, 4);
    EXPECT_DOUBLE_EQ(m4.flops, m1.flops); // same total work
    EXPECT_LT(m4.seconds, m1.seconds);    // but faster
}

TEST(MeasurementDeath, NonParallelizableKernelRejectsMultiCore)
{
    sim::Machine machine(quietConfig());
    Measurer measurer(machine);
    const auto fft = kernels::createKernel("fft:n=1024");
    MeasureOptions opts;
    opts.cores = {0, 1};
    EXPECT_EXIT(measurer.measure(*fft, opts),
                ::testing::ExitedWithCode(1), "multi-core");
}

TEST(MeasurementDeath, OutOfRangeCoreIsFatal)
{
    sim::Machine machine(quietConfig());
    Measurer measurer(machine);
    kernels::Daxpy daxpy(1024);
    MeasureOptions opts;
    opts.cores = {99};
    EXPECT_EXIT(measurer.measure(daxpy, opts),
                ::testing::ExitedWithCode(1), "out of range");
}

TEST(Measurement, LanesOptionControlsWidthClass)
{
    sim::Machine machine(quietConfig());
    Measurer measurer(machine);
    kernels::Daxpy daxpy(1 << 12);

    MeasureOptions scalar;
    scalar.lanes = 1;
    const Measurement ms = measurer.measure(daxpy, scalar);
    EXPECT_EQ(ms.lanes, 1);

    MeasureOptions avx;
    avx.lanes = 4;
    const Measurement mv = measurer.measure(daxpy, avx);
    EXPECT_EQ(mv.lanes, 4);

    // Same work, both measured identically through the width weighting.
    EXPECT_NEAR(ms.flops, mv.flops, 1e-9);
    // daxpy is DRAM-bound, so scalar execution is at best equal, never
    // faster (a compute-bound kernel would show a strict gap; that is
    // covered by Invariants.VectorWidthCeilingsRespected).
    EXPECT_GE(ms.seconds, mv.seconds * 0.999);
}

TEST(Measurement, DependentKernelGetsMlpOne)
{
    sim::Machine machine(quietConfig());
    Measurer measurer(machine);
    const auto chase = kernels::createKernel("pointer-chase:nodes=16384");
    MeasureOptions opts;
    opts.repetitions = 1;
    const Measurement m = measurer.measure(*chase, opts);
    // 16384 hops, each a full DRAM latency (80 ns at MLP 1): runtime
    // must be at least hops * latency.
    EXPECT_GT(m.seconds, 16384 * 80e-9 * 0.9);
    // And the flag must be restored afterwards.
    EXPECT_FALSE(machine.dependentAccesses());
}

/** An expired deadline stops a measurement at the engine's first
 *  batch hand-over and surfaces as TimedOutError: the drain in
 *  ~SimEngine must not throw a second time (that would terminate the
 *  process), and a dependent chain honors the deadline like any other
 *  stream instead of running all its hops. */
TEST(Measurement, ExpiredDeadlineThrowsTimedOutWithinOneBatch)
{
    for (const char *spec :
         {"daxpy:n=65536", "pointer-chase:nodes=65536"}) {
        Experiment exp;
        CancelToken token;
        token.setDeadlineIn(0.0);
        {
            CancelScope scope(&token);
            EXPECT_THROW(exp.measureSpec(spec), TimedOutError) << spec;
        }
        uint64_t loads = 0;
        for (const sim::CoreCounters &cc : exp.machine().snapshot().cores)
            loads += cc.loadUops;
        EXPECT_LE(loads, 2u * trace::AccessBatch::capacity) << spec;
    }
}

TEST(Measurement, OverheadSubtractionChangesNothingWhenFrameworkIsQuiet)
{
    // On the simulator the empty framework generates no counts, so the
    // subtraction is a no-op; this pins the plumbing.
    sim::Machine machine(quietConfig());
    Measurer measurer(machine);
    kernels::Daxpy daxpy(1 << 12);

    MeasureOptions with_sub;
    const Measurement m1 = measurer.measure(daxpy, with_sub);
    MeasureOptions without_sub;
    without_sub.subtractOverhead = false;
    const Measurement m2 = measurer.measure(daxpy, without_sub);
    EXPECT_DOUBLE_EQ(m1.flops, m2.flops);
    EXPECT_NEAR(m1.trafficBytes, m2.trafficBytes, 1.0);
}

} // namespace
