/**
 * @file
 * Interval-sampling hook invariants (sim::Machine::setSamplePeriod).
 *
 * The sampler must be architecturally invisible: for every registered
 * kernel, a run with sampling enabled at any period leaves every
 * Snapshot counter bit-identical to the unsampled run. And the samples
 * must be self-consistent: cumulative snapshots are monotone in the
 * additive counters, and the per-interval deltas (plus the tail
 * interval to the region end) sum exactly to the region total — the
 * property the phase-trajectory layer (analysis/phase.hh) is built on.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "analysis/phase.hh"
#include "kernels/engine.hh"
#include "kernels/registry.hh"
#include "sim/machine.hh"
#include "support/address_arena.hh"

namespace
{

using namespace rfl;
using namespace rfl::sim;

/** Small-size spec per kernel: big enough to leave L1, quick to run. */
const std::map<std::string, std::string> &
smallSpecs()
{
    static const std::map<std::string, std::string> specs = {
        {"daxpy", "daxpy:n=4096"},
        {"dot", "dot:n=4096"},
        {"triad", "triad:n=4096"},
        {"triad-nt", "triad-nt:n=4096"},
        {"sum", "sum:n=4096"},
        {"stencil3", "stencil3:n=4096"},
        {"dgemv", "dgemv:m=96,n=96"},
        {"dgemm-naive", "dgemm-naive:n=40"},
        {"dgemm-blocked", "dgemm-blocked:n=40,block=16"},
        {"dgemm-opt", "dgemm-opt:n=40"},
        {"fft", "fft:n=1024"},
        {"spmv-csr", "spmv-csr:rows=512,nnz=8"},
        {"strided-sum", "strided-sum:n=8192,stride=16"},
        {"pointer-chase", "pointer-chase:nodes=1024,hops=4096"},
    };
    return specs;
}

struct RunResult
{
    Machine::Snapshot delta;
    std::vector<Machine::Snapshot> samples;
    Machine::Snapshot start;
    Machine::Snapshot end;
};

RunResult
runKernel(const std::string &spec, uint64_t sample_period)
{
    Machine machine(MachineConfig::defaultPlatform());

    AddressArena::Scope scope;
    auto kernel = kernels::createKernel(spec);
    kernel->init(42);
    machine.setDependentAccesses(kernel->dependentAccesses());
    machine.setSamplePeriod(sample_period);

    RunResult r;
    r.start = machine.snapshot();
    {
        kernels::SimEngine engine(machine, 0, 4, true);
        kernel->run(engine, 0, 1);
    }
    machine.flushAllCaches();
    r.end = machine.snapshot();
    machine.setSamplePeriod(0);
    r.delta = r.end - r.start;
    r.samples = machine.samples();
    return r;
}

void
expectEqual(const Machine::Snapshot &ref, const Machine::Snapshot &got,
            const std::string &ctx)
{
    ASSERT_EQ(ref.cores.size(), got.cores.size()) << ctx;
    for (size_t c = 0; c < ref.cores.size(); ++c) {
        const CoreCounters &a = ref.cores[c];
        const CoreCounters &b = got.cores[c];
        const std::string at = ctx + " core" + std::to_string(c);
        for (size_t w = 0; w < 4; ++w)
            EXPECT_EQ(a.fpRetired[w], b.fpRetired[w])
                << at << " fpRetired[" << w << "]";
        EXPECT_EQ(a.fpUops, b.fpUops) << at << " fpUops";
        EXPECT_EQ(a.loadUops, b.loadUops) << at << " loadUops";
        EXPECT_EQ(a.storeUops, b.storeUops) << at << " storeUops";
        EXPECT_EQ(a.otherUops, b.otherUops) << at << " otherUops";
        EXPECT_EQ(a.l2FillBytes, b.l2FillBytes) << at << " l2FillBytes";
        EXPECT_EQ(a.l3FillBytes, b.l3FillBytes) << at << " l3FillBytes";
        EXPECT_EQ(a.dramFillBytes, b.dramFillBytes)
            << at << " dramFillBytes";
        EXPECT_EQ(a.ntStoreBytes, b.ntStoreBytes)
            << at << " ntStoreBytes";
        EXPECT_EQ(a.dramWritebackBytes, b.dramWritebackBytes)
            << at << " dramWritebackBytes";
        EXPECT_EQ(a.latencyCycles, b.latencyCycles)
            << at << " latencyCycles";
    }
    auto expect_cache = [&](const std::vector<CacheStats> &ra,
                            const std::vector<CacheStats> &rb,
                            const char *level) {
        ASSERT_EQ(ra.size(), rb.size()) << ctx << " " << level;
        for (size_t i = 0; i < ra.size(); ++i) {
            const CacheStats &a = ra[i];
            const CacheStats &b = rb[i];
            const std::string at =
                ctx + " " + level + "[" + std::to_string(i) + "]";
            EXPECT_EQ(a.readHits, b.readHits) << at;
            EXPECT_EQ(a.readMisses, b.readMisses) << at;
            EXPECT_EQ(a.writeHits, b.writeHits) << at;
            EXPECT_EQ(a.writeMisses, b.writeMisses) << at;
            EXPECT_EQ(a.writebacks, b.writebacks) << at;
            EXPECT_EQ(a.prefetchFills, b.prefetchFills) << at;
            EXPECT_EQ(a.prefetchHits, b.prefetchHits) << at;
        }
    };
    expect_cache(ref.l1, got.l1, "l1");
    expect_cache(ref.l2, got.l2, "l2");
    expect_cache(ref.l3, got.l3, "l3");
    ASSERT_EQ(ref.imcs.size(), got.imcs.size()) << ctx;
    for (size_t i = 0; i < ref.imcs.size(); ++i) {
        EXPECT_EQ(ref.imcs[i].casReads, got.imcs[i].casReads) << ctx;
        EXPECT_EQ(ref.imcs[i].casWrites, got.imcs[i].casWrites) << ctx;
        EXPECT_EQ(ref.imcs[i].prefetchReads, got.imcs[i].prefetchReads)
            << ctx;
        EXPECT_EQ(ref.imcs[i].ntWrites, got.imcs[i].ntWrites) << ctx;
    }
    ASSERT_EQ(ref.tlbs.size(), got.tlbs.size()) << ctx;
    for (size_t i = 0; i < ref.tlbs.size(); ++i) {
        EXPECT_EQ(ref.tlbs[i].accesses, got.tlbs[i].accesses) << ctx;
        EXPECT_EQ(ref.tlbs[i].l1Misses, got.tlbs[i].l1Misses) << ctx;
        EXPECT_EQ(ref.tlbs[i].walks, got.tlbs[i].walks) << ctx;
    }
}

TEST(IntervalSampling, TotalsBitIdenticalForAllRegisteredKernels)
{
    size_t sampled_runs_with_samples = 0;
    for (const std::string &name : kernels::kernelNames()) {
        const auto it = smallSpecs().find(name);
        ASSERT_NE(it, smallSpecs().end())
            << "kernel '" << name
            << "' has no small spec; extend smallSpecs()";
        const std::string &spec = it->second;

        const RunResult unsampled = runKernel(spec, 0);
        EXPECT_TRUE(unsampled.samples.empty()) << spec;
        for (const uint64_t period : {512ull, 4096ull}) {
            const RunResult sampled = runKernel(spec, period);
            expectEqual(unsampled.delta, sampled.delta,
                        spec + " period=" + std::to_string(period));
            sampled_runs_with_samples +=
                sampled.samples.empty() ? 0 : 1;
        }
    }
    // The invariant is only meaningful if sampling actually fired.
    EXPECT_GT(sampled_runs_with_samples, 0u);
}

/** A dependent chain buffers and drains like every other stream, so
 *  the sampler sees it at each batch hand-over, not only at the final
 *  drain: 16384 hops at period 4096 give one sample per full batch. */
TEST(IntervalSampling, PointerChaseSamplesEveryBatch)
{
    const RunResult r =
        runKernel("pointer-chase:nodes=1024,hops=16384", 4096);
    EXPECT_GE(r.samples.size(), 3u);
}

TEST(IntervalSampling, IntervalDeltasSumToRegionTotal)
{
    const RunResult r = runKernel("fft:n=4096", 512);
    ASSERT_GT(r.samples.size(), 2u);

    uint64_t flops = 0, cas_reads = 0, cas_writes = 0, accesses = 0;
    const Machine::Snapshot *prev = &r.start;
    auto add_interval = [&](const Machine::Snapshot &s) {
        const Machine::Snapshot d = s - *prev;
        flops += d.totalFlops();
        cas_reads += d.totalImc().casReads;
        cas_writes += d.totalImc().casWrites;
        for (const CoreCounters &cc : d.cores)
            accesses += cc.loadUops + cc.storeUops;
        prev = &s;
    };
    for (const Machine::Snapshot &s : r.samples)
        add_interval(s);
    add_interval(r.end);

    EXPECT_EQ(flops, r.delta.totalFlops());
    EXPECT_EQ(cas_reads, r.delta.totalImc().casReads);
    EXPECT_EQ(cas_writes, r.delta.totalImc().casWrites);
    uint64_t total_accesses = 0;
    for (const CoreCounters &cc : r.delta.cores)
        total_accesses += cc.loadUops + cc.storeUops;
    EXPECT_EQ(accesses, total_accesses);

    // Consecutive samples are at least a period of accesses apart.
    for (size_t i = 1; i < r.samples.size(); ++i) {
        uint64_t a = 0, b = 0;
        for (const CoreCounters &cc : r.samples[i - 1].cores)
            a += cc.loadUops + cc.storeUops;
        for (const CoreCounters &cc : r.samples[i].cores)
            b += cc.loadUops + cc.storeUops;
        EXPECT_GE(b - a, 512u) << "sample " << i;
    }
}

TEST(IntervalSampling, PhaseTrajectoryMatchesTotals)
{
    Machine machine(MachineConfig::defaultPlatform());
    roofline::MeasureOptions opts;
    opts.repetitions = 1;
    const analysis::PhaseTrajectory traj =
        analysis::samplePhasesSpec(machine, "fft:n=4096", opts, 512);

    ASSERT_GT(traj.points.size(), 2u);
    double flops = 0, bytes = 0;
    for (const analysis::PhasePoint &p : traj.points) {
        flops += p.flops;
        bytes += p.trafficBytes;
        EXPECT_GE(p.seconds, 0.0);
    }
    // Counter deltas are additive, so the sums are exact.
    EXPECT_EQ(flops, traj.totalFlops);
    EXPECT_EQ(bytes, traj.totalTrafficBytes);
    EXPECT_GT(traj.totalFlops, 0.0);
    EXPECT_GT(traj.totalSeconds, 0.0);
    EXPECT_EQ(traj.kernel, "fft");
    EXPECT_EQ(traj.protocol, "cold");
    EXPECT_EQ(traj.period, 512u);

    // The sampler was disabled again on the way out.
    EXPECT_EQ(machine.samplePeriod(), 0u);
    EXPECT_TRUE(machine.samples().empty());
}

} // namespace
