/** @file Tests for CampaignSpec -> JobGraph expansion. */

#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/job_graph.hh"

namespace
{

using namespace rfl::campaign;
using rfl::sim::MachineConfig;

CampaignSpec
twoVariantSpec()
{
    CampaignSpec spec("graph");
    spec.addMachine(MachineConfig::smallTestMachine());
    spec.addKernels({"daxpy:n=256", "sum:n=256", "dot:n=256"});

    rfl::roofline::MeasureOptions cold;
    cold.repetitions = 1;
    spec.addVariant("cold-1c", cold);

    rfl::roofline::MeasureOptions warm;
    warm.protocol = rfl::roofline::CacheProtocol::Warm;
    warm.repetitions = 1;
    warm.cores = {0, 1};
    spec.addVariant("warm-2c", warm);
    return spec;
}

TEST(JobGraph, GridExpansion)
{
    const JobGraph graph = JobGraph::expand(twoVariantSpec());
    // 2 distinct (cores) signatures -> 2 ceilings of 7 jobs (a fold and
    // its 6 probes); 3 kernels x 2 variants -> 6 measure jobs.
    EXPECT_EQ(graph.ceilingJobs(), 14u);
    EXPECT_EQ(graph.measureJobs(), 6u);
    EXPECT_EQ(graph.size(), 20u);
}

TEST(JobGraph, CeilingJobsDeduplicateAcrossVariants)
{
    CampaignSpec spec("dedup");
    spec.addMachine(MachineConfig::smallTestMachine());
    spec.addKernel("sum:n=256");
    // Two variants with the same cores/numa/prefetch signature but
    // different protocols share one ceiling characterization.
    rfl::roofline::MeasureOptions cold, warm;
    warm.protocol = rfl::roofline::CacheProtocol::Warm;
    spec.addVariant("cold", cold).addVariant("warm", warm);

    const JobGraph graph = JobGraph::expand(spec);
    EXPECT_EQ(graph.ceilingJobs(), 7u); // one fold + its 6 probes
    EXPECT_EQ(graph.measureJobs(), 2u);
}

TEST(JobGraph, MeasureJobsDependOnTheirCeiling)
{
    const JobGraph graph = JobGraph::expand(twoVariantSpec());
    for (const Job &job : graph.jobs()) {
        if (job.kind == JobKind::Ceiling) {
            // Folds wait on their probes; probes depend on nothing.
            EXPECT_EQ(job.deps.size(),
                      job.ceilingPart == CeilingPart::Fold ? 6u : 0u);
            EXPECT_EQ(job.dataDeps(), job.deps);
            continue;
        }
        ASSERT_EQ(job.deps.size(), 1u);
        const Job &dep = graph.jobs()[job.deps[0]];
        EXPECT_EQ(dep.kind, JobKind::Ceiling);
        EXPECT_EQ(dep.ceilingPart, CeilingPart::Fold);
        EXPECT_EQ(dep.machineIndex, job.machineIndex);
        EXPECT_EQ(graph.ceilingJobFor(job), dep.id);
        EXPECT_TRUE(job.dataDeps().empty()) << "the link is not an edge";
    }
}

TEST(JobGraph, CeilingProbesFollowTheSweepLongestFirst)
{
    const JobGraph graph = JobGraph::expand(twoVariantSpec());
    const std::vector<rfl::roofline::BwProbe> flavors =
        rfl::roofline::allBwProbes();

    // Each fold: compute probe, then one probe per flavor in
    // allBwProbes() order, all of its own signature and cache key.
    std::vector<size_t> folds;
    for (const Job &fold : graph.jobs()) {
        if (fold.kind != JobKind::Ceiling ||
            fold.ceilingPart != CeilingPart::Fold)
            continue;
        folds.push_back(fold.id);
        ASSERT_EQ(fold.deps.size(), 1 + flavors.size());
        for (size_t slot = 0; slot < fold.deps.size(); ++slot) {
            const Job &probe = graph.jobs()[fold.deps[slot]];
            EXPECT_EQ(probe.kind, JobKind::Ceiling);
            EXPECT_EQ(probe.cacheKey, fold.cacheKey);
            EXPECT_EQ(probe.machineIndex, fold.machineIndex);
            EXPECT_EQ(probe.variantIndex, fold.variantIndex);
            EXPECT_GT(probe.id, fold.id);
            if (slot == 0) {
                EXPECT_EQ(probe.ceilingPart, CeilingPart::Compute);
            } else {
                EXPECT_EQ(probe.ceilingPart, CeilingPart::Bandwidth);
                EXPECT_EQ(probe.flavor, flavors[slot - 1]);
            }
        }
    }
    ASSERT_EQ(folds.size(), 2u);

    // Probe ids trail every measure job: triads of every fold first,
    // then scale, copy, read, nt-set and the compute roofs.
    size_t lastSweep = 0;
    std::vector<std::string> order;
    for (const Job &job : graph.jobs()) {
        if (job.kind != JobKind::Ceiling) {
            lastSweep = job.id;
        } else if (job.ceilingPart != CeilingPart::Fold) {
            EXPECT_GT(job.id, lastSweep);
            order.push_back(job.ceilingPart == CeilingPart::Compute
                                ? "compute"
                                : rfl::roofline::bwProbeName(job.flavor));
        }
    }
    EXPECT_EQ(order, (std::vector<std::string>{
                         "triad", "triad", "scale", "scale", "copy",
                         "copy", "read", "read", "nt-set", "nt-set",
                         "compute", "compute"}));
}

TEST(JobGraph, CacheKeysAreUniqueAndContentAddressed)
{
    const CampaignSpec spec = twoVariantSpec();
    const JobGraph graph = JobGraph::expand(spec);

    // Unique but for the ceiling probes, which share their fold's key.
    std::set<std::string> keys;
    size_t probes = 0;
    for (const Job &job : graph.jobs()) {
        if (job.kind == JobKind::Ceiling &&
            job.ceilingPart != CeilingPart::Fold)
            ++probes;
        else
            keys.insert(job.cacheKey);
    }
    EXPECT_EQ(keys.size() + probes, graph.size());

    // Same content -> same key, regardless of spec object identity.
    const JobGraph again = JobGraph::expand(twoVariantSpec());
    for (size_t i = 0; i < graph.size(); ++i)
        EXPECT_EQ(graph.jobs()[i].cacheKey, again.jobs()[i].cacheKey);

    // A different machine config moves every key.
    const std::string key0 = measureCacheKey(
        spec.machines()[0].config, spec.kernels()[0],
        spec.variants()[0].opts);
    MachineConfig other = spec.machines()[0].config;
    other.core.freqGHz += 0.1;
    EXPECT_NE(measureCacheKey(other, spec.kernels()[0],
                              spec.variants()[0].opts),
              key0);
}

TEST(JobGraph, PerfBackendAppendsNativeJobsAfterEverySimJob)
{
    CampaignSpec spec = twoVariantSpec();
    spec.addBackend("sim").addBackend("perf");
    const JobGraph graph = JobGraph::expand(spec);

    // The sim prefix must be byte-for-byte the sim-only expansion: job
    // ids (and with them cached artifacts) may not move because
    // hardware rows were requested.
    const JobGraph simOnly = JobGraph::expand(twoVariantSpec());
    ASSERT_GT(graph.size(), simOnly.size());
    for (size_t i = 0; i < simOnly.size(); ++i) {
        EXPECT_EQ(graph.jobs()[i].kind, simOnly.jobs()[i].kind);
        EXPECT_EQ(graph.jobs()[i].cacheKey, simOnly.jobs()[i].cacheKey);
    }
    // 3 kernels x 2 variants native jobs, all trailing.
    size_t native = 0;
    for (size_t i = simOnly.size(); i < graph.size(); ++i) {
        EXPECT_EQ(graph.jobs()[i].kind, JobKind::NativeMeasure);
        ++native;
    }
    EXPECT_EQ(native, 6u);

    // Each native job depends on its scenario's ceiling so the row can
    // be plotted against the simulated roofs.
    for (const Job &job : graph.jobs()) {
        if (job.kind != JobKind::NativeMeasure)
            continue;
        ASSERT_EQ(job.deps.size(), 1u);
        EXPECT_EQ(graph.jobs()[job.deps[0]].kind, JobKind::Ceiling);
    }
}

TEST(JobGraph, PerfOnlyBackendSkipsSimMeasureJobs)
{
    CampaignSpec spec = twoVariantSpec();
    spec.addBackend("perf");
    const JobGraph graph = JobGraph::expand(spec);
    for (const Job &job : graph.jobs())
        EXPECT_NE(job.kind, JobKind::Measure);
}

TEST(JobGraph, DuplicateNativeKeysChainBehindTheFirstJob)
{
    // The native cache key ignores the machine index (the row measures
    // the host, not the simulated machine), so a second machine entry
    // repeats every key. Each duplicate must depend on the first job
    // with its key: one native run happens, the rest replay it from
    // the cache instead of racing it cold.
    CampaignSpec spec = twoVariantSpec();
    spec.addMachine("second", MachineConfig::smallTestMachine());
    spec.addBackend("sim").addBackend("perf");
    const JobGraph graph = JobGraph::expand(spec);

    std::map<std::string, size_t> firstByKey;
    for (const Job &job : graph.jobs()) {
        if (job.kind != JobKind::NativeMeasure)
            continue;
        const auto [it, inserted] =
            firstByKey.emplace(job.cacheKey, job.id);
        if (inserted) {
            ASSERT_EQ(job.deps.size(), 1u);
            EXPECT_EQ(graph.jobs()[job.deps[0]].kind,
                      JobKind::Ceiling);
        } else {
            ASSERT_EQ(job.deps.size(), 2u);
            EXPECT_EQ(graph.jobs()[job.deps[0]].kind,
                      JobKind::Ceiling);
            EXPECT_EQ(job.deps[1], it->second);
        }
    }
    // 3 kernels x 2 variants of unique keys, each duplicated once.
    EXPECT_EQ(firstByKey.size(), 6u);
}

TEST(JobGraph, NativeMeasureCacheKeyIsHostScoped)
{
    const CampaignSpec spec = twoVariantSpec();
    const std::string key = nativeMeasureCacheKey(
        spec.kernels()[0], spec.variants()[0].opts);
    EXPECT_EQ(key.rfind("native|", 0), 0u);
    // Host identity is process-stable; the key is machine-config-free
    // by design (the simulated machine does not shape the host CPU),
    // so the same kernel/options pair dedups across machine entries.
    EXPECT_EQ(key, nativeMeasureCacheKey(spec.kernels()[0],
                                         spec.variants()[0].opts));
    EXPECT_NE(key, nativeMeasureCacheKey(spec.kernels()[1],
                                         spec.variants()[0].opts));
    EXPECT_NE(key.find(hostIdentityHash()), std::string::npos);
}

} // namespace
