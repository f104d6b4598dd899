/**
 * @file
 * Campaign executor acceptance tests: deterministic results independent
 * of host thread count, 100% cache hits on an identical re-run, each
 * job run exactly once, and ceiling jobs that link each variant to its
 * model without holding back the variant's sweep.
 */

#include <algorithm>
#include <fstream>
#include <numeric>
#include <sstream>

#include <gtest/gtest.h>

#include "campaign/executor.hh"
#include "campaign/serialize.hh"
#include "campaign/sink.hh"
#include "support/cancel.hh"
#include "support/failpoint.hh"
#include "support/json.hh"

namespace
{

using namespace rfl::campaign;
using rfl::sim::MachineConfig;

CampaignSpec
smallCampaign()
{
    CampaignSpec spec("exec_test");
    spec.addMachine("small", MachineConfig::smallTestMachine());
    spec.addKernels({"daxpy:n=256", "sum:n=512", "dot:n=256"});

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

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot read " << path;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

TEST(CampaignExecutor, ResultsIndependentOfThreadCount)
{
    const CampaignSpec spec = smallCampaign();

    ExecutorOptions serial;
    serial.threads = 1;
    const CampaignRun run1 = CampaignExecutor(serial).run(spec);

    ExecutorOptions parallel;
    parallel.threads = 4;
    const CampaignRun runN = CampaignExecutor(parallel).run(spec);

    EXPECT_EQ(run1.threadsUsed, 1);
    EXPECT_EQ(runN.threadsUsed, 4);
    EXPECT_EQ(run1.jobs.size(), runN.jobs.size());

    // Byte-identical aggregated CSV.
    const std::string dir1 = ::testing::TempDir() + "rfl_exec_1t";
    const std::string dirN = ::testing::TempDir() + "rfl_exec_4t";
    const std::string csv1 = writeCampaignCsv(run1, dir1, "out");
    const std::string csvN = writeCampaignCsv(runN, dirN, "out");
    const std::string text1 = readFile(csv1);
    EXPECT_FALSE(text1.empty());
    EXPECT_EQ(text1, readFile(csvN));

    // Models agree too.
    for (size_t vi = 0; vi < spec.variants().size(); ++vi) {
        EXPECT_EQ(run1.modelFor(0, vi).peakCompute(),
                  runN.modelFor(0, vi).peakCompute());
        EXPECT_EQ(run1.modelFor(0, vi).peakBandwidth(),
                  runN.modelFor(0, vi).peakBandwidth());
    }
}

TEST(CampaignExecutor, SecondRunIsAllCacheHits)
{
    const CampaignSpec spec = smallCampaign();
    const std::string path =
        ::testing::TempDir() + "rfl_exec_cache.jsonl";
    std::remove(path.c_str());

    // First run: everything simulated, everything stored.
    {
        ResultCache cache(path);
        ExecutorOptions opts;
        opts.threads = 2;
        opts.cache = &cache;
        const CampaignRun run = CampaignExecutor(opts).run(spec);
        EXPECT_EQ(run.simulated, run.jobs.size());
        EXPECT_EQ(run.cacheHits, 0u);
        EXPECT_EQ(cache.stats().stores, run.jobs.size());
    }

    // Second run against the same spill file: zero simulation.
    ResultCache cache(path);
    EXPECT_GT(cache.stats().preloaded, 0u);
    ExecutorOptions opts;
    opts.threads = 2;
    opts.cache = &cache;
    const CampaignRun rerun = CampaignExecutor(opts).run(spec);
    EXPECT_EQ(rerun.simulated, 0u);
    EXPECT_EQ(rerun.cacheHits, rerun.jobs.size());

    // And the cached results match a cache-less run byte for byte.
    const CampaignRun fresh = CampaignExecutor(ExecutorOptions{}).run(spec);
    const std::string dirA = ::testing::TempDir() + "rfl_exec_cached";
    const std::string dirB = ::testing::TempDir() + "rfl_exec_fresh";
    EXPECT_EQ(readFile(writeCampaignCsv(rerun, dirA, "out")),
              readFile(writeCampaignCsv(fresh, dirB, "out")));
    std::remove(path.c_str());
}

TEST(CampaignExecutor, ChangingTheSpecOnlyComputesTheDelta)
{
    const std::string path =
        ::testing::TempDir() + "rfl_exec_delta.jsonl";
    std::remove(path.c_str());

    ResultCache cache(path);
    ExecutorOptions opts;
    opts.threads = 2;
    opts.cache = &cache;

    CampaignExecutor(opts).run(smallCampaign());

    // Same campaign plus one new kernel: exactly the two new measure
    // jobs (one per variant) simulate; everything else hits.
    CampaignSpec extended = smallCampaign();
    extended.addKernel("triad:n=256");
    const CampaignRun run = CampaignExecutor(opts).run(extended);
    EXPECT_EQ(run.simulated, 2u);
    EXPECT_EQ(run.cacheHits, run.jobs.size() - 2u);
    std::remove(path.c_str());
}

TEST(CampaignExecutor, CeilingsLinkResultsWithoutGatingTheirSweeps)
{
    // Every job kind that runs on the pool, and a data dep
    // (record -> replay) beside the ceiling links.
    CampaignSpec spec = smallCampaign();
    spec.addTrace("daxpy:n=256");
    spec.addPhase("sum:n=512", 256);
    ExecutorOptions opts;
    opts.threads = 4;
    opts.traceDir = ::testing::TempDir() + "rfl_exec_links";
    const CampaignRun run = CampaignExecutor(opts).run(spec);
    ASSERT_EQ(run.completionOrder.size(), run.jobs.size());

    // completionOrder records the actual finish sequence; every data
    // dep (a replay's recording) must appear before its dependent. The
    // ceiling link is not a scheduling edge and is not checked here.
    std::vector<size_t> finishedAt(run.jobs.size());
    for (size_t pos = 0; pos < run.completionOrder.size(); ++pos)
        finishedAt[run.completionOrder[pos]] = pos;
    size_t dataDeps = 0;
    for (const Job &job : run.jobs) {
        for (size_t dep : job.deps) {
            if (run.jobs[dep].kind == JobKind::Ceiling)
                continue;
            ++dataDeps;
            EXPECT_LT(finishedAt[dep], finishedAt[job.id])
                << job.describe(run.spec) << " finished before its "
                << run.jobs[dep].describe(run.spec);
        }
    }
    EXPECT_GT(dataDeps, 0u);

    // Every variant's model is its own ceiling job's result, and each
    // ceiling produced usable compute + bandwidth roofs.
    for (size_t vi = 0; vi < spec.variants().size(); ++vi) {
        const std::string key = ceilingCacheKey(
            spec.machines()[0].config, spec.variants()[vi].opts);
        const auto ceiling = std::find_if(
            run.jobs.begin(), run.jobs.end(), [&](const Job &job) {
                return job.kind == JobKind::Ceiling &&
                       job.cacheKey == key;
            });
        ASSERT_NE(ceiling, run.jobs.end());
        const rfl::roofline::RooflineModel &model = run.modelFor(0, vi);
        EXPECT_EQ(&model, &run.results[ceiling->id].model);
        EXPECT_GT(model.peakCompute(), 0.0);
        EXPECT_GT(model.peakBandwidth(), 0.0);
    }
}

TEST(CampaignExecutor, MeasureJobsDoNotWaitForTheirCeiling)
{
    // Deterministic, with no timing involved: the sweep's results are
    // all cached and its ceiling is not, and the ceiling fails at its
    // first stage. On one worker the pool runs jobs in submit order, so
    // the ceiling fails first; every measure job must still run and
    // finish (answered from the cache) although its ceiling never
    // completes. Were the ceiling a scheduling edge, no measure job
    // would ever start.
    const CampaignSpec spec = smallCampaign();
    const CampaignRun fresh = CampaignExecutor(ExecutorOptions{}).run(spec);
    ResultCache cache;
    size_t measures = 0;
    for (const Job &job : fresh.jobs) {
        if (job.kind != JobKind::Measure)
            continue;
        ++measures;
        cache.store(job.cacheKey,
                    encodeMeasurement(fresh.results[job.id].measurement));
    }
    ASSERT_GT(measures, 0u);

    ASSERT_TRUE(rfl::failpoint::arm("job.machine-build", "throw"));
    ExecutorOptions opts;
    opts.threads = 1;
    opts.cache = &cache;
    EXPECT_THROW(CampaignExecutor(opts).run(spec),
                 rfl::failpoint::FailpointError);
    rfl::failpoint::disarmAll();

    EXPECT_EQ(cache.stats().hits, measures);
}

TEST(CampaignExecutor, UndecodableCachedPayloadIsRecomputed)
{
    // Spill lines whose payloads parse but have another shape (a
    // measurement whose kernel is a number, a model whose ceilings are
    // not an array) count as misses: recompute, store, and hit on the
    // next run.
    CampaignSpec spec("bad_payload");
    spec.addMachine("small", MachineConfig::smallTestMachine());
    spec.addKernels({"daxpy:n=256"});
    rfl::roofline::MeasureOptions cold;
    cold.repetitions = 1;
    spec.addVariant("cold-1c", cold);
    const CampaignRun fresh = CampaignExecutor(ExecutorOptions{}).run(spec);

    const std::string path =
        ::testing::TempDir() + "rfl_exec_bad_payload.jsonl";
    {
        std::ofstream spill(path, std::ios::trunc);
        for (const Job &job : fresh.jobs) {
            rfl::Json line = rfl::Json::makeObject();
            line.set("key", rfl::Json::makeString(job.cacheKey));
            line.set("payload",
                     rfl::Json::parse(job.kind == JobKind::Ceiling
                                          ? "{\"compute\":7}"
                                          : "{\"kernel\":1}"));
            spill << line.dump() << "\n";
        }
    }

    ExecutorOptions opts;
    opts.threads = 1;
    {
        ResultCache cache(path);
        ASSERT_EQ(cache.stats().preloaded, fresh.jobs.size());
        opts.cache = &cache;
        const CampaignRun run = CampaignExecutor(opts).run(spec);
        EXPECT_EQ(run.simulated, run.jobs.size());
        EXPECT_EQ(run.cacheHits, 0u);
        EXPECT_EQ(cache.stats().stores, run.jobs.size());
        EXPECT_EQ(readFile(writeCampaignCsv(
                      run, ::testing::TempDir() + "rfl_bad_payload_a",
                      "out")),
                  readFile(writeCampaignCsv(
                      fresh, ::testing::TempDir() + "rfl_bad_payload_b",
                      "out")));
    }

    ResultCache reloaded(path);
    opts.cache = &reloaded;
    const CampaignRun rerun = CampaignExecutor(opts).run(spec);
    EXPECT_EQ(rerun.cacheHits, rerun.jobs.size());
    std::remove(path.c_str());
}

TEST(CampaignExecutor, EveryJobRunsExactlyOnce)
{
    // A trace recording that finishes while the initial ready set is
    // still being submitted unblocks its replay from a worker; the
    // replay must still be submitted once. The window is a race, so the
    // spec puts many recordings right before their replays in job
    // order and the run repeats.
    CampaignSpec spec("once");
    spec.addMachine("small", MachineConfig::smallTestMachine());
    for (int t = 0; t < 16; ++t)
        spec.addTrace("sum:n=" + std::to_string(64 + 8 * t));
    spec.addPhase("sum:n=512", 256);
    rfl::roofline::MeasureOptions cold;
    cold.repetitions = 1;
    spec.addVariant("cold-1c", cold);

    ExecutorOptions opts;
    opts.threads = 4;
    opts.traceDir = ::testing::TempDir() + "rfl_exec_once";
    for (int rep = 0; rep < 50; ++rep) {
        const CampaignRun run = CampaignExecutor(opts).run(spec);
        std::vector<size_t> order = run.completionOrder;
        std::sort(order.begin(), order.end());
        std::vector<size_t> ids(run.jobs.size());
        std::iota(ids.begin(), ids.end(), size_t{0});
        ASSERT_EQ(order, ids) << "run " << rep;
        ASSERT_EQ(run.simulated, run.jobs.size()) << "run " << rep;
    }
}

TEST(CampaignExecutor, ExpiredRunBudgetThrowsTimedOut)
{
    // A spec-level `timeout =` is a whole-run wall budget; one that is
    // effectively already spent must surface as TimedOutError from the
    // first drain check, not hang or return a partial grid.
    CampaignSpec spec = smallCampaign();
    spec.setTimeout(1e-9);
    ExecutorOptions opts;
    opts.threads = 2;
    EXPECT_THROW(CampaignExecutor(opts).run(spec), rfl::TimedOutError);
}

TEST(CampaignExecutor, ExpiredJobBudgetThrowsTimedOut)
{
    // Service-side per-job budget (ExecutorOptions::jobTimeoutSeconds)
    // cancels the same way without any spec cooperation.
    const CampaignSpec spec = smallCampaign();
    ExecutorOptions opts;
    opts.threads = 2;
    opts.jobTimeoutSeconds = 1e-9;
    EXPECT_THROW(CampaignExecutor(opts).run(spec), rfl::TimedOutError);
}

TEST(CampaignExecutor, GenerousBudgetsDoNotPerturbTheRun)
{
    CampaignSpec spec = smallCampaign();
    spec.setTimeout(3600.0);
    ExecutorOptions opts;
    opts.jobTimeoutSeconds = 3600.0;
    const CampaignRun run = CampaignExecutor(opts).run(spec);
    EXPECT_EQ(run.measurements().size(), spec.gridSize());
}

TEST(CampaignExecutor, NativeJobsRunAfterThePoolDrains)
{
    // NativeMeasure jobs observe the physical host, so the executor
    // parks them until every pool job has finished and then runs them
    // serially on a quiesced machine: in completionOrder every native
    // job must follow every sim job. Holds whether or not this host
    // grants perf_event_open (the placeholder path schedules the same).
    CampaignSpec spec = smallCampaign();
    spec.addBackend("sim").addBackend("perf");
    ExecutorOptions opts;
    opts.threads = 4;
    const CampaignRun run = CampaignExecutor(opts).run(spec);

    ASSERT_EQ(run.completionOrder.size(), run.jobs.size());
    size_t lastSim = 0;
    size_t firstNative = run.completionOrder.size();
    size_t natives = 0;
    for (size_t pos = 0; pos < run.completionOrder.size(); ++pos) {
        const Job &job = run.jobs[run.completionOrder[pos]];
        if (job.kind == JobKind::NativeMeasure) {
            ++natives;
            firstNative = std::min(firstNative, pos);
        } else {
            lastSim = std::max(lastSim, pos);
        }
    }
    ASSERT_GT(natives, 0u);
    EXPECT_LT(lastSim, firstNative);
}

TEST(CampaignExecutor, GridLookupsWork)
{
    const CampaignSpec spec = smallCampaign();
    const CampaignRun run = CampaignExecutor(ExecutorOptions{}).run(spec);

    const rfl::roofline::Measurement &m = run.measurementFor(0, 0, 0);
    EXPECT_EQ(m.kernel, "daxpy");
    EXPECT_EQ(m.protocol, "cold");
    EXPECT_EQ(m.cores, 1);

    const rfl::roofline::Measurement &w = run.measurementFor(0, 1, 1);
    EXPECT_EQ(w.kernel, "sum");
    EXPECT_EQ(w.protocol, "warm");
    EXPECT_EQ(w.cores, 2);

    EXPECT_EQ(run.measurements().size(), spec.gridSize());
}

} // namespace
