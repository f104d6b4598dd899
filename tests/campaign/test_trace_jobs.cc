/**
 * @file
 * Campaign trace-record / trace-replay job tests.
 *
 * A `trace = <kernel spec>` campaign entry expands into one
 * trace-record job per machine (content-addressed trace file) plus one
 * trace-replay measurement per variant. The replayed stream is the
 * kernel's exact access stream, so when the record parameters coincide
 * with a variant's (same lanes, same seed, single core), the replay
 * measurement must reproduce the direct kernel measurement number for
 * number — the strongest cross-subsystem check the trace IR admits.
 * A recording that fails or times out removes its scratch file.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "campaign/executor.hh"
#include "campaign/job_graph.hh"
#include "campaign/result_cache.hh"
#include "campaign/spec.hh"
#include "support/cancel.hh"
#include "support/failpoint.hh"
#include "support/logging.hh"
#include "trace/trace_file.hh"

namespace
{

using namespace rfl;
using namespace rfl::campaign;

/** @return a temp path unique to @p name and this process, so suites
 *  of two build trees can run at the same time. */
std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "rfl-" + name + "-" +
           std::to_string(::getpid());
}

std::string
freshDir(const std::string &name)
{
    const std::string dir = tempPath(name);
    std::filesystem::remove_all(dir);
    return dir;
}

/** Machine, one kernel, the same kernel traced, one cold variant whose
 *  options match the trace-record parameters. */
CampaignSpec
traceSpec()
{
    const sim::MachineConfig config = sim::MachineConfig::defaultPlatform();
    CampaignSpec spec("trace-jobs");
    spec.addMachine("default", config);
    spec.addKernel("daxpy:n=2048");
    spec.addTrace("daxpy:n=2048");
    roofline::MeasureOptions cold;
    cold.repetitions = 2;
    cold.cores = {0};
    cold.lanes = 0; // machine max == record lanes
    cold.seed = traceRecordParams(config).seed;
    spec.addVariant("cold-1c", cold);
    return spec;
}

TEST(TraceJobGraph, ExpandsRecordAndReplayJobs)
{
    const CampaignSpec spec = traceSpec();
    const JobGraph graph = JobGraph::expand(spec);

    size_t records = 0, replays = 0;
    for (const Job &job : graph.jobs()) {
        if (job.kind == JobKind::TraceRecord) {
            ++records;
            EXPECT_TRUE(job.deps.empty()) << job.describe(spec);
            EXPECT_EQ(job.cacheKey.rfind("trace|", 0), 0u);
        } else if (job.kind == JobKind::TraceReplay) {
            ++replays;
            // Dep order is load-bearing: ceiling first, recording second.
            ASSERT_EQ(job.deps.size(), 2u) << job.describe(spec);
            EXPECT_EQ(graph.jobs()[job.deps[0]].kind, JobKind::Ceiling);
            EXPECT_EQ(graph.jobs()[job.deps[1]].kind,
                      JobKind::TraceRecord);
            EXPECT_EQ(graph.ceilingJobFor(job), job.deps[0]);
            EXPECT_EQ(job.cacheKey.rfind("replay|", 0), 0u);
        }
    }
    EXPECT_EQ(records, 1u);
    EXPECT_EQ(replays, 1u);
    EXPECT_EQ(graph.size(),
              graph.ceilingJobs() + /*measure*/ 1 + records + replays);
}

TEST(TraceJobs, ReplayReproducesDirectMeasurement)
{
    const std::string trace_dir = freshDir("trace-jobs-replay");
    ExecutorOptions opts;
    opts.threads = 2;
    opts.traceDir = trace_dir;

    const CampaignSpec spec = traceSpec();
    CampaignExecutor executor(opts);
    const CampaignRun run = executor.run(spec);

    const roofline::Measurement &direct = run.measurementFor(0, 0, 0);
    const roofline::Measurement &replay =
        run.replayMeasurementFor(0, 0, 0);

    // Identical access stream -> identical W, Q, T to the last bit.
    EXPECT_EQ(direct.flops, replay.flops);
    EXPECT_EQ(direct.trafficBytes, replay.trafficBytes);
    EXPECT_EQ(direct.seconds, replay.seconds);
    EXPECT_EQ(replay.kernel, "trace(daxpy:n=2048)");

    // The recorded file is content-addressed and self-describing.
    const Job *record_job = nullptr;
    for (const Job &job : run.jobs)
        if (job.kind == JobKind::TraceRecord)
            record_job = &job;
    ASSERT_NE(record_job, nullptr);
    const TraceInfo &info = run.results[record_job->id].trace;
    trace::TraceReader reader;
    ASSERT_TRUE(reader.open(info.path)) << reader.error();
    EXPECT_EQ(reader.stableHash(), info.summary.hash);
    EXPECT_NE(info.path.find(trace_dir), std::string::npos);

    std::filesystem::remove_all(trace_dir);
}

TEST(TraceJobs, SecondRunIsFullyCached)
{
    const std::string trace_dir = freshDir("trace-jobs-cache");
    const std::string spill =
        tempPath("trace-jobs-cache") + ".jsonl";
    std::remove(spill.c_str());

    const CampaignSpec spec = traceSpec();
    {
        ResultCache cache(spill);
        ExecutorOptions opts;
        opts.threads = 2;
        opts.cache = &cache;
        opts.traceDir = trace_dir;
        const CampaignRun first = CampaignExecutor(opts).run(spec);
        EXPECT_EQ(first.cacheHits, 0u);
        EXPECT_EQ(first.simulated, first.jobs.size());
    }
    {
        // New process simulation: fresh cache object over the same
        // spill file and trace directory.
        ResultCache cache(spill);
        ExecutorOptions opts;
        opts.threads = 2;
        opts.cache = &cache;
        opts.traceDir = trace_dir;
        const CampaignRun second = CampaignExecutor(opts).run(spec);
        EXPECT_EQ(second.cacheHits, second.jobs.size());
        EXPECT_EQ(second.simulated, 0u);
    }
    std::remove(spill.c_str());
    std::filesystem::remove_all(trace_dir);
}

TEST(TraceJobs, MissingTraceFileIsReRecorded)
{
    const std::string trace_dir = freshDir("trace-jobs-rerecord");
    const std::string spill =
        tempPath("trace-jobs-rerecord") + ".jsonl";
    std::remove(spill.c_str());

    const CampaignSpec spec = traceSpec();
    std::string trace_path;
    {
        ResultCache cache(spill);
        ExecutorOptions opts;
        opts.cache = &cache;
        opts.traceDir = trace_dir;
        const CampaignRun run = CampaignExecutor(opts).run(spec);
        for (const Job &job : run.jobs)
            if (job.kind == JobKind::TraceRecord)
                trace_path = run.results[job.id].trace.path;
    }
    ASSERT_FALSE(trace_path.empty());
    // Prune the trace directory behind the cache's back.
    std::filesystem::remove_all(trace_dir);
    {
        ResultCache cache(spill);
        ExecutorOptions opts;
        opts.cache = &cache;
        opts.traceDir = trace_dir;
        const CampaignRun run = CampaignExecutor(opts).run(spec);
        // The record job noticed the stale cache entry and re-recorded;
        // replay/measure/ceiling results still come from the cache.
        EXPECT_EQ(run.simulated, 1u);
        EXPECT_TRUE(std::filesystem::exists(trace_path));
    }
    std::remove(spill.c_str());
    std::filesystem::remove_all(trace_dir);
}

/** @return the recordings in progress (or abandoned) under @p dir. */
size_t
scratchRecordings(const std::string &dir)
{
    size_t n = 0;
    if (!std::filesystem::exists(dir))
        return 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        if (entry.path().filename().string().rfind(".recording-", 0) == 0)
            ++n;
    return n;
}

/** @return the number of file descriptors this process holds open. */
size_t
openFds()
{
    size_t n = 0;
    for ([[maybe_unused]] const auto &entry :
         std::filesystem::directory_iterator("/proc/self/fd"))
        ++n;
    return n;
}

/** One trace entry and nothing else on the small machine. */
CampaignSpec
oneTraceSpec(const std::string &kernel)
{
    CampaignSpec spec("trace-scratch");
    spec.addMachine("small", sim::MachineConfig::smallTestMachine());
    spec.addTrace(kernel);
    roofline::MeasureOptions cold;
    cold.repetitions = 1;
    cold.cores = {0};
    spec.addVariant("cold-1c", cold);
    return spec;
}

TEST(TraceJobs, FailedRecordingRemovesItsScratchFile)
{
    const std::string trace_dir = freshDir("trace-jobs-failed");
    ExecutorOptions opts;
    opts.threads = 1;
    opts.traceDir = trace_dir;
    const CampaignSpec spec = oneTraceSpec("daxpy:n=2048");
    const size_t fds = openFds();
    {
        // The injected short write fails the run through fatal(), which
        // throws while a run is in flight in the daemon.
        const bool wasThrowing = setFatalThrows(true);
        ASSERT_TRUE(failpoint::arm("trace.write", "error"));
        EXPECT_THROW(CampaignExecutor(opts).run(spec), FatalError);
        failpoint::disarmAll();
        setFatalThrows(wasThrowing);
    }
    EXPECT_EQ(scratchRecordings(trace_dir), 0u);
    EXPECT_EQ(openFds(), fds); // the abandoned recording was closed

    // Without the fault the same spec records and replays normally.
    const CampaignRun run = CampaignExecutor(opts).run(spec);
    EXPECT_EQ(run.replayMeasurementFor(0, 0, 0).kernel,
              "trace(daxpy:n=2048)");
    for (const Job &job : run.jobs)
        if (job.kind == JobKind::TraceRecord)
            EXPECT_TRUE(
                std::filesystem::exists(run.results[job.id].trace.path));
    EXPECT_EQ(scratchRecordings(trace_dir), 0u);
    std::filesystem::remove_all(trace_dir);
}

TEST(TraceJobs, TimedOutRecordingRemovesItsScratchFile)
{
    const std::string trace_dir = freshDir("trace-jobs-timeout");
    ExecutorOptions opts;
    // One worker: the recording is the first ready job, so the budget
    // expires inside it (128 MiB of daxpy operands take far longer
    // than 50 ms to stream through the simulator).
    opts.threads = 1;
    opts.traceDir = trace_dir;
    opts.jobTimeoutSeconds = 0.05;
    EXPECT_THROW(
        CampaignExecutor(opts).run(oneTraceSpec("daxpy:n=8388608")),
        TimedOutError);
    EXPECT_EQ(scratchRecordings(trace_dir), 0u);
    std::filesystem::remove_all(trace_dir);
}

/** A 'trace:file=' kernel's measurement is determined by the file's
 *  content, so regenerating the file must change the measure cache
 *  key (a path-only key would silently serve the stale stream). */
TEST(TraceJobs, FileKernelCacheKeyTracksContent)
{
    const std::string dir = freshDir("trace-jobs-key");
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/w.rfltrace";

    auto record = [&](uint32_t n_records) {
        trace::TraceWriter writer(path);
        trace::AccessBatch batch;
        for (uint32_t i = 0; i < n_records; ++i)
            batch.pushMem(trace::AccessKind::Load, 0,
                          (1ull << 32) + 8 * i, 8);
        writer.append(batch);
        writer.finish();
    };

    const sim::MachineConfig config =
        sim::MachineConfig::smallTestMachine();
    RunOptions opts;
    record(10);
    const std::string key_a =
        measureCacheKey(config, "trace:file=" + path, opts);
    const std::string key_same =
        measureCacheKey(config, "trace:file=" + path, opts);
    record(20); // regenerate with a different stream
    const std::string key_b =
        measureCacheKey(config, "trace:file=" + path, opts);

    EXPECT_EQ(key_a, key_same);
    EXPECT_NE(key_a, key_b);
    std::filesystem::remove_all(dir);
}

TEST(TraceSpecText, ParsesTraceEntries)
{
    const CampaignSpec spec = parseCampaignSpec(
        "name = with-traces\n"
        "machine = small\n"
        "kernel = sum:n=4096\n"
        "trace = sum:n=4096\n"
        "trace = daxpy:n=2048\n"
        "variant = cold: protocol=cold cores=0\n");
    EXPECT_EQ(spec.traces().size(), 2u);
    EXPECT_EQ(spec.gridSize(), 3u); // (1 kernel + 2 traces) x 1 variant
}

TEST(TraceSpecTextDeath, TracedReplayIsRejected)
{
    CampaignSpec spec("bad");
    spec.addMachine(sim::MachineConfig::smallTestMachine());
    spec.addKernel("sum:n=1024");
    spec.addTrace("trace:file=whatever.rfltrace");
    roofline::MeasureOptions cold;
    cold.cores = {0};
    spec.addVariant("cold", cold);
    EXPECT_EXIT(spec.validate(), ::testing::ExitedWithCode(1),
                "trace of a trace replay");
}

} // namespace
