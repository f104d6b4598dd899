/**
 * @file
 * Golden stage-span trees per job kind.
 *
 * Every executed job records one span named after its kind with one
 * child per stage: cache-probe (attr outcome = hit | miss | stale),
 * then machine-build, simulate (measure-native for hardware rows) and
 * encode as the kind needs them. Attribution tooling keys on these
 * names, so this file pins the ordered child list of every kind, cold
 * and warm. It also arms each between-stage failpoint in turn and
 * checks that the run fails with FailpointError and joins every
 * worker it started.
 */

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include <unistd.h>

#include "campaign/executor.hh"
#include "campaign/result_cache.hh"
#include "campaign/spec.hh"
#include "pmu/perf_backend.hh"
#include "support/failpoint.hh"
#include "telemetry/span.hh"

namespace
{

using namespace rfl;
using namespace rfl::campaign;
using Children = std::vector<std::string>;

/** A ceiling (fold and six probes), a Measure, a TraceRecord, a
 *  TraceReplay, a PhaseSample and a hardware row. */
CampaignSpec
everyKindSpec()
{
    return parseCampaignSpec("name = stage-spans\n"
                             "machine = small\n"
                             "kernel = daxpy:n=256\n"
                             "trace = daxpy:n=256\n"
                             "phase = daxpy:n=256 period=64\n"
                             "variant = cold-1c: protocol=cold cores=0 "
                             "reps=1\n"
                             "backend = sim\n"
                             "backend = perf\n");
}

std::string
freshDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + "rfl-" + name + "-" +
                            std::to_string(::getpid());
    std::filesystem::remove_all(dir);
    return dir;
}

/** "ceiling/fold" and "ceiling/probe" tell a ceiling's parts apart;
 *  every other job is keyed by its kind name. */
std::string
shapeKey(const Job &job)
{
    if (job.kind != JobKind::Ceiling)
        return jobKindName(job.kind);
    return job.ceilingPart == CeilingPart::Fold ? "ceiling/fold"
                                                : "ceiling/probe";
}

struct JobTree
{
    Children children;      ///< child span names in start order
    std::string probeOutcome;
};

/** @return the span tree of every job of @p run, keyed by job id. */
std::map<size_t, JobTree>
jobTrees(const CampaignRun &run, const telemetry::Tracer &tracer)
{
    const std::vector<telemetry::SpanRecord> spans = tracer.spans();
    std::map<uint64_t, size_t> jobOfSpan; // job span id -> job id
    for (const telemetry::SpanRecord &s : spans)
        for (const auto &[key, value] : s.attrs)
            if (key == "job") {
                const size_t id = std::stoul(value);
                EXPECT_EQ(s.name, jobKindName(run.jobs.at(id).kind));
                jobOfSpan[s.id] = id;
            }
    std::map<uint64_t, const telemetry::SpanRecord *> byId;
    for (const telemetry::SpanRecord &s : spans)
        byId[s.id] = &s;
    std::map<size_t, JobTree> trees;
    // Span ids are drawn at construction, so id order is start order
    // among the children of one job.
    for (const auto &[id, span] : byId) {
        const auto job = jobOfSpan.find(span->parent);
        if (job == jobOfSpan.end())
            continue;
        JobTree &tree = trees[job->second];
        tree.children.push_back(span->name);
        if (span->name == "cache-probe")
            for (const auto &[key, value] : span->attrs)
                if (key == "outcome")
                    tree.probeOutcome = value;
    }
    EXPECT_EQ(jobOfSpan.size(), run.jobs.size());
    return trees;
}

void
expectShapes(const CampaignRun &run, const telemetry::Tracer &tracer,
             const std::map<std::string, JobTree> &want)
{
    const std::map<size_t, JobTree> trees = jobTrees(run, tracer);
    std::map<std::string, size_t> seen;
    for (const Job &job : run.jobs) {
        const std::string key = shapeKey(job);
        ++seen[key];
        ASSERT_TRUE(want.count(key)) << key;
        ASSERT_TRUE(trees.count(job.id)) << job.describe(run.spec);
        const JobTree &got = trees.at(job.id);
        EXPECT_EQ(got.children, want.at(key).children)
            << job.describe(run.spec);
        EXPECT_EQ(got.probeOutcome, want.at(key).probeOutcome)
            << job.describe(run.spec);
    }
    EXPECT_EQ(seen["ceiling/fold"], 1u);
    EXPECT_EQ(seen["ceiling/probe"], 6u);
    for (const char *kind : {"measure", "trace-record", "trace-replay",
                             "phase", "native-measure"})
        EXPECT_EQ(seen[kind], 1u) << kind;
}

TEST(StageSpans, EveryJobKindHasItsGoldenStageTree)
{
    const std::string traceDir = freshDir("stage-spans");
    ResultCache cache;
    ExecutorOptions opts;
    opts.threads = 2;
    opts.cache = &cache;
    opts.traceDir = traceDir;
    const CampaignSpec spec = everyKindSpec();

    // Hosts without perf_event access complete the hardware row as a
    // placeholder: a machine-build span outside any gate, no store.
    const bool perf = pmu::PerfEventBackend::available();
    const JobTree nativeCold =
        perf ? JobTree{{"cache-probe", "machine-build", "measure-native",
                        "encode"},
                       "miss"}
             : JobTree{{"cache-probe", "machine-build"}, "miss"};
    const JobTree built{{"cache-probe", "machine-build", "simulate",
                         "encode"},
                        "miss"};
    {
        telemetry::Tracer tracer;
        const CampaignRun cold = CampaignExecutor(opts).run(spec, &tracer);
        expectShapes(
            cold, tracer,
            {
                {"ceiling/fold", {{"cache-probe", "encode"}, "miss"}},
                {"ceiling/probe",
                 {{"cache-probe", "machine-build", "simulate"}, "miss"}},
                {"measure", built},
                // The recording's own encode (finish and rename the
                // trace file), then the cache store.
                {"trace-record",
                 {{"cache-probe", "machine-build", "simulate", "encode",
                   "encode"},
                  "miss"}},
                {"trace-replay", built},
                {"phase", built},
                {"native-measure", nativeCold},
            });
    }
    {
        telemetry::Tracer tracer;
        const CampaignRun warm = CampaignExecutor(opts).run(spec, &tracer);
        const JobTree hit{{"cache-probe"}, "hit"};
        expectShapes(warm, tracer,
                     {
                         {"ceiling/fold", hit},
                         {"ceiling/probe", hit},
                         {"measure", hit},
                         {"trace-record", hit},
                         {"trace-replay", hit},
                         {"phase", hit},
                         {"native-measure", perf ? hit : nativeCold},
                     });
    }
    std::filesystem::remove_all(traceDir);
}

/** @return the number of threads this process runs right now. */
size_t
liveThreads()
{
    size_t n = 0;
    for ([[maybe_unused]] const auto &entry :
         std::filesystem::directory_iterator("/proc/self/task"))
        ++n;
    return n;
}

TEST(StageSpans, EveryStageFailpointFailsTheRunAndJoinsItsWorkers)
{
    const std::string traceDir = freshDir("stage-failpoints");
    const CampaignSpec spec = everyKindSpec();
    for (const char *name :
         {"job.machine-build", "job.simulate", "job.encode"}) {
        // A fresh cache per arm: a warm one would answer every job
        // before it reached a stage.
        ResultCache cache;
        ExecutorOptions opts;
        opts.threads = 4;
        opts.cache = &cache;
        opts.traceDir = traceDir;
        const size_t before = liveThreads();
        ASSERT_TRUE(failpoint::arm(name, "throw"));
        EXPECT_THROW(CampaignExecutor(opts).run(spec),
                     failpoint::FailpointError)
            << name;
        EXPECT_GT(failpoint::triggerCount(name), 0u) << name;
        failpoint::disarmAll();
        EXPECT_EQ(liveThreads(), before) << name;
    }
    std::filesystem::remove_all(traceDir);
}

} // namespace
