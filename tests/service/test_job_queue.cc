/**
 * @file
 * Job-queue lifecycle tests: validation, backpressure, failure
 * surfacing, shared-cache reuse across distinct submissions.
 */

#include <chrono>
#include <filesystem>
#include <iterator>
#include <string>
#include <thread>
#include <utility>

#include <unistd.h>

#include <gtest/gtest.h>

#include "service/job_queue.hh"
#include "support/failpoint.hh"
#include "support/logging.hh"

namespace
{

using namespace rfl::service;

const char *const kSmallSpec =
    "name = queue-test\n"
    "machine = small\n"
    "kernel = daxpy:n=4096\n"
    "variant = cold-1c: protocol=cold cores=0 reps=1\n";

TEST(ServiceJobQueue, InvalidSpecRejectedWithoutExecution)
{
    JobQueue queue;

    const SubmitOutcome bad = queue.submit("kernel = daxpy:n=64\n");
    EXPECT_EQ(bad.kind, SubmitOutcome::Kind::Invalid);
    EXPECT_NE(bad.error.find("no machines"), std::string::npos)
        << "error: " << bad.error;

    const SubmitOutcome unknown = queue.submit(
        "machine = small\n"
        "kernel = not-a-kernel:n=64\n"
        "variant = v: protocol=cold cores=0 reps=1\n");
    EXPECT_EQ(unknown.kind, SubmitOutcome::Kind::Invalid);
    EXPECT_FALSE(unknown.error.empty());

    // Bad parameters are rejected by the registry before anything is
    // allocated; each error names what is wrong.
    const std::pair<const char *, const char *> bad_kernels[] = {
        {"sum:n=-1", "not a decimal number"},
        {"daxpy:n=0", "out of range"},
        {"stencil3:n=8", "out of range"},
        {"spmv-csr:rows=4,nnz=8", "nnz <= rows"},
        {"daxpy:size=8", "unknown parameter 'size'"},
        {"triad:n=12abc", "not a decimal number"},
        {"dgemm-opt:n=64,n=96", "given twice"},
        {"sum:n=1099511627776", "physical memory"},
        {"dgemm-opt:n=4294967296", "out of range"},
    };
    for (const auto &[kernel, why] : bad_kernels) {
        const SubmitOutcome o =
            queue.submit(std::string("machine = small\nkernel = ") +
                         kernel +
                         "\nvariant = v: protocol=cold cores=0 reps=1\n");
        EXPECT_EQ(o.kind, SubmitOutcome::Kind::Invalid) << kernel;
        EXPECT_NE(o.error.find(why), std::string::npos)
            << kernel << ": " << o.error;
    }

    const JobQueueStats stats = queue.stats();
    EXPECT_EQ(stats.rejectedInvalid, 2u + std::size(bad_kernels));
    EXPECT_EQ(stats.executed, 0u);
}

TEST(ServiceJobQueue, StatusAndArtifactsFollowLifecycle)
{
    JobQueueOptions opts;
    opts.workers = 1;
    opts.exec.threads = 1;
    JobQueue queue(opts);

    JobStatus st;
    EXPECT_FALSE(queue.status("0123456789abcdef", &st));

    const SubmitOutcome o = queue.submit(kSmallSpec);
    ASSERT_EQ(o.kind, SubmitOutcome::Kind::Accepted);
    ASSERT_TRUE(queue.waitFor(o.id, 60.0));

    ASSERT_TRUE(queue.status(o.id, &st));
    EXPECT_EQ(st.state, JobState::Done);
    EXPECT_EQ(st.campaign, "queue-test");
    EXPECT_EQ(st.jobs, 8u); // a ceiling (fold + 6 probes) + one measure
    EXPECT_EQ(st.scenarioCount, 1u);
    EXPECT_GT(st.wallSeconds, 0.0);

    std::string body;
    EXPECT_TRUE(queue.analysisJson(o.id, &body));
    EXPECT_NE(body.find("\"kind\":\"rfl-analysis\""),
              std::string::npos);
    EXPECT_TRUE(queue.reportHtml(o.id, &body));
    EXPECT_NE(body.find("<!DOCTYPE html>"), std::string::npos);
    EXPECT_TRUE(queue.svg(o.id, 0, &body));
    EXPECT_NE(body.find("<svg"), std::string::npos);
    EXPECT_FALSE(queue.svg(o.id, 1, &body)) << "only one scenario";
}

TEST(ServiceJobQueue, BackpressureRejectsBeyondQueueDepth)
{
    JobQueueOptions opts;
    opts.workers = 1;
    opts.maxQueued = 1;
    opts.exec.threads = 1;
    JobQueue queue(opts);

    // Job A keeps the single worker busy (milliseconds of simulation
    // against the microseconds the submissions below take) while the
    // backpressure path is probed. Not bigger: under ASan this runs
    // tens of seconds and the waits below must stay comfortable.
    const SubmitOutcome a = queue.submit(
        "name = queue-busy\n"
        "machine = default\n"
        "kernel = triad:n=524288\n"
        "variant = warm-1c: protocol=warm cores=0 reps=2\n");
    ASSERT_EQ(a.kind, SubmitOutcome::Kind::Accepted);

    // Wait until A left the queue (is running), so the bound below is
    // exercised by B and C alone.
    JobStatus st;
    for (int i = 0; i < 2000; ++i) {
        ASSERT_TRUE(queue.status(a.id, &st));
        if (st.state != JobState::Queued)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_NE(st.state, JobState::Queued);

    const SubmitOutcome b = queue.submit(
        "name = queue-b\n"
        "machine = small\n"
        "kernel = daxpy:n=4096\n"
        "variant = cold-1c: protocol=cold cores=0 reps=1\n");
    const SubmitOutcome c = queue.submit(
        "name = queue-c\n"
        "machine = small\n"
        "kernel = sum:n=4096\n"
        "variant = cold-1c: protocol=cold cores=0 reps=1\n");

    if (b.kind == SubmitOutcome::Kind::Accepted) {
        // B filled the single queue slot; C must bounce.
        EXPECT_EQ(c.kind, SubmitOutcome::Kind::QueueFull);
        EXPECT_GE(queue.stats().rejectedFull, 1u);
        ASSERT_TRUE(queue.waitFor(b.id, 300.0));
    } else {
        // A was still queued after the poll bound — accept the rarer
        // interleaving as long as backpressure engaged.
        EXPECT_EQ(b.kind, SubmitOutcome::Kind::QueueFull);
    }
    ASSERT_TRUE(queue.waitFor(a.id, 300.0));
}

TEST(ServiceJobQueue, WorkerFailureSurfacesAsFailedJob)
{
    // An unwritable cache spill makes the first store fatal(); in the
    // service that must mark the job Failed — with the message — and
    // leave the process alive.
    JobQueueOptions opts;
    opts.workers = 1;
    opts.exec.threads = 1;
    opts.cachePath =
        "/nonexistent-rfl-dir/definitely/missing/cache.jsonl";
    JobQueue queue(opts);

    const SubmitOutcome o = queue.submit(kSmallSpec);
    ASSERT_EQ(o.kind, SubmitOutcome::Kind::Accepted);
    ASSERT_TRUE(queue.waitFor(o.id, 60.0));

    JobStatus st;
    ASSERT_TRUE(queue.status(o.id, &st));
    EXPECT_EQ(st.state, JobState::Failed);
    EXPECT_NE(st.error.find("cannot append"), std::string::npos)
        << "error: " << st.error;
    EXPECT_EQ(queue.stats().failed, 1u);

    std::string body;
    EXPECT_FALSE(queue.analysisJson(o.id, &body))
        << "failed jobs expose no artifacts";

    // Resubmission of a failed spec retries instead of deduplicating
    // onto the corpse.
    const SubmitOutcome retry = queue.submit(kSmallSpec);
    EXPECT_EQ(retry.kind, SubmitOutcome::Kind::Accepted);
    EXPECT_EQ(retry.id, o.id);
    ASSERT_TRUE(queue.waitFor(retry.id, 60.0));
}

TEST(ServiceJobQueue, TraceWriteFailureFailsTicketAndQueueServes)
{
    // A trace-record job whose trace write fails unwinds through its
    // SimEngine. The engine's destructor must not write (and throw)
    // again mid-unwind: the ticket ends failed and the worker serves
    // the next spec.
    const std::string traceDir = ::testing::TempDir() +
                                 "rfl-queue-trace-fail-" +
                                 std::to_string(::getpid());
    JobQueueOptions opts;
    opts.workers = 1;
    opts.exec.threads = 1;
    opts.exec.traceDir = traceDir;
    JobQueue queue(opts);
    const bool wasThrowing = rfl::setFatalThrows(true);
    ASSERT_TRUE(rfl::failpoint::arm("trace.write", "error"));

    const SubmitOutcome o = queue.submit(
        "name = queue-trace-fail\n"
        "machine = small\n"
        "trace = daxpy:n=65536\n"
        "variant = cold-1c: protocol=cold cores=0 reps=1\n");
    ASSERT_EQ(o.kind, SubmitOutcome::Kind::Accepted);
    ASSERT_TRUE(queue.waitFor(o.id, 60.0));
    rfl::failpoint::disarm("trace.write");
    JobStatus st;
    ASSERT_TRUE(queue.status(o.id, &st));
    EXPECT_EQ(st.state, JobState::Failed);
    EXPECT_NE(st.error.find("short write"), std::string::npos)
        << "error: " << st.error;

    const SubmitOutcome next = queue.submit(kSmallSpec);
    ASSERT_EQ(next.kind, SubmitOutcome::Kind::Accepted);
    ASSERT_TRUE(queue.waitFor(next.id, 60.0));
    ASSERT_TRUE(queue.status(next.id, &st));
    EXPECT_EQ(st.state, JobState::Done) << "error: " << st.error;
    rfl::setFatalThrows(wasThrowing);
    std::filesystem::remove_all(traceDir);
}

TEST(ServiceJobQueue, FinishedJobsEvictedBeyondRetentionBound)
{
    JobQueueOptions opts;
    opts.workers = 1;
    opts.maxFinished = 1;
    opts.exec.threads = 1;
    JobQueue queue(opts);

    const SubmitOutcome a = queue.submit(kSmallSpec);
    ASSERT_EQ(a.kind, SubmitOutcome::Kind::Accepted);
    ASSERT_TRUE(queue.waitFor(a.id, 60.0));

    const SubmitOutcome b = queue.submit(
        "name = queue-evict-b\n"
        "machine = small\n"
        "kernel = sum:n=4096\n"
        "variant = cold-1c: protocol=cold cores=0 reps=1\n");
    ASSERT_EQ(b.kind, SubmitOutcome::Kind::Accepted);
    ASSERT_TRUE(queue.waitFor(b.id, 60.0));

    // B's completion evicted A (oldest finished past the bound of 1).
    JobStatus st;
    EXPECT_FALSE(queue.status(a.id, &st))
        << "evicted ticket must be forgotten";
    ASSERT_TRUE(queue.status(b.id, &st));
    EXPECT_EQ(st.state, JobState::Done);
    EXPECT_EQ(queue.stats().done, 1u) << "counters track retained jobs";

    // Resubmitting the evicted spec re-runs it — every cell from the
    // warm result cache.
    const SubmitOutcome again = queue.submit(kSmallSpec);
    ASSERT_EQ(again.kind, SubmitOutcome::Kind::Accepted);
    EXPECT_EQ(again.id, a.id) << "same content, same ticket";
    ASSERT_TRUE(queue.waitFor(again.id, 60.0));
    ASSERT_TRUE(queue.status(again.id, &st));
    EXPECT_EQ(st.state, JobState::Done);
    EXPECT_EQ(st.simulated, 0u) << "re-run must be pure cache hits";
}

TEST(ServiceJobQueue, WaitForTimesOutUnderStalledWorker)
{
    // A stalled worker (injected 1.5 s drain stall) must not wedge
    // clients: waitFor with a short budget returns false, and the same
    // ticket still completes once the stall clears.
    ASSERT_TRUE(rfl::failpoint::arm("queue.drain", "sleep(1500)"));
    JobQueueOptions opts;
    opts.workers = 1;
    opts.exec.threads = 1;
    JobQueue queue(opts);

    const SubmitOutcome o = queue.submit(kSmallSpec);
    ASSERT_EQ(o.kind, SubmitOutcome::Kind::Accepted);
    EXPECT_FALSE(queue.waitFor(o.id, 0.2))
        << "waitFor must give up, not block on the stalled worker";

    JobStatus st;
    ASSERT_TRUE(queue.status(o.id, &st));
    EXPECT_TRUE(st.state == JobState::Queued ||
                st.state == JobState::Running);

    rfl::failpoint::disarmAll();
    ASSERT_TRUE(queue.waitFor(o.id, 60.0));
    ASSERT_TRUE(queue.status(o.id, &st));
    EXPECT_EQ(st.state, JobState::Done);
}

TEST(ServiceJobQueue, RunTimeoutSurfacesAsTimedOutNotHang)
{
    JobQueueOptions opts;
    opts.workers = 1;
    opts.exec.threads = 1;
    JobQueue queue(opts);

    const std::string spec =
        std::string(kSmallSpec) + "timeout = 0.000001\n";
    const SubmitOutcome o = queue.submit(spec);
    ASSERT_EQ(o.kind, SubmitOutcome::Kind::Accepted);
    ASSERT_TRUE(queue.waitFor(o.id, 60.0))
        << "a timed-out campaign still finishes, as timed_out";

    JobStatus st;
    ASSERT_TRUE(queue.status(o.id, &st));
    EXPECT_EQ(st.state, JobState::TimedOut);
    EXPECT_NE(st.error.find("deadline exceeded"), std::string::npos)
        << "error: " << st.error;
    EXPECT_EQ(queue.stats().timedOut, 1u);
    EXPECT_EQ(queue.stats().failed, 0u);

    std::string body;
    EXPECT_FALSE(queue.analysisJson(o.id, &body))
        << "timed-out jobs expose no artifacts";

    // Like Failed, TimedOut resubmission retries rather than
    // deduplicating onto the dead ticket.
    const SubmitOutcome retry = queue.submit(spec);
    EXPECT_EQ(retry.kind, SubmitOutcome::Kind::Accepted);
    EXPECT_EQ(retry.id, o.id);
    ASSERT_TRUE(queue.waitFor(retry.id, 60.0));
    EXPECT_EQ(queue.stats().timedOut, 1u)
        << "retry replaces the timed-out record, not double-counts";
}

TEST(ServiceJobQueue, MidSimulationTimeoutLeavesQueueServing)
{
    // A budget that expires while a job is simulating (not between
    // stages) unwinds that job as timed_out; the worker survives and
    // runs the next campaign.
    JobQueueOptions opts;
    opts.workers = 1;
    opts.exec.threads = 1;
    JobQueue queue(opts);

    const SubmitOutcome big = queue.submit(
        "name = queue-deadline\n"
        "machine = small\n"
        "kernel = daxpy:n=8388608\n"
        "variant = cold-1c: protocol=cold cores=0 reps=1\n"
        "timeout = 0.3\n");
    ASSERT_EQ(big.kind, SubmitOutcome::Kind::Accepted);
    ASSERT_TRUE(queue.waitFor(big.id, 60.0));
    JobStatus st;
    ASSERT_TRUE(queue.status(big.id, &st));
    EXPECT_EQ(st.state, JobState::TimedOut) << "error: " << st.error;

    const SubmitOutcome small = queue.submit(kSmallSpec);
    ASSERT_EQ(small.kind, SubmitOutcome::Kind::Accepted);
    ASSERT_TRUE(queue.waitFor(small.id, 60.0));
    ASSERT_TRUE(queue.status(small.id, &st));
    EXPECT_EQ(st.state, JobState::Done) << "error: " << st.error;
}

TEST(ServiceJobQueue, PerJobTimeoutOptionTimesOutCampaigns)
{
    // The service-level budget (--job-timeout) needs no cooperation
    // from the submitted spec.
    JobQueueOptions opts;
    opts.workers = 1;
    opts.exec.threads = 1;
    opts.exec.jobTimeoutSeconds = 1e-6;
    JobQueue queue(opts);

    const SubmitOutcome o = queue.submit(kSmallSpec);
    ASSERT_EQ(o.kind, SubmitOutcome::Kind::Accepted);
    ASSERT_TRUE(queue.waitFor(o.id, 60.0));
    JobStatus st;
    ASSERT_TRUE(queue.status(o.id, &st));
    EXPECT_EQ(st.state, JobState::TimedOut);
}

TEST(ServiceJobQueue, InjectedSubmitFaultDegradesToQueueFull)
{
    ASSERT_TRUE(rfl::failpoint::arm("queue.submit", "error:count=1"));
    JobQueue queue;
    const SubmitOutcome o = queue.submit(kSmallSpec);
    EXPECT_EQ(o.kind, SubmitOutcome::Kind::QueueFull)
        << "injected submit fault must map to well-formed backpressure";
    rfl::failpoint::disarmAll();

    const SubmitOutcome retry = queue.submit(kSmallSpec);
    ASSERT_EQ(retry.kind, SubmitOutcome::Kind::Accepted);
    ASSERT_TRUE(queue.waitFor(retry.id, 60.0));
}

TEST(ServiceJobQueue, SharedCacheServesOverlappingCampaigns)
{
    JobQueueOptions opts;
    opts.workers = 1;
    opts.exec.threads = 1;
    JobQueue queue(opts);

    const SubmitOutcome a = queue.submit(kSmallSpec);
    ASSERT_EQ(a.kind, SubmitOutcome::Kind::Accepted);
    ASSERT_TRUE(queue.waitFor(a.id, 60.0));

    // A different campaign containing the same (machine, kernel,
    // variant) cell: its jobs answer from the shared cache.
    const SubmitOutcome b = queue.submit(
        "name = queue-test-super\n"
        "machine = small\n"
        "kernel = daxpy:n=4096\n"
        "kernel = triad:n=4096\n"
        "variant = cold-1c: protocol=cold cores=0 reps=1\n");
    ASSERT_EQ(b.kind, SubmitOutcome::Kind::Accepted);
    ASSERT_TRUE(queue.waitFor(b.id, 60.0));

    JobStatus st;
    ASSERT_TRUE(queue.status(b.id, &st));
    EXPECT_EQ(st.state, JobState::Done);
    EXPECT_GE(st.cacheHits, 2u)
        << "ceiling + daxpy measurement were already cached";
    EXPECT_GE(queue.cacheStats().hits, 2u);
}

} // namespace
