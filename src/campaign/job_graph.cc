#include "campaign/job_graph.hh"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

#include "roofline/native_measurement.hh"
#include "support/hash.hh"
#include "support/logging.hh"
#include "trace/trace_file.hh"

namespace rfl::campaign
{

namespace
{

/** The part of RunOptions a ceiling characterization is sensitive to. */
std::string
ceilingSignature(const RunOptions &opts)
{
    std::ostringstream out;
    out << "cores=" << formatCoreSet(opts.measure.cores) << ",numa=";
    switch (opts.memPolicy) {
      case sim::MemPolicy::Socket0: out << "socket0"; break;
      case sim::MemPolicy::LocalToAccessor: out << "local"; break;
      case sim::MemPolicy::Interleave: out << "interleave"; break;
    }
    out << ",prefetch=" << (opts.prefetchEnabled ? 1 : 0);
    return out.str();
}

} // namespace

const char *
jobKindName(JobKind kind)
{
    switch (kind) {
      case JobKind::Ceiling: return "ceiling";
      case JobKind::Measure: return "measure";
      case JobKind::TraceRecord: return "trace-record";
      case JobKind::TraceReplay: return "trace-replay";
      case JobKind::PhaseSample: return "phase";
      case JobKind::NativeMeasure: return "native-measure";
    }
    return "?";
}

bool
Job::linksCeiling() const
{
    return kind != JobKind::Ceiling && kind != JobKind::TraceRecord;
}

std::vector<size_t>
Job::dataDeps() const
{
    if (!linksCeiling())
        return deps;
    return {deps.begin() + 1, deps.end()};
}

std::string
Job::describe(const CampaignSpec &spec) const
{
    std::ostringstream out;
    out << jobKindName(kind) << " #" << id << " machine="
        << spec.machines()[machineIndex].label;
    if (kind != JobKind::TraceRecord)
        out << " variant=" << spec.variants()[variantIndex].label;
    if (kind == JobKind::Ceiling && ceilingPart != CeilingPart::Fold)
        out << " probe="
            << (ceilingPart == CeilingPart::Compute
                    ? "compute"
                    : roofline::bwProbeName(flavor));
    if (kind == JobKind::Measure || kind == JobKind::NativeMeasure)
        out << " kernel=" << spec.kernels()[kernelIndex];
    else if (kind == JobKind::TraceRecord ||
             kind == JobKind::TraceReplay)
        out << " trace=" << spec.traces()[kernelIndex];
    else if (kind == JobKind::PhaseSample)
        out << " phase=" << spec.phases()[kernelIndex].spec;
    return out.str();
}

std::string
ceilingCacheKey(const sim::MachineConfig &config, const RunOptions &opts)
{
    return "ceiling|" + hashToHex(config.stableHash()) + "|" +
           ceilingSignature(opts);
}

std::string
measureCacheKey(const sim::MachineConfig &config,
                const std::string &kernelSpec, const RunOptions &opts)
{
    std::string key = "measure|" + hashToHex(config.stableHash()) + "|" +
                      kernelSpec + "|" + opts.canonicalKey();
    // A trace-replay kernel's spec names a file, not a workload: the
    // measurement is determined by the file's *content*, so fold its
    // stable stream hash into the key — regenerating the file must not
    // hit the stale entry. (An unreadable file is left to createKernel
    // to report; the key just stays content-free.)
    if (kernelSpec.rfind("trace:file=", 0) == 0) {
        trace::TraceReader reader;
        if (reader.open(kernelSpec.substr(11)))
            key += "|content=" + hashToHex(reader.stableHash());
    }
    return key;
}

TraceRecordParams
traceRecordParams(const sim::MachineConfig &config)
{
    TraceRecordParams params;
    params.lanes = config.core.maxVectorDoubles;
    return params;
}

namespace
{

std::string
traceSignature(const sim::MachineConfig &config,
               const std::string &kernelSpec)
{
    const TraceRecordParams params = traceRecordParams(config);
    return hashToHex(config.stableHash()) + "|" + kernelSpec +
           "|lanes=" + std::to_string(params.lanes) +
           ",seed=" + std::to_string(params.seed);
}

} // namespace

std::string
traceRecordCacheKey(const sim::MachineConfig &config,
                    const std::string &kernelSpec)
{
    return "trace|" + traceSignature(config, kernelSpec);
}

std::string
traceReplayCacheKey(const sim::MachineConfig &config,
                    const std::string &kernelSpec,
                    const RunOptions &opts)
{
    return "replay|" + traceSignature(config, kernelSpec) + "|" +
           opts.canonicalKey();
}

std::string
phaseSampleCacheKey(const sim::MachineConfig &config,
                    const PhaseEntry &phase, const RunOptions &opts)
{
    return "phase|" + hashToHex(config.stableHash()) + "|" +
           phase.spec + "|period=" + std::to_string(phase.period) +
           "|" + opts.canonicalKey();
}

std::string
hostIdentityHash()
{
    static const std::string cached = [] {
        Fnv1a h;
        // "model name" and "flags" of the first processor entry: the
        // microarchitecture plus the ISA features visible to kernels.
        std::ifstream in("/proc/cpuinfo");
        std::string line;
        bool model = false, flags = false;
        while ((!model || !flags) && std::getline(in, line)) {
            if (!model && line.rfind("model name", 0) == 0) {
                h.mix(line);
                model = true;
            } else if (!flags && line.rfind("flags", 0) == 0) {
                h.mix(line);
                flags = true;
            }
        }
        // The event map shapes what a hardware row contains: remapping
        // an event must miss the old cache entries. So does the LLC
        // size, which picks the traffic model and the eviction buffer.
        const char *events = std::getenv("RFL_PERF_EVENTS");
        h.mix(std::string(events ? events : ""));
        h.mix(std::to_string(roofline::hostLlcBytes()));
        return hashToHex(h.value());
    }();
    return cached;
}

std::string
nativeMeasureCacheKey(const std::string &kernelSpec,
                      const RunOptions &opts)
{
    return "native|" + hostIdentityHash() + "|" + kernelSpec + "|" +
           opts.canonicalKey();
}

JobGraph
JobGraph::expand(const CampaignSpec &spec)
{
    spec.validate();

    JobGraph graph;
    // (machine, ceiling signature) -> ceiling job id.
    std::map<std::pair<size_t, std::string>, size_t> ceilings;

    // Ceiling folds first, in spec order, so job ids are deterministic.
    for (size_t mi = 0; mi < spec.machines().size(); ++mi) {
        for (size_t vi = 0; vi < spec.variants().size(); ++vi) {
            const Variant &v = spec.variants()[vi];
            const std::string sig = ceilingSignature(v.opts);
            const auto key = std::make_pair(mi, sig);
            if (ceilings.count(key))
                continue;
            Job job;
            job.id = graph.jobs_.size();
            job.kind = JobKind::Ceiling;
            job.machineIndex = mi;
            job.variantIndex = vi;
            job.cacheKey =
                ceilingCacheKey(spec.machines()[mi].config, v.opts);
            ceilings.emplace(key, job.id);
            graph.jobs_.push_back(std::move(job));
        }
    }
    const size_t folds = graph.jobs_.size();

    // One job of @p kind per (machine, item, variant), linking its
    // scenario's ceiling fold first (ceilingJobFor follows
    // deps.front()); @p finish sets the cache key and any further
    // deps. The Measure, TraceReplay, PhaseSample and NativeMeasure
    // grids all expand through here.
    const auto addGrid = [&](JobKind kind, size_t items, auto &&finish) {
        for (size_t mi = 0; mi < spec.machines().size(); ++mi) {
            for (size_t ii = 0; ii < items; ++ii) {
                for (size_t vi = 0; vi < spec.variants().size(); ++vi) {
                    const RunOptions &opts = spec.variants()[vi].opts;
                    Job job;
                    job.id = graph.jobs_.size();
                    job.kind = kind;
                    job.machineIndex = mi;
                    job.kernelIndex = ii;
                    job.variantIndex = vi;
                    job.deps.push_back(
                        ceilings.at({mi, ceilingSignature(opts)}));
                    finish(job, spec.machines()[mi].config, opts);
                    graph.jobs_.push_back(std::move(job));
                }
            }
        }
    };

    // Measure jobs: skipped when the spec selects hardware rows only
    // (backend = perf without sim).
    addGrid(JobKind::Measure,
            spec.hasBackend("sim") ? spec.kernels().size() : 0,
            [&](Job &job, const sim::MachineConfig &config,
                const RunOptions &opts) {
                job.cacheKey = measureCacheKey(
                    config, spec.kernels()[job.kernelIndex], opts);
            });

    // Trace-record jobs: one per (machine, trace). The recorded stream
    // is variant-independent (see traceRecordParams), so variants share
    // the recording the way they share ceiling characterizations.
    std::map<std::pair<size_t, size_t>, size_t> records;
    for (size_t mi = 0; mi < spec.machines().size(); ++mi) {
        for (size_t ti = 0; ti < spec.traces().size(); ++ti) {
            Job job;
            job.id = graph.jobs_.size();
            job.kind = JobKind::TraceRecord;
            job.machineIndex = mi;
            job.kernelIndex = ti;
            job.variantIndex = 0; // unused; recording has no variant
            job.cacheKey = traceRecordCacheKey(
                spec.machines()[mi].config, spec.traces()[ti]);
            records.emplace(std::make_pair(mi, ti), job.id);
            graph.jobs_.push_back(std::move(job));
        }
    }

    // Trace-replay jobs: the recording that supplies the trace file is
    // the second dep.
    addGrid(JobKind::TraceReplay, spec.traces().size(),
            [&](Job &job, const sim::MachineConfig &config,
                const RunOptions &opts) {
                job.cacheKey = traceReplayCacheKey(
                    config, spec.traces()[job.kernelIndex], opts);
                job.deps.push_back(
                    records.at({job.machineIndex, job.kernelIndex}));
            });

    addGrid(JobKind::PhaseSample, spec.phases().size(),
            [&](Job &job, const sim::MachineConfig &config,
                const RunOptions &opts) {
                job.cacheKey = phaseSampleCacheKey(
                    config, spec.phases()[job.kernelIndex], opts);
            });

    // Ceiling probes after every other sim job, longest first (see
    // file comment), each flavor across all folds before the next.
    // Each fold lists its compute probe first, then its bandwidth
    // probes in allBwProbes() order: the order foldCeilings() takes.
    const std::vector<roofline::BwProbe> flavors = roofline::allBwProbes();
    const size_t firstProbe = graph.jobs_.size();
    for (size_t fold = 0; fold < folds; ++fold)
        graph.jobs_[fold].deps.resize(1 + flavors.size());
    const auto addProbe = [&](CeilingPart part, roofline::BwProbe flavor,
                              size_t slot) {
        for (size_t fold = 0; fold < folds; ++fold) {
            Job job = graph.jobs_[fold];
            job.id = graph.jobs_.size();
            job.ceilingPart = part;
            job.flavor = flavor;
            job.deps.clear();
            graph.jobs_[fold].deps[slot] = job.id;
            graph.jobs_.push_back(std::move(job));
        }
    };
    for (roofline::BwProbe flavor :
         {roofline::BwProbe::Triad, roofline::BwProbe::Scale,
          roofline::BwProbe::Copy, roofline::BwProbe::Read,
          roofline::BwProbe::NtSet}) {
        const size_t slot = static_cast<size_t>(
            std::find(flavors.begin(), flavors.end(), flavor) -
            flavors.begin());
        addProbe(CeilingPart::Bandwidth, flavor, 1 + slot);
    }
    addProbe(CeilingPart::Compute, roofline::BwProbe::Read, 0);
    graph.ceilingJobs_ = folds + graph.jobs_.size() - firstProbe;

    // NativeMeasure jobs last (backend = perf), appended after every
    // sim job so sim job ids — and with them every pre-existing cached
    // artifact — are unchanged by the presence of hardware rows.
    // The cache key deliberately ignores the machine index (the row
    // measures the host, not the simulated machine), so a
    // multi-machine spec repeats keys. Chain each duplicate behind the
    // first job with its key: one native run happens, the rest replay
    // it from the cache instead of racing it cold.
    std::map<std::string, size_t> firstByKey;
    addGrid(JobKind::NativeMeasure,
            spec.hasBackend("perf") ? spec.kernels().size() : 0,
            [&](Job &job, const sim::MachineConfig &,
                const RunOptions &opts) {
                job.cacheKey = nativeMeasureCacheKey(
                    spec.kernels()[job.kernelIndex], opts);
                const auto [it, inserted] =
                    firstByKey.emplace(job.cacheKey, job.id);
                if (!inserted)
                    job.deps.push_back(it->second);
            });
    return graph;
}

size_t
JobGraph::ceilingJobFor(const Job &job)
{
    if (job.kind == JobKind::Ceiling)
        return job.id;
    if (!job.linksCeiling())
        panic("%s job #%zu has no ceiling job", jobKindName(job.kind),
              job.id);
    RFL_ASSERT(!job.deps.empty());
    return job.deps.front();
}

} // namespace rfl::campaign
