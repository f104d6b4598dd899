#include "campaign/spec.hh"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "kernels/registry.hh"
#include "sim/config_io.hh"
#include "support/hash.hh"
#include "support/logging.hh"

namespace rfl::campaign
{

namespace
{

std::string
trim(const std::string &s)
{
    const size_t a = s.find_first_not_of(" \t\r");
    if (a == std::string::npos)
        return "";
    const size_t b = s.find_last_not_of(" \t\r");
    return s.substr(a, b - a + 1);
}

bool
parseOnOff(const std::string &key, const std::string &value)
{
    if (value == "on" || value == "true" || value == "1" || value == "yes")
        return true;
    if (value == "off" || value == "false" || value == "0" ||
        value == "no") {
        return false;
    }
    fatal("campaign: %s expects on|off, got '%s'", key.c_str(),
          value.c_str());
}

long
parseLong(const std::string &key, const std::string &value)
{
    char *end = nullptr;
    errno = 0;
    const long v = std::strtol(value.c_str(), &end, 0);
    if (end == value.c_str() || *end != '\0' || errno == ERANGE)
        fatal("campaign: %s expects an integer, got '%s'", key.c_str(),
              value.c_str());
    return v;
}

/** parseLong() for an int field; fatal() when the value does not fit. */
int
parseInt(const std::string &key, const std::string &value)
{
    const long v = parseLong(key, value);
    if (v < INT_MIN || v > INT_MAX)
        fatal("campaign: %s=%s is out of range", key.c_str(),
              value.c_str());
    return static_cast<int>(v);
}

/** Apply one "key=value" token of a variant line. */
void
applyVariantOption(RunOptions &opts, const std::string &key,
                   const std::string &value)
{
    using roofline::CacheProtocol;
    if (key == "protocol") {
        if (value == "cold")
            opts.measure.protocol = CacheProtocol::Cold;
        else if (value == "warm")
            opts.measure.protocol = CacheProtocol::Warm;
        else
            fatal("campaign: protocol expects cold|warm, got '%s'",
                  value.c_str());
    } else if (key == "cores") {
        opts.measure.cores = parseCoreSet(value);
    } else if (key == "reps") {
        opts.measure.repetitions = parseInt(key, value);
    } else if (key == "warmups") {
        opts.measure.warmupRuns = parseInt(key, value);
    } else if (key == "lanes") {
        opts.measure.lanes = parseInt(key, value);
    } else if (key == "fma") {
        opts.measure.useFma = parseOnOff(key, value);
    } else if (key == "flush") {
        opts.measure.flushAfter = parseOnOff(key, value);
    } else if (key == "overhead") {
        opts.measure.subtractOverhead = parseOnOff(key, value);
    } else if (key == "seed") {
        opts.measure.seed =
            static_cast<uint64_t>(parseLong(key, value));
    } else if (key == "numa") {
        if (value == "socket0")
            opts.memPolicy = sim::MemPolicy::Socket0;
        else if (value == "local")
            opts.memPolicy = sim::MemPolicy::LocalToAccessor;
        else if (value == "interleave")
            opts.memPolicy = sim::MemPolicy::Interleave;
        else
            fatal("campaign: numa expects socket0|local|interleave, got "
                  "'%s'",
                  value.c_str());
    } else if (key == "prefetch") {
        opts.prefetchEnabled = parseOnOff(key, value);
    } else {
        fatal("campaign: unknown variant option '%s'", key.c_str());
    }
}

const char *
memPolicyKey(sim::MemPolicy policy)
{
    switch (policy) {
      case sim::MemPolicy::Socket0: return "socket0";
      case sim::MemPolicy::LocalToAccessor: return "local";
      case sim::MemPolicy::Interleave: return "interleave";
    }
    return "?";
}

} // namespace

std::string
RunOptions::canonicalKey() const
{
    std::ostringstream out;
    out << "protocol="
        << roofline::protocolName(measure.protocol)
        << ",cores=" << formatCoreSet(measure.cores)
        << ",reps=" << measure.repetitions
        << ",warmups=" << measure.warmupRuns
        << ",overhead=" << (measure.subtractOverhead ? 1 : 0)
        << ",flush=" << (measure.flushAfter ? 1 : 0)
        << ",lanes=" << measure.lanes
        << ",fma=" << (measure.useFma ? 1 : 0)
        << ",seed=" << measure.seed
        << ",numa=" << memPolicyKey(memPolicy)
        << ",prefetch=" << (prefetchEnabled ? 1 : 0);
    return out.str();
}

CampaignSpec::CampaignSpec(std::string name) : name_(std::move(name))
{
}

CampaignSpec &
CampaignSpec::addMachine(const std::string &label,
                         const sim::MachineConfig &config)
{
    config.validate();
    machines_.push_back({label, config});
    return *this;
}

CampaignSpec &
CampaignSpec::addMachine(const sim::MachineConfig &config)
{
    return addMachine(config.name, config);
}

CampaignSpec &
CampaignSpec::addKernel(const std::string &spec)
{
    kernels_.push_back(spec);
    return *this;
}

CampaignSpec &
CampaignSpec::addKernels(const std::vector<std::string> &specs)
{
    for (const std::string &s : specs)
        addKernel(s);
    return *this;
}

CampaignSpec &
CampaignSpec::addTrace(const std::string &kernelSpec)
{
    traces_.push_back(kernelSpec);
    return *this;
}

CampaignSpec &
CampaignSpec::addPhase(const std::string &kernelSpec, uint64_t period)
{
    if (period == 0)
        fatal("campaign: phase entry '%s' needs a period >= 1",
              kernelSpec.c_str());
    phases_.push_back({kernelSpec, period});
    return *this;
}

CampaignSpec &
CampaignSpec::addVariant(const std::string &label, const RunOptions &opts)
{
    variants_.push_back({label, opts});
    return *this;
}

CampaignSpec &
CampaignSpec::addVariant(const std::string &label,
                         const roofline::MeasureOptions &measure)
{
    RunOptions opts;
    opts.measure = measure;
    return addVariant(label, opts);
}

CampaignSpec &
CampaignSpec::setTimeout(double seconds)
{
    if (!(seconds >= 0.0) || std::isinf(seconds))
        fatal("campaign '%s': timeout must be finite and >= 0, got %g",
              name_.c_str(), seconds);
    timeoutSeconds_ = seconds;
    return *this;
}

CampaignSpec &
CampaignSpec::addBackend(const std::string &backend)
{
    if (backend != "sim" && backend != "perf")
        fatal("campaign '%s': backend expects sim|perf, got '%s'",
              name_.c_str(), backend.c_str());
    // The first explicit backend replaces the implicit {"sim"} default,
    // so `backend = perf` alone means hardware rows only.
    if (!backendsExplicit_) {
        backends_.clear();
        backendsExplicit_ = true;
    }
    if (!hasBackend(backend))
        backends_.push_back(backend);
    return *this;
}

bool
CampaignSpec::hasBackend(const std::string &backend) const
{
    return std::find(backends_.begin(), backends_.end(), backend) !=
           backends_.end();
}

void
CampaignSpec::validate() const
{
    if (machines_.empty())
        fatal("campaign '%s': no machines", name_.c_str());
    if (kernels_.empty() && traces_.empty() && phases_.empty())
        fatal("campaign '%s': no kernels, traces or phases",
              name_.c_str());
    if (variants_.empty())
        fatal("campaign '%s': no variants", name_.c_str());

    for (size_t i = 0; i < machines_.size(); ++i)
        for (size_t j = i + 1; j < machines_.size(); ++j)
            if (machines_[i].label == machines_[j].label)
                fatal("campaign '%s': duplicate machine label '%s'",
                      name_.c_str(), machines_[i].label.c_str());
    for (size_t i = 0; i < variants_.size(); ++i)
        for (size_t j = i + 1; j < variants_.size(); ++j)
            if (variants_[i].label == variants_[j].label)
                fatal("campaign '%s': duplicate variant label '%s'",
                      name_.c_str(), variants_[i].label.c_str());

    // Every kernel a job would build must fit in memory beside the
    // others. Checked after each addition, so the sum cannot wrap: the
    // registry's bounds keep one kernel's footprint at most 2^63.
    const size_t memory = static_cast<size_t>(sysconf(_SC_PHYS_PAGES)) *
                          static_cast<size_t>(sysconf(_SC_PAGESIZE));
    size_t footprint = 0;
    auto account = [&](const std::string &spec, const kernels::Kernel &k) {
        footprint += k.workingSetBytes();
        if (footprint > memory)
            fatal("campaign '%s': kernels up to '%s' need %zu bytes of "
                  "operands, more than this host's %zu bytes of physical "
                  "memory",
                  name_.c_str(), spec.c_str(), footprint, memory);
    };

    // Kernel specs must parse (catches typos before hours of compute),
    // and multi-core variants need parallelizable kernels. A trace
    // replay allocates no operands.
    for (const std::string &spec : kernels_) {
        const std::unique_ptr<kernels::Kernel> kernel =
            kernels::createKernel(spec);
        if (spec.rfind("trace:", 0) != 0)
            account(spec, *kernel);
        for (const Variant &v : variants_)
            if (v.opts.measure.cores.size() > 1 &&
                !kernel->parallelizable())
                fatal("campaign '%s': kernel '%s' does not support "
                      "multi-core execution (variant '%s')",
                      name_.c_str(), spec.c_str(), v.label.c_str());
    }

    // Traced kernels must also parse. Replay itself is single-stream
    // (the executor replays on the first core of a variant's set), so
    // no parallelizability requirement applies. Recording a replay is
    // pointless recursion; reject it early.
    for (const std::string &spec : traces_) {
        if (spec.rfind("trace:", 0) == 0)
            fatal("campaign '%s': cannot record a trace of a trace "
                  "replay ('%s')",
                  name_.c_str(), spec.c_str());
        account(spec, *kernels::createKernel(spec));
    }

    // Phase-sampled kernels run like measured kernels (partitioned
    // across the variant's cores), so the same constraints apply.
    for (const PhaseEntry &p : phases_) {
        if (p.spec.rfind("trace:", 0) == 0)
            fatal("campaign '%s': cannot phase-sample a trace replay "
                  "('%s')",
                  name_.c_str(), p.spec.c_str());
        const std::unique_ptr<kernels::Kernel> kernel =
            kernels::createKernel(p.spec);
        account(p.spec, *kernel);
        for (const Variant &v : variants_)
            if (v.opts.measure.cores.size() > 1 &&
                !kernel->parallelizable())
                fatal("campaign '%s': phase kernel '%s' does not "
                      "support multi-core execution (variant '%s')",
                      name_.c_str(), p.spec.c_str(), v.label.c_str());
    }

    // Measurement asserts these, and an assertion aborts even the
    // daemon, so a spec that breaks one is rejected here.
    for (const Variant &v : variants_) {
        const roofline::MeasureOptions &measure = v.opts.measure;
        if (measure.repetitions < 1 || measure.warmupRuns < 0)
            fatal("campaign '%s': variant '%s' needs reps >= 1 and "
                  "warmups >= 0",
                  name_.c_str(), v.label.c_str());
        const int lanes = measure.lanes;
        if (lanes != 0 && lanes != 1 && lanes != 2 && lanes != 4 &&
            lanes != 8)
            fatal("campaign '%s': variant '%s' lanes must be 0 (machine "
                  "maximum), 1, 2, 4 or 8",
                  name_.c_str(), v.label.c_str());
        if (measure.cores.empty())
            fatal("campaign '%s': variant '%s' has an empty core set",
                  name_.c_str(), v.label.c_str());
        for (const MachineEntry &m : machines_)
            for (int core : v.opts.measure.cores)
                if (core < 0 || core >= m.config.totalCores())
                    fatal("campaign '%s': variant '%s' uses core %d but "
                          "machine '%s' has %d cores",
                          name_.c_str(), v.label.c_str(), core,
                          m.label.c_str(), m.config.totalCores());
    }
}

uint64_t
CampaignSpec::stableHash() const
{
    Fnv1a h;
    h.mix(name_);
    h.mix(static_cast<uint64_t>(machines_.size()));
    for (const MachineEntry &m : machines_) {
        h.mix(m.label);
        h.mix(m.config.stableHash());
    }
    h.mix(static_cast<uint64_t>(kernels_.size()));
    for (const std::string &k : kernels_)
        h.mix(k);
    h.mix(static_cast<uint64_t>(traces_.size()));
    for (const std::string &t : traces_)
        h.mix(t);
    h.mix(static_cast<uint64_t>(phases_.size()));
    for (const PhaseEntry &p : phases_) {
        h.mix(p.spec);
        h.mix(p.period);
    }
    h.mix(static_cast<uint64_t>(variants_.size()));
    for (const Variant &v : variants_) {
        h.mix(v.label);
        h.mix(v.opts.canonicalKey());
    }
    // Mixed only when non-default so every spec hash from before the
    // backend key existed (implicitly backends = {"sim"}) is unchanged.
    if (backends_ != std::vector<std::string>{"sim"}) {
        h.mix(std::string("backends"));
        h.mix(static_cast<uint64_t>(backends_.size()));
        for (const std::string &b : backends_)
            h.mix(b);
    }
    // The timeout does not change result bytes, but a timed-out ticket
    // must not shadow a later, more patient resubmission in the
    // service's dedup map — distinct budget, distinct ticket.
    h.mix(timeoutSeconds_);
    return h.value();
}

CampaignSpec
parseCampaignSpec(const std::string &text)
{
    CampaignSpec spec;
    std::istringstream in(text);
    std::string line;
    int lineno = 0;
    std::string name = "campaign";
    while (std::getline(in, line)) {
        ++lineno;
        const size_t hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        line = trim(line);
        if (line.empty())
            continue;
        const size_t eq = line.find('=');
        if (eq == std::string::npos)
            fatal("campaign line %d: expected key = value", lineno);
        const std::string key = trim(line.substr(0, eq));
        const std::string value = trim(line.substr(eq + 1));
        if (key.empty() || value.empty())
            fatal("campaign line %d: empty key or value", lineno);

        if (key == "name") {
            name = value;
        } else if (key == "timeout") {
            char *end = nullptr;
            const double seconds = std::strtod(value.c_str(), &end);
            if (end == value.c_str() || *end != '\0' ||
                !(seconds >= 0.0) || std::isinf(seconds))
                fatal("campaign line %d: timeout expects finite seconds "
                      ">= 0, got '%s'",
                      lineno, value.c_str());
            spec.setTimeout(seconds);
        } else if (key == "machine") {
            if (value == "default")
                spec.addMachine(sim::MachineConfig::defaultPlatform());
            else if (value == "small")
                spec.addMachine(sim::MachineConfig::smallTestMachine());
            else if (value == "scalar")
                spec.addMachine(sim::MachineConfig::scalarMachine());
            else if (value[0] == '@')
                spec.addMachine(sim::loadMachineConfig(value.substr(1)));
            else
                fatal("campaign line %d: machine expects "
                      "default|small|scalar or @file, got '%s'",
                      lineno, value.c_str());
        } else if (key == "kernel") {
            spec.addKernel(value);
        } else if (key == "trace") {
            spec.addTrace(value);
        } else if (key == "phase") {
            // "<kernel spec> [period=N]" — tokens after the spec are
            // options.
            std::istringstream tokens(value);
            std::string kernel_spec;
            tokens >> kernel_spec;
            uint64_t period = 8192;
            std::string token;
            while (tokens >> token) {
                const size_t teq = token.find('=');
                if (teq == std::string::npos ||
                    token.substr(0, teq) != "period")
                    fatal("campaign line %d: phase option '%s' is not "
                          "period=N",
                          lineno, token.c_str());
                const long v =
                    parseLong("period", token.substr(teq + 1));
                if (v <= 0)
                    fatal("campaign line %d: period must be >= 1",
                          lineno);
                period = static_cast<uint64_t>(v);
            }
            spec.addPhase(kernel_spec, period);
        } else if (key == "backend") {
            spec.addBackend(value);
        } else if (key == "variant") {
            const size_t colon = value.find(':');
            if (colon == std::string::npos)
                fatal("campaign line %d: variant expects "
                      "'label: key=value ...'",
                      lineno);
            const std::string label = trim(value.substr(0, colon));
            if (label.empty())
                fatal("campaign line %d: empty variant label", lineno);
            RunOptions opts;
            std::istringstream tokens(value.substr(colon + 1));
            std::string token;
            while (tokens >> token) {
                const size_t teq = token.find('=');
                if (teq == std::string::npos)
                    fatal("campaign line %d: variant option '%s' is not "
                          "key=value",
                          lineno, token.c_str());
                applyVariantOption(opts, token.substr(0, teq),
                                   token.substr(teq + 1));
            }
            spec.addVariant(label, opts);
        } else {
            fatal("campaign line %d: unknown key '%s'", lineno,
                  key.c_str());
        }
    }
    CampaignSpec named(name);
    for (const MachineEntry &m : spec.machines())
        named.addMachine(m.label, m.config);
    named.addKernels(spec.kernels());
    for (const std::string &t : spec.traces())
        named.addTrace(t);
    for (const PhaseEntry &p : spec.phases())
        named.addPhase(p.spec, p.period);
    for (const Variant &v : spec.variants())
        named.addVariant(v.label, v.opts);
    for (const std::string &b : spec.backends())
        named.addBackend(b);
    named.setTimeout(spec.timeoutSeconds());
    named.validate();
    return named;
}

CampaignSpec
loadCampaignSpec(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open campaign file '%s'", path.c_str());
    std::ostringstream text;
    text << in.rdbuf();
    return parseCampaignSpec(text.str());
}

std::vector<int>
parseCoreSet(const std::string &text)
{
    // Ranges expand one id at a time, so the ids a set expands to,
    // duplicates included, are counted before each expansion: a short
    // request body must not ask for gigabytes. No machine config comes
    // near this many cores.
    constexpr long kMaxCores = 65536;
    std::vector<int> cores;
    std::istringstream in(text);
    std::string part;
    while (std::getline(in, part, ',')) {
        if (part.empty())
            fatal("core set '%s': empty element", text.c_str());
        const size_t dash = part.find('-');
        char *end = nullptr;
        if (dash == std::string::npos) {
            const long v = std::strtol(part.c_str(), &end, 10);
            if (end == part.c_str() || *end != '\0' || v < 0 ||
                v >= kMaxCores)
                fatal("core set '%s': bad core '%s'", text.c_str(),
                      part.c_str());
            cores.push_back(static_cast<int>(v));
        } else {
            const std::string lo_s = part.substr(0, dash);
            const std::string hi_s = part.substr(dash + 1);
            const long lo = std::strtol(lo_s.c_str(), &end, 10);
            if (end == lo_s.c_str() || *end != '\0' || lo < 0)
                fatal("core set '%s': bad range start '%s'", text.c_str(),
                      lo_s.c_str());
            const long hi = std::strtol(hi_s.c_str(), &end, 10);
            if (end == hi_s.c_str() || *end != '\0' || hi < lo ||
                hi >= kMaxCores)
                fatal("core set '%s': bad range end '%s'", text.c_str(),
                      hi_s.c_str());
            if (static_cast<long>(cores.size()) + (hi - lo) >= kMaxCores)
                fatal("core set '%s': more than %ld cores", text.c_str(),
                      kMaxCores);
            for (long c = lo; c <= hi; ++c)
                cores.push_back(static_cast<int>(c));
        }
    }
    if (cores.empty())
        fatal("core set '%s': empty", text.c_str());
    std::sort(cores.begin(), cores.end());
    cores.erase(std::unique(cores.begin(), cores.end()), cores.end());
    return cores;
}

std::string
formatCoreSet(const std::vector<int> &cores)
{
    std::ostringstream out;
    for (size_t i = 0; i < cores.size(); ++i) {
        if (i)
            out << ",";
        out << cores[i];
    }
    return out.str();
}

} // namespace rfl::campaign
