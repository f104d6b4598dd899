#include "kernels/registry.hh"

#include <algorithm>
#include <array>
#include <cstdint>
#include <type_traits>

#include "kernels/daxpy.hh"
#include "kernels/dgemm.hh"
#include "kernels/dgemv.hh"
#include "kernels/dot.hh"
#include "kernels/fft.hh"
#include "kernels/pchase.hh"
#include "kernels/spmv.hh"
#include "kernels/stencil.hh"
#include "kernels/strided.hh"
#include "kernels/sum.hh"
#include "kernels/triad.hh"
#include "support/logging.hh"
#include "trace/trace_kernel.hh"

namespace rfl::kernels
{

namespace
{

// Upper bounds keep every workingSetBytes() product inside 64 bits; the
// campaign's footprint limit (CampaignSpec::validate) does the rest.
constexpr size_t kMaxLen = size_t{1} << 40;  // elements of a vector
constexpr size_t kMaxDim = size_t{1} << 20;  // side of a square matrix
constexpr size_t kMaxMv = size_t{1} << 24;   // side of dgemv's matrix
constexpr size_t kMaxIndex = INT32_MAX;      // spmv's int32 indices

/** One key=value parameter: its default and inclusive bounds. */
struct Param
{
    const char *key = nullptr; // nullptr marks an unused slot
    size_t fallback = 0;
    size_t lo = 0;
    size_t hi = 0;
};

using Args = std::array<size_t, 2>;

/** One row of the kernel table. */
struct Entry
{
    const char *name;
    const char *what;
    std::array<Param, 2> params;
    std::unique_ptr<Kernel> (*make)(const Args &);
};

/** Factory of a kernel whose constructor takes its keys in order. */
template <typename K>
std::unique_ptr<Kernel>
make(const Args &a)
{
    if constexpr (std::is_constructible_v<K, size_t, size_t>)
        return std::make_unique<K>(a[0], a[1]);
    else
        return std::make_unique<K>(a[0]);
}

const Entry kKernels[] = {
    {"daxpy", "y = a*x + y", {{{"n", 1 << 16, 1, kMaxLen}}},
     make<Daxpy>},
    {"dot", "s = x . y", {{{"n", 1 << 16, 1, kMaxLen}}}, make<Dot>},
    {"triad", "a = b + s*c (regular stores)",
     {{{"n", 1 << 16, 1, kMaxLen}}},
     [](const Args &a) -> std::unique_ptr<Kernel> {
         return std::make_unique<Triad>(a[0], false);
     }},
    {"triad-nt", "a = b + s*c (non-temporal stores)",
     {{{"n", 1 << 16, 1, kMaxLen}}},
     [](const Args &a) -> std::unique_ptr<Kernel> {
         return std::make_unique<Triad>(a[0], true);
     }},
    {"sum", "s = sum(x)", {{{"n", 1 << 16, 1, kMaxLen}}},
     make<SumReduction>},
    {"stencil3", "3-point stencil", {{{"n", 1 << 16, 16, kMaxLen}}},
     make<Stencil3>},
    {"dgemv", "y = A*x + y, A is m x n (m=0: square)",
     {{{"m", 0, 0, kMaxMv}, {"n", 512, 1, kMaxMv}}},
     [](const Args &a) -> std::unique_ptr<Kernel> {
         return std::make_unique<Dgemv>(a[0] == 0 ? a[1] : a[0], a[1]);
     }},
    {"dgemm-naive", "C += A*B, triple loop",
     {{{"n", 128, 1, kMaxDim}}}, make<DgemmNaive>},
    {"dgemm-blocked", "C += A*B, tiled (block=0: 32)",
     {{{"n", 128, 1, kMaxDim}, {"block", 0, 0, kMaxDim}}},
     make<DgemmBlocked>},
    {"dgemm-opt", "C += A*B, register-blocked",
     {{{"n", 128, 1, kMaxDim}}}, make<DgemmRegBlocked>},
    {"fft", "in-place radix-2 complex FFT (n a power of two)",
     {{{"n", 1 << 12, 4, size_t{1} << 36}}}, make<Fft>},
    {"spmv-csr", "y = A*x, CSR, nnz per row <= rows",
     {{{"rows", 4096, 1, kMaxIndex}, {"nnz", 16, 1, kMaxIndex}}},
     make<SpmvCsr>},
    {"strided-sum", "strided read probe (stride in doubles)",
     {{{"n", 65536, 1, kMaxLen}, {"stride", 8, 1, kMaxDim}}},
     make<StridedSum>},
    {"pointer-chase", "dependent-load latency probe (hops=0: nodes)",
     {{{"nodes", 4096, 2, kMaxLen}, {"hops", 0, 0, kMaxLen}}},
     make<PointerChase>},
};

/** @return the decimal value of @p text; fatal() unless it is one. */
size_t
parseValue(const std::string &spec, const Param &p,
           const std::string &text)
{
    if (text.empty())
        fatal("kernel spec '%s': %s has no value", spec.c_str(), p.key);
    size_t v = 0;
    bool wrapped = false;
    for (const char c : text) {
        if (c < '0' || c > '9')
            fatal("kernel spec '%s': %s='%s' is not a decimal number",
                  spec.c_str(), p.key, text.c_str());
        const size_t d = static_cast<size_t>(c - '0');
        wrapped = wrapped || v > (SIZE_MAX - d) / 10;
        v = v * 10 + d;
    }
    if (wrapped || v < p.lo || v > p.hi)
        fatal("kernel spec '%s': %s=%s is out of range [%zu, %zu]",
              spec.c_str(), p.key, text.c_str(), p.lo, p.hi);
    return v;
}

/** @return @p e's arguments from the "key=value,..." text at @p pos. */
Args
parseArgs(const Entry &e, const std::string &spec, size_t pos)
{
    Args args{};
    std::array<bool, 2> seen{};
    for (size_t i = 0; i < args.size(); ++i)
        args[i] = e.params[i].fallback;
    while (pos != std::string::npos) {
        const size_t comma = spec.find(',', pos);
        const std::string item = spec.substr(
            pos, comma == std::string::npos ? comma : comma - pos);
        pos = comma == std::string::npos ? comma : comma + 1;

        const size_t eq = item.find('=');
        if (eq == std::string::npos)
            fatal("kernel spec '%s': bad parameter '%s' (want key=value)",
                  spec.c_str(), item.c_str());
        const std::string key = item.substr(0, eq);
        size_t i = 0;
        while (i < args.size() &&
               !(e.params[i].key && key == e.params[i].key))
            ++i;
        if (i == args.size())
            fatal("kernel spec '%s': unknown parameter '%s' for %s",
                  spec.c_str(), key.c_str(), e.name);
        if (seen[i])
            fatal("kernel spec '%s': parameter '%s' given twice",
                  spec.c_str(), key.c_str());
        seen[i] = true;
        args[i] = parseValue(spec, e.params[i], item.substr(eq + 1));
    }
    return args;
}

} // namespace

std::unique_ptr<Kernel>
createKernel(const std::string &spec)
{
    const size_t colon = spec.find(':');
    const std::string name = spec.substr(0, colon);

    if (name == "trace") {
        const std::string rest =
            colon == std::string::npos ? std::string()
                                       : spec.substr(colon + 1);
        if (rest.rfind("file=", 0) != 0 || rest.size() == 5)
            fatal("trace kernel spec must be 'trace:file=<path>', got "
                  "'%s'",
                  spec.c_str());
        return std::make_unique<trace::TraceKernel>(rest.substr(5));
    }

    for (const Entry &e : kKernels) {
        if (name != e.name)
            continue;
        const size_t pos =
            colon == std::string::npos ? colon : colon + 1;
        return e.make(parseArgs(e, spec, pos));
    }
    fatal("unknown kernel '%s'", name.c_str());
}

std::vector<std::string>
kernelNames()
{
    std::vector<std::string> names;
    for (const Entry &e : kKernels)
        names.push_back(e.name);
    return names;
}

std::vector<std::string>
kernelHelp()
{
    const auto line = [](std::string usage, const char *what) {
        usage.resize(std::max<size_t>(usage.size() + 2, 34), ' ');
        return usage + what;
    };
    std::vector<std::string> help;
    for (const Entry &e : kKernels) {
        std::string usage = e.name;
        char sep = ':';
        for (const Param &p : e.params) {
            if (p.key) {
                usage += sep + std::string(p.key) + "=" +
                         std::to_string(p.fallback);
                sep = ',';
            }
        }
        help.push_back(line(usage, e.what));
    }
    help.push_back(line("trace:file=<path>",
                        "replay a recorded access-stream trace"));
    return help;
}

} // namespace rfl::kernels
