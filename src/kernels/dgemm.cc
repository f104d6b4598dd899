#include "kernels/dgemm.hh"

#include <cmath>
#include <limits>

namespace rfl::kernels
{

std::string
DgemmBase::sizeLabel() const
{
    return "n=" + std::to_string(n_);
}

void
DgemmBase::init(uint64_t seed)
{
    if (a_.empty()) {
        a_.reset(n_ * n_);
        b_.reset(n_ * n_);
        c_.reset(n_ * n_);
    }
    Rng rng(seed);
    for (size_t i = 0; i < n_ * n_; ++i) {
        a_[i] = rng.nextDouble(-1.0, 1.0);
        b_[i] = rng.nextDouble(-1.0, 1.0);
        c_[i] = 0.0;
    }
}

double
DgemmBase::checksum() const
{
    double s = 0.0;
    for (size_t i = 0; i < n_ * n_; ++i)
        s += c_[i];
    return s;
}

double
DgemmNaive::expectedColdTrafficBytes() const
{
    const double n = static_cast<double>(n_);
    if (fitsLlc())
        return 32.0 * n * n; // compulsory: A + B reads, C alloc + wb
    // Column-walking B thrashes; no useful closed form.
    return std::numeric_limits<double>::quiet_NaN();
}

DgemmBlocked::DgemmBlocked(size_t n, size_t block) : EngineKernel(n)
{
    if (block == 0) {
        // Three b x b double tiles should fit in a 32 KiB L1.
        block = 32;
    }
    block_ = std::min(block, n);
}

double
DgemmBlocked::expectedColdTrafficBytes() const
{
    const double n = static_cast<double>(n_);
    const double compulsory = 32.0 * n * n;
    if (fitsLlc())
        return compulsory;
    // Each of the (n/b)^3 tile multiplications streams an A and a B tile
    // (C tiles are reused across the kk loop through the cache):
    // ~2 * 8 b^2 bytes per tile-multiply = 16 n^3 / b total.
    const double b = static_cast<double>(block_);
    return 16.0 * n * n * n / b + compulsory;
}

double
DgemmRegBlocked::expectedColdTrafficBytes() const
{
    const double n = static_cast<double>(n_);
    if (fitsLlc())
        return 32.0 * n * n;
    // A and B are re-streamed once per column tile when the working set
    // exceeds the LLC; no tight closed form — leave it to measurement.
    return std::numeric_limits<double>::quiet_NaN();
}

} // namespace rfl::kernels
