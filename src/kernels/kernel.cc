#include "kernels/kernel.hh"

#include "support/logging.hh"

namespace rfl::kernels
{

std::pair<size_t, size_t>
partitionRange(size_t n, int part, int nparts, size_t align)
{
    RFL_ASSERT(nparts >= 1);
    RFL_ASSERT(part >= 0 && part < nparts);
    RFL_ASSERT(align >= 1);
    const size_t chunks = (n + align - 1) / align;
    const size_t per = chunks / static_cast<size_t>(nparts);
    const size_t extra = chunks % static_cast<size_t>(nparts);
    const auto p = static_cast<size_t>(part);
    const size_t lo_chunk = p * per + std::min(p, extra);
    const size_t hi_chunk = lo_chunk + per + (p < extra ? 1 : 0);
    const size_t lo = std::min(lo_chunk * align, n);
    const size_t hi = std::min(hi_chunk * align, n);
    return {lo, hi};
}

void
PartialSums::add(int part, int nparts, double partial)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (reported_ == 0)
        parts_.assign(static_cast<size_t>(nparts), 0.0);
    RFL_ASSERT(static_cast<int>(parts_.size()) == nparts);
    parts_[static_cast<size_t>(part)] = partial;
    if (++reported_ < nparts)
        return;
    for (double p : parts_)
        total_ += p;
    reported_ = 0;
}

double
Kernel::expectedWarmTrafficBytes(uint64_t llc_bytes) const
{
    if (workingSetBytes() <= llc_bytes)
        return 0.0;
    return expectedColdTrafficBytes();
}

} // namespace rfl::kernels
