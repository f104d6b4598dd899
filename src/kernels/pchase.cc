#include "kernels/pchase.hh"

#include <numeric>
#include <vector>

namespace rfl::kernels
{

std::string
PointerChase::sizeLabel() const
{
    return "nodes=" + std::to_string(nodes_) +
           ",hops=" + std::to_string(hops_);
}

void
PointerChase::init(uint64_t seed)
{
    // Sattolo's algorithm: a single cycle covering all nodes, so a chase
    // of `nodes` hops touches every node exactly once.
    if (next_.empty())
        next_.reset(8 * nodes_);
    Rng rng(seed);
    std::vector<uint64_t> perm(nodes_);
    std::iota(perm.begin(), perm.end(), 0);
    for (size_t i = nodes_ - 1; i > 0; --i) {
        const size_t j = rng.nextBounded(i);
        std::swap(perm[i], perm[j]);
    }
    for (size_t i = 0; i < nodes_; ++i)
        next_[8 * perm[i]] = perm[(i + 1) % nodes_];
    lastVisited_ = 0;
}

} // namespace rfl::kernels
