#include "kernels/sum.hh"

namespace rfl::kernels
{

std::string
SumReduction::sizeLabel() const
{
    return "n=" + std::to_string(n_);
}

void
SumReduction::init(uint64_t seed)
{
    if (x_.empty())
        x_.reset(n_);
    Rng rng(seed);
    result_.reset();
    for (size_t i = 0; i < n_; ++i)
        x_[i] = rng.nextDouble(-1.0, 1.0);
}

} // namespace rfl::kernels
