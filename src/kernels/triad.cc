#include "kernels/triad.hh"

namespace rfl::kernels
{

std::string
Triad::sizeLabel() const
{
    return "n=" + std::to_string(n_);
}

void
Triad::init(uint64_t seed)
{
    if (a_.empty()) {
        a_.reset(n_);
        b_.reset(n_);
        c_.reset(n_);
    }
    Rng rng(seed);
    s_ = rng.nextDouble(0.5, 2.0);
    for (size_t i = 0; i < n_; ++i) {
        a_[i] = 0.0;
        b_[i] = rng.nextDouble(-1.0, 1.0);
        c_[i] = rng.nextDouble(-1.0, 1.0);
    }
}

double
Triad::checksum() const
{
    double s = 0.0;
    for (size_t i = 0; i < n_; ++i)
        s += a_[i];
    return s;
}

} // namespace rfl::kernels
