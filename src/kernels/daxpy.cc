#include "kernels/daxpy.hh"

namespace rfl::kernels
{

std::string
Daxpy::sizeLabel() const
{
    return "n=" + std::to_string(n_);
}

void
Daxpy::init(uint64_t seed)
{
    if (x_.empty()) {
        x_.reset(n_);
        y_.reset(n_);
    }
    Rng rng(seed);
    a_ = rng.nextDouble(0.5, 2.0);
    for (size_t i = 0; i < n_; ++i) {
        x_[i] = rng.nextDouble(-1.0, 1.0);
        y_[i] = rng.nextDouble(-1.0, 1.0);
    }
}

double
Daxpy::checksum() const
{
    double s = 0.0;
    for (size_t i = 0; i < n_; ++i)
        s += y_[i];
    return s;
}

} // namespace rfl::kernels
