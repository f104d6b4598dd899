#include "kernels/dgemv.hh"

namespace rfl::kernels
{

std::string
Dgemv::sizeLabel() const
{
    return "m=" + std::to_string(m_) + ",n=" + std::to_string(n_);
}

void
Dgemv::init(uint64_t seed)
{
    if (a_.empty()) {
        a_.reset(m_ * n_);
        x_.reset(n_);
        y_.reset(m_);
    }
    Rng rng(seed);
    for (size_t i = 0; i < m_ * n_; ++i)
        a_[i] = rng.nextDouble(-1.0, 1.0);
    for (size_t i = 0; i < n_; ++i)
        x_[i] = rng.nextDouble(-1.0, 1.0);
    for (size_t i = 0; i < m_; ++i)
        y_[i] = rng.nextDouble(-1.0, 1.0);
}

double
Dgemv::checksum() const
{
    double s = 0.0;
    for (size_t i = 0; i < m_; ++i)
        s += y_[i];
    return s;
}

} // namespace rfl::kernels
