/**
 * @file
 * dot: s = sum x[i]*y[i] — read-only streaming kernel.
 *
 * Analytic models:
 *   W = 2n flops
 *   Q_cold = 16n bytes (read x, read y; no writes reach DRAM)
 *   I_cold = 1/8 flops/byte
 */

#ifndef RFL_KERNELS_DOT_HH
#define RFL_KERNELS_DOT_HH

#include "kernels/kernel.hh"
#include "support/aligned_buffer.hh"

namespace rfl::kernels
{

/** See file comment. */
class Dot : public EngineKernel<Dot>
{
  public:
    explicit Dot(size_t n) : n_(n) { RFL_ASSERT(n > 0); }

    std::string name() const override { return "dot"; }
    std::string sizeLabel() const override;
    size_t workingSetBytes() const override { return 16 * n_; }
    double expectedFlops() const override
    {
        // n fmadds in the main loop; the horizontal reduction and the
        // cross-partition combine add O(lanes + nparts) which we fold
        // into the model's n-dominated term.
        return 2.0 * static_cast<double>(n_);
    }
    double expectedColdTrafficBytes() const override
    {
        return 16.0 * static_cast<double>(n_);
    }
    void init(uint64_t seed) override;
    double checksum() const override { return result_.total(); }

  private:
    friend EngineKernel;

    template <typename E>
    void
    runT(E &e, int part, int nparts)
    {
        const auto [lo, hi] = partitionRange(n_, part, nparts);
        const double *x = x_.data();
        const double *y = y_.data();
        const int w = e.lanes();
        double acc = 0.0;
        size_t i = lo;
        if (w > 1) {
            Vec vacc = e.vbroadcast(0.0);
            for (; i + static_cast<size_t>(w) <= hi;
                 i += static_cast<size_t>(w)) {
                const Vec vx = e.vload(x + i);
                const Vec vy = e.vload(y + i);
                vacc = e.vfmadd(vx, vy, vacc);
            }
            acc = e.vreduce(vacc);
        }
        for (; i < hi; ++i) {
            const double xi = e.load(x + i);
            const double yi = e.load(y + i);
            acc = e.fmadd(xi, yi, acc);
        }
        e.loop((hi - lo + static_cast<size_t>(w) - 1) /
               static_cast<size_t>(w));
        result_.add(part, nparts, acc);
    }

    size_t n_;
    PartialSums result_;
    AlignedBuffer<double> x_;
    AlignedBuffer<double> y_;
};

} // namespace rfl::kernels

#endif // RFL_KERNELS_DOT_HH
