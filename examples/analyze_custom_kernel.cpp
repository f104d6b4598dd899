/**
 * @file
 * Example: bring your own kernel.
 *
 * The scenario the tool exists for: you wrote a kernel, you want to know
 * whether it is memory bound, how far from the roof it sits, and what
 * optimization could pay off. This example defines a kernel the library
 * does not ship — complex magnitude with a fused normalization,
 *     out[i] = sqrt(re[i]^2 + im[i]^2) * inv_norm
 * — implements the Kernel interface including its analytic W/Q models,
 * and runs the full methodology on it.
 */

#include <cstdio>
#include <iostream>

#include "kernels/kernel.hh"
#include "roofline/experiment.hh"
#include "support/aligned_buffer.hh"
#include "support/units.hh"

namespace
{

using namespace rfl;

/** out[i] = |z[i]| * inv_norm for interleaved complex input. */
class ComplexMagnitude : public kernels::Kernel
{
  public:
    /** Records n only; operands are allocated by the first init(). */
    explicit ComplexMagnitude(size_t n) : n_(n) {}

    std::string name() const override { return "cmagnitude"; }
    std::string
    sizeLabel() const override
    {
        return "n=" + std::to_string(n_);
    }
    size_t workingSetBytes() const override { return 24 * n_; }

    /**
     * Per element: 2 muls (squares), 1 add, 1 sqrt-as-division stand-in
     * (modeled as one div), 1 scaling mul = 5 flops.
     */
    double expectedFlops() const override
    {
        return 5.0 * static_cast<double>(n_);
    }

    /** Read z (16n), write-allocate + write back out (16n). */
    double expectedColdTrafficBytes() const override
    {
        return 32.0 * static_cast<double>(n_);
    }

    void
    init(uint64_t seed) override
    {
        if (z_.empty()) {
            z_.reset(2 * n_);
            out_.reset(n_);
        }
        Rng rng(seed);
        for (size_t i = 0; i < 2 * n_; ++i)
            z_[i] = rng.nextDouble(-2.0, 2.0);
    }

    void
    run(kernels::NativeEngine &e, int part, int nparts) override
    {
        runT(e, part, nparts);
    }

    void
    run(kernels::SimEngine &e, int part, int nparts) override
    {
        runT(e, part, nparts);
    }

    double
    checksum() const override
    {
        double s = 0;
        for (size_t i = 0; i < n_; ++i)
            s += out_[i];
        return s;
    }

  private:
    template <typename E>
    void
    runT(E &e, int part, int nparts)
    {
        const auto [lo, hi] = kernels::partitionRange(n_, part, nparts);
        const double inv_norm = 0.5;
        for (size_t i = lo; i < hi; ++i) {
            const double re = e.load(z_.data() + 2 * i);
            const double im = e.load(z_.data() + 2 * i + 1);
            const double re2 = e.mul(re, re);
            const double mag2 = e.fmadd(im, im, re2);
            // Model sqrt via one divide (same port, similar cost class).
            const double mag = e.div(mag2, 1.0 + mag2);
            e.store(out_.data() + i, e.mul(mag, inv_norm));
        }
        e.loop(hi - lo, 2);
    }

    size_t n_;
    AlignedBuffer<double> z_;
    AlignedBuffer<double> out_;
};

} // namespace

int
main()
{
    using namespace rfl;
    using namespace rfl::roofline;

    Experiment exp;
    const std::vector<int> cores = singleThreadCores(exp.machine());
    const RooflineModel &model = exp.modelFor(cores);

    ComplexMagnitude kernel(1 << 20);

    MeasureOptions opts;
    opts.cores = cores;
    const Measurement m = exp.measurer().measure(kernel, opts);

    std::printf("kernel %s %s\n", m.kernel.c_str(), m.sizeLabel.c_str());
    std::printf("  W measured %s (model %s, err %.2f%%)\n",
                formatFlops(m.flops).c_str(),
                formatFlops(m.expectedFlops).c_str(),
                100.0 * m.workError());
    std::printf("  Q measured %s (model %s, err %.2f%%)\n",
                formatBytes(m.trafficBytes).c_str(),
                formatBytes(m.expectedTrafficBytes).c_str(),
                100.0 * m.trafficError());
    std::printf("  I = %.4f flops/byte, P = %s\n", m.oi(),
                formatFlopRate(m.perf()).c_str());

    const double att = model.attainable(m.oi());
    std::printf("  roof at I: %s -> runtime compute %.1f%%\n",
                formatFlopRate(att).c_str(), 100.0 * m.perf() / att);
    std::printf("  ridge point: %.2f flops/byte -> this kernel is %s\n",
                model.ridgePoint(),
                m.oi() < model.ridgePoint() ? "MEMORY bound"
                                            : "COMPUTE bound");
    std::printf("  => vectorizing further cannot help below the roof; "
                "raising I (fusing passes, NT stores) can.\n\n");

    RooflinePlot plot("custom kernel analysis", model);
    plot.addMeasurement(m);
    std::cout << plot.renderAscii();
    return 0;
}
