/**
 * @file
 * roofline_tool — the command-line front end to the whole methodology.
 *
 * Measures any registered kernel under any scenario and prints the
 * roofline. This is the "program to benchmark computing platforms and
 * evaluate kernels" the paper describes, as a single binary:
 *
 *   roofline_tool                               # default demo
 *   roofline_tool --kernel daxpy:n=1048576 --cores 4 --protocol warm
 *   roofline_tool --kernel dgemm-opt:n=256 --lanes 2 --no-fma
 *   roofline_tool --list                        # kernel catalog
 *   roofline_tool --no-prefetch --kernel stencil3:n=1048576
 *   roofline_tool --native --kernel fft:n=524288  # on the host CPU
 */

#include <cstdio>
#include <iostream>
#include <optional>
#include <thread>

#include "kernels/registry.hh"
#include "roofline/experiment.hh"
#include "roofline/native_measurement.hh"
#include "sim/config_io.hh"
#include "support/cli.hh"
#include "support/units.hh"

int
main(int argc, char **argv)
{
    using namespace rfl;
    using namespace rfl::roofline;

    Cli cli;
    cli.addOption("kernel", "kernel spec, e.g. daxpy:n=65536",
                  "daxpy:n=1048576");
    cli.addOption("cores", "number of cores (host threads with --native)",
                  "1");
    cli.addOption("protocol", "cold or warm caches", "cold");
    cli.addOption("lanes",
                  "vector width in doubles (0 = machine max; 4 on the host)",
                  "0");
    cli.addOption("reps", "measurement repetitions", "2");
    cli.addOption("seed", "workload initialization seed", "42");
    cli.addOption("no-fma", "disable fused multiply-add");
    cli.addOption("no-prefetch", "disable the hardware prefetchers");
    cli.addOption("list", "list available kernels and exit");
    cli.addOption("machine", "machine config file (see sim/config_io.hh)");
    cli.addOption("native", "run on the host CPU instead of the simulator");
    cli.addOption("plot-name", "gnuplot artifact stem", "roofline_tool");
    cli.parse(argc, argv);

    if (cli.has("list")) {
        std::printf("available kernels:\n");
        for (const std::string &line : kernels::kernelHelp())
            std::printf("  %s\n", line.c_str());
        return 0;
    }

    // The simulated machine, or the host with --native, bounds --cores.
    std::optional<Experiment> exp;
    int max_cores = static_cast<int>(std::thread::hardware_concurrency());
    if (!cli.has("native")) {
        exp.emplace(cli.has("machine")
                        ? sim::loadMachineConfig(cli.get("machine"))
                        : sim::MachineConfig::defaultPlatform());
        exp->machine().setPrefetchEnabled(!cli.has("no-prefetch"));
        max_cores = exp->machine().numCores();
    }
    const long n_cores = cli.getInt("cores", 1);
    if (n_cores < 1 || n_cores > max_cores)
        fatal("--cores must be in [1, %d]", max_cores);

    MeasureOptions opts;
    opts.cores.clear();
    for (int c = 0; c < n_cores; ++c)
        opts.cores.push_back(c);
    const std::string protocol = cli.get("protocol", "cold");
    if (protocol == "warm")
        opts.protocol = CacheProtocol::Warm;
    else if (protocol != "cold")
        fatal("--protocol must be 'cold' or 'warm'");
    opts.lanes = static_cast<int>(cli.getInt("lanes", 0));
    opts.useFma = !cli.has("no-fma");
    opts.repetitions = static_cast<int>(cli.getInt("reps", 2));
    opts.seed = static_cast<uint64_t>(cli.getInt("seed", 42));
    const std::string spec = cli.get("kernel", "daxpy:n=1048576");

    if (cli.has("native")) {
        NativeMeasurer nm;
        const std::unique_ptr<kernels::Kernel> kernel =
            kernels::createKernel(spec);
        const NativeMeasurement r = nm.measure(*kernel, opts);
        std::printf("native host run (perf counters %s, LLC %s)\n",
                    nm.perfAvailable() ? "live" : "unavailable",
                    formatBytes(static_cast<double>(hostLlcBytes()))
                        .c_str());
        std::printf("  W = %s (software counters, err vs model %.3f%%)\n",
                    formatFlops(r.base.flops).c_str(),
                    100 * r.base.workError());
        std::printf("  T = %s +/- %s\n",
                    formatSeconds(r.base.seconds).c_str(),
                    formatSeconds(r.base.secondsSample.ci95()).c_str());
        std::printf("  P = %s, Q = %s (%s), I = %.4f\n",
                    formatFlopRate(r.base.perf()).c_str(),
                    formatBytes(r.base.trafficBytes).c_str(),
                    r.trafficSource.c_str(), r.base.oi());
        if (r.perfLive) {
            std::printf("  perf: %llu cycles, LLC-miss traffic %s\n",
                        static_cast<unsigned long long>(r.perfCycles),
                        formatBytes(r.perfLlcBytes).c_str());
        }
        return 0;
    }

    sim::Machine &machine = exp->machine();
    const Measurement m = exp->measureSpec(spec, opts);

    const RooflineModel &model = exp->modelFor(opts.cores);
    std::printf("platform %s, %s, prefetch %s\n",
                machine.config().name.c_str(),
                scenarioName(machine, opts.cores).c_str(),
                machine.prefetchEnabled() ? "on" : "off");
    std::printf("kernel   %s %s (%s caches, %d lanes%s)\n",
                m.kernel.c_str(), m.sizeLabel.c_str(),
                m.protocol.c_str(), m.lanes,
                opts.useFma ? "" : ", no FMA");
    std::printf("  W = %s   (model %s, err %.3f%%)\n",
                formatFlops(m.flops).c_str(),
                formatFlops(m.expectedFlops).c_str(),
                100 * m.workError());
    std::printf("  Q = %s   (model %s)\n",
                formatBytes(m.trafficBytes).c_str(),
                std::isnan(m.expectedTrafficBytes)
                    ? "n/a"
                    : formatBytes(m.expectedTrafficBytes).c_str());
    std::printf("  T = %s   +/- %s over %zu reps\n",
                formatSeconds(m.seconds).c_str(),
                formatSeconds(m.secondsSample.ci95()).c_str(),
                m.secondsSample.count());
    std::printf("  I = %.4f flops/byte, P = %s\n\n", m.oi(),
                formatFlopRate(m.perf()).c_str());

    RooflinePlot plot(spec + " | " + scenarioName(machine, opts.cores),
                      model);
    plot.addMeasurement(m);
    std::cout << plot.renderAscii();
    plot.pointTable().print(std::cout);

    const std::string gp =
        plot.writeGnuplot(outputDirectory(), cli.get("plot-name",
                                                     "roofline_tool"));
    std::printf("\nwrote %s\n", gp.c_str());
    return 0;
}
