/**
 * @file
 * perfbench_engine --workload NAME --seed N --seconds S --trace 0|1
 *
 * Runs one workload of the engine benchmark and prints, as the last
 * line of standard output, {"correct", "attempted", "failed",
 * "metrics"}: the end-to-end metrics untraced (--trace 0), the
 * per-layer metrics from a traced replay (--trace 1).
 */

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "kernels/cpu_features.h"
#include "kernels/dispatch.h"
#include "workloads.h"

namespace {

int
usage(const std::string &why)
{
    std::cerr << "perfbench_engine: " << why << "\n"
              << "usage: perfbench_engine --workload NAME --seed N "
                 "--seconds S --trace 0|1\n";
    return 2;
}

/**
 * Fixes the process's threads within nproc and clears every knob
 * that would change what the program computes or how it is timed.
 */
int
pinEnvironment(const std::string &workload)
{
    for (const char *knob :
         {"REUSE_KERNELS", "REUSE_KERNEL_PAR_THRESHOLD", "REUSE_CLUSTER_RADIUS",
          "REUSE_TRACE_SAMPLE", "REUSE_EXEMPLARS"})
        unsetenv(knob);
    const int hw = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
    // Busy threads stay below nproc: on a shared virtual machine a
    // process that keeps every vCPU busy draws hypervisor steal, and
    // its timings spread with it.  kaldi_serve runs 2 serve workers
    // and the client thread, with the kernels inline; the stream
    // workloads run the caller and one kernel worker.
    const int threads = workload == "kaldi_serve" ? 0 : std::min(1, hw - 1);
    setenv("REUSE_KERNEL_THREADS", std::to_string(threads).c_str(), 1);
    return threads;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::RunOptions options;
    bool have[4] = {false, false, false, false};
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage("missing value for " + arg);
        const std::string value = argv[++i];
        try {
            if (arg == "--workload") {
                options.workload = value;
                have[0] = true;
            } else if (arg == "--seed") {
                if (value.empty() || value[0] == '-')
                    return usage("--seed takes a whole number >= 0");
                options.seed = std::stoull(value);
                have[1] = true;
            } else if (arg == "--seconds") {
                options.seconds = std::stod(value);
                have[2] = options.seconds > 0.0 && options.seconds <= 600.0;
            } else if (arg == "--trace") {
                if (value != "0" && value != "1")
                    return usage("--trace takes 0 or 1");
                options.trace = value == "1";
                have[3] = true;
            } else {
                return usage("unknown argument " + arg);
            }
        } catch (const std::exception &) {
            return usage("bad value for " + arg + ": " + value);
        }
    }
    if (!(have[0] && have[1] && have[2] && have[3]))
        return usage("all four arguments are required");
    if (options.workload != "kaldi_serve" &&
        !perfbench::isStreamWorkload(options.workload))
        return usage("unknown workload " + options.workload);

    options.kernelThreads = pinEnvironment(options.workload);
    perfbench::Report report;
    report.note(std::string("host: nproc ") +
                std::to_string(std::thread::hardware_concurrency()) +
                ", kernel dispatch " +
                reuse::kernels::archName(reuse::kernels::defaultDispatch().arch) +
                ", seed " + std::to_string(options.seed));
    if (options.workload == "kaldi_serve")
        perfbench::runServeWorkload(options, report);
    else
        perfbench::runStreamWorkload(options, report);
    std::cout << report.json() << std::endl;
    return 0;
}
