/**
 * @file
 * The benchmark's workloads and the pieces they share.
 */

#ifndef REUSE_PERFBENCH_WORKLOADS_H
#define REUSE_PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/reuse_engine.h"
#include "harness/workload_setup.h"
#include "report.h"
#include "stream_check.h"

namespace perfbench {

struct RunOptions {
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    /** REUSE_KERNEL_THREADS this process runs with. */
    int kernelThreads = 0;
};

/** A model set up as a user process would: workload plus engine. */
struct ModelRun {
    std::unique_ptr<reuse::Workload> workload;
    std::unique_ptr<reuse::ReuseEngine> engine;
    /** Seconds spent in the harness set-up (build + calibrate). */
    double harnessSeconds = 0.0;
    /** Seconds spent compiling the plan and constructing the engine. */
    double engineSeconds = 0.0;
};

/**
 * Sets up `model` ("Kaldi", "AutoPilot" or "C3D") with the plan
 * cache emptied first, so every set-up compiles its plan.
 */
ModelRun setUpModel(const std::string &model);

/** Seconds to build `model`'s network and weights alone. */
double buildSeconds(const std::string &model);

/** Serve worker threads of every serving run. */
constexpr size_t kServeWorkers = 2;

/** Serving parameters of one kaldi_serve run (or the traced probe). */
struct ServePlan {
    size_t sessions = 256;
    double closedSeconds = 4.0;
    double pacedSeconds = 6.0;
};

/** What one serving run measured. */
struct ServeOutcome {
    double throughputFps = 0.0;
    double cpuUsPerFrame = 0.0;
    std::vector<double> warmLatencyUs;
    std::vector<double> coldLatencyUs;
    std::vector<double> latenessUs;
    std::vector<double> submitUs;
    /** Single-stream engine time of the same steady frames. */
    std::vector<double> serviceUs;
    uint64_t steals = 0;
    uint64_t queuePeak = 0;
    /** The program's peak memory, read before the isolation check. */
    double programPeakMb = 0.0;
    /** Session 0's frames, in order, for the per-layer replay. */
    std::vector<reuse::Tensor> firstSessionFrames;
};

/** Runs the closed-loop and paced phases and the isolation check. */
ServeOutcome runServe(const ModelRun &kaldi, const ServePlan &plan,
                      uint64_t seed, Report &report);

/** Per-layer metrics of one model from its traced checker. */
void reportLayers(Report &report, const std::string &model,
                  const StreamChecker &checker);

/** Runs a traced checker over `frames` of `model`'s default stream. */
std::unique_ptr<StreamChecker> probeModel(const ModelRun &run,
                                          size_t frames, uint64_t seed,
                                          Report &report);

/** Reports a StreamChecker's frame counts and first failure. */
void countChecked(Report &report, const StreamChecker &checker,
                  const std::string &what);

void runStreamWorkload(const RunOptions &options, Report &report);
void runServeWorkload(const RunOptions &options, Report &report);

/** Everything a traced run reports beyond its own model. */
void reportTracedRest(const RunOptions &options, const std::string &ownModel,
                      const ModelRun &own, const StreamChecker &ownChecker,
                      const ServeOutcome *ownServe, Report &report);

/** True for the names runStreamWorkload runs. */
bool isStreamWorkload(const std::string &name);

} // namespace perfbench

#endif // REUSE_PERFBENCH_WORKLOADS_H
