/**
 * @file
 * Output checks and per-layer accounting for one input stream.
 *
 * Each checked frame runs through the engine and through a PlanReplay
 * of the same plan, and must pass:
 *  - replay output == engine output, bit for bit;
 *  - every reuse layer's changed-input count, recounted here from the
 *    plan's quantizer parameters, equals the engine trace, and for FC
 *    layers macsPerformed == changed x outputs;
 *  - Eq. 10: the reuse layer's output matches a cold (fresh-state)
 *    execution of the same input within the DriftGuard bound taken
 *    per output: the largest error must stay within FLT_EPSILON x (the
 *    most additions any output received since the layer's last
 *    from-scratch execution) x the layer's largest |output|;
 *  - on sampled frames, every step matches the double-precision
 *    reference of reference.h.
 * With kernel timing on, the scan / apply / gemv kernels are also run
 * on copies of the step's data, timed, and must reproduce the step.
 */

#ifndef REUSE_PERFBENCH_STREAM_CHECK_H
#define REUSE_PERFBENCH_STREAM_CHECK_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "replay.h"

namespace perfbench {

/** Traced-run accumulators of one plan step. */
struct LayerLedger {
    std::string name;
    /** FC or convolution: the layers the per-layer metrics cover. */
    bool weighted = false;
    std::vector<double> steadyUs;
    std::vector<double> scratchUs;
    double macsSum = 0.0;
    double weightBytesSum = 0.0;
    int64_t steadyFrames = 0;
};

/** Traced-run kernel timings, summed over the stream. */
struct KernelLedger {
    double scanNs = 0.0, scanInputs = 0.0;
    double fcApplyNs = 0.0, fcApplyMacs = 0.0;
    double convApplyNs = 0.0, convApplyMacs = 0.0;
    double gemvNs = 0.0, gemvMacs = 0.0;
};

class StreamChecker
{
  public:
    /**
     * `traced`: also time every step, the from-scratch paths and the
     * kernels (the per-layer metrics).
     */
    StreamChecker(const reuse::ReuseEngine &engine, bool traced);

    /**
     * Checks the stream's next frame.  Runs the engine on its own
     * state and the replay on its own; `reference` adds the
     * double-precision comparison.  Returns false when a check
     * failed (see firstFailure()).  `engineOut` receives the
     * engine's output.
     */
    bool frame(const reuse::Tensor &input, bool reference,
               reuse::Tensor *engineOut = nullptr);

    /**
     * Starts a new input stream: every state the checker keeps is
     * dropped, so the next frame runs cold.
     */
    void newStream();

    /**
     * Runs the stream's next frame through the engine alone (no
     * checks), keeping the checker's engine stream in step; the rest
     * of this stream can then only be run this way.
     */
    reuse::Tensor engineOnly(const reuse::Tensor &input);

    /** Frames checked / failed so far. */
    int64_t framesChecked() const { return checked_; }
    int64_t framesFailed() const { return failed_; }
    const std::string &firstFailure() const { return first_failure_; }

    /** Largest Eq.-10 error seen, as a share of its bound. */
    double worstBoundShare() const { return worst_bound_share_; }
    /** Largest reference error seen (relative). */
    double worstReferenceError() const { return worst_reference_; }

    const std::vector<LayerLedger> &layers() const { return layers_; }
    const KernelLedger &kernels() const { return kernels_; }
    /** Traced: engine frame time minus the replayed steps, per frame. */
    const std::vector<double> &otherUs() const { return other_us_; }
    /** Traced: engine frame times and the replay's summed step times. */
    const std::vector<double> &engineFrameUs() const { return engine_us_; }
    const std::vector<double> &replayFrameUs() const { return replay_us_; }

  private:
    struct ReuseTrack {
        bool warm = false;
        std::vector<int32_t> prevIdx;
        std::vector<int32_t> changed;
        /** Additions into each output (FC: one shared counter). */
        int64_t baseAdds = 0;
        std::vector<int64_t> adds;
        reuse::Tensor prevPre;
    };

    void observe(const StepView &view, bool reference, bool steady);
    void recount(const StepView &view, ReuseTrack &t);
    void countAdds(const StepView &view, ReuseTrack &t);
    double weightBytes(const StepView &view, const ReuseTrack &t) const;
    void coldCheck(const StepView &view, const ReuseTrack &t);
    void timeKernels(const StepView &view, ReuseTrack &t,
                     const std::vector<int32_t> &oldIdx);
    void fail(const std::string &why);

    const reuse::ReuseEngine &engine_;
    bool traced_;
    std::unique_ptr<PlanReplay> replay_;
    reuse::ReuseState engine_state_;
    /** Traced: a second engine stream, timed after the replay. */
    reuse::ReuseState second_state_;
    reuse::ExecutionTrace trace_;
    std::vector<ReuseTrack> tracks_;
    std::vector<LayerLedger> layers_;
    KernelLedger kernels_;
    std::vector<double> other_us_, engine_us_, replay_us_;
    int64_t checked_ = 0, failed_ = 0;
    /** Frames of the current stream so far. */
    int64_t stream_frames_ = 0;
    /** engineOnly() ran: the replay no longer follows the stream. */
    bool replay_behind_ = false;
    bool frame_failed_ = false;
    std::string first_failure_;
    double worst_bound_share_ = 0.0;
    double worst_reference_ = 0.0;
    double step_sum_us_ = 0.0;
};

/** Relative tolerance of the double-precision reference comparison. */
constexpr double kReferenceTolerance = 1e-3;

} // namespace perfbench

#endif // REUSE_PERFBENCH_STREAM_CHECK_H
