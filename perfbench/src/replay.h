/**
 * @file
 * Replays frames through a ReuseEngine's compiled plan one step at a
 * time, from outside the engine: each step runs through the same
 * public entry points the engine uses (FcReuseState / ConvReuseState
 * execute, Layer::forward, applyActivation) on the replay's own
 * state, and is timed around the call.
 */

#ifndef REUSE_PERFBENCH_REPLAY_H
#define REUSE_PERFBENCH_REPLAY_H

#include <functional>
#include <memory>
#include <vector>

#include "core/conv_reuse.h"
#include "core/fc_reuse.h"
#include "core/reuse_engine.h"

namespace perfbench {

/** What one plan step did during a replayed frame. */
struct StepView {
    /** Position of the step in the plan. */
    size_t position = 0;
    const reuse::ir::PlanStep *step = nullptr;
    const reuse::Tensor *input = nullptr;
    /** The layer's output before its fused activation. */
    const reuse::Tensor *preActivation = nullptr;
    /** The step's output (fused activation applied). */
    const reuse::Tensor *output = nullptr;
    const reuse::LayerExecRecord *record = nullptr;
    /** Wall time of the step, fused activation included. */
    double us = 0.0;
};

/** True for the plan steps that carry reuse state. */
bool isReuseStep(const reuse::ir::PlanStep &step);

/** A reuse state for `step` as the engine would build it. */
std::unique_ptr<reuse::FcReuseState> makeFcState(const reuse::ir::PlanStep &step);
std::unique_ptr<reuse::ConvReuseState>
makeConvState(const reuse::ir::PlanStep &step);

class PlanReplay
{
  public:
    explicit PlanReplay(const reuse::ReuseEngine &engine);

    const std::vector<reuse::ir::PlanStep> &steps() const
    {
        return engine_.compiledPlan().steps();
    }

    /**
     * Runs one frame of the replay's stream.  `observe` is called
     * after every step, outside the step's timed region.
     */
    reuse::Tensor run(const reuse::Tensor &input,
                      const std::function<void(const StepView &)> &observe);

  private:
    const reuse::ReuseEngine &engine_;
    std::vector<std::unique_ptr<reuse::FcReuseState>> fc_;
    std::vector<std::unique_ptr<reuse::ConvReuseState>> conv_;
};

} // namespace perfbench

#endif // REUSE_PERFBENCH_REPLAY_H
