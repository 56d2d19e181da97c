#include "replay.h"

#include "nn/activations.h"
#include "report.h"

namespace perfbench {

using namespace reuse;

bool
isReuseStep(const ir::PlanStep &step)
{
    return step.mode == ir::ExecMode::FcReuse ||
           step.mode == ir::ExecMode::ConvReuse;
}

std::unique_ptr<FcReuseState>
makeFcState(const ir::PlanStep &step)
{
    return std::make_unique<FcReuseState>(
        static_cast<const FullyConnectedLayer &>(*step.layer),
        *step.quant.input, step.clusterRadius);
}

std::unique_ptr<ConvReuseState>
makeConvState(const ir::PlanStep &step)
{
    if (step.layer->kind() == LayerKind::Conv2D)
        return std::make_unique<ConvReuseState>(
            static_cast<const Conv2DLayer &>(*step.layer), step.inShape,
            *step.quant.input, step.clusterRadius);
    return std::make_unique<ConvReuseState>(
        static_cast<const Conv3DLayer &>(*step.layer), step.inShape,
        *step.quant.input, step.clusterRadius);
}

PlanReplay::PlanReplay(const ReuseEngine &engine) : engine_(engine)
{
    const auto &plan = steps();
    fc_.resize(plan.size());
    conv_.resize(plan.size());
    for (size_t p = 0; p < plan.size(); ++p) {
        if (plan[p].mode == ir::ExecMode::FcReuse)
            fc_[p] = makeFcState(plan[p]);
        else if (plan[p].mode == ir::ExecMode::ConvReuse)
            conv_[p] = makeConvState(plan[p]);
    }
}

Tensor
PlanReplay::run(const Tensor &input,
                const std::function<void(const StepView &)> &observe)
{
    const auto &plan = steps();
    Tensor current = input;
    for (size_t p = 0; p < plan.size(); ++p) {
        const ir::PlanStep &step = plan[p];
        LayerExecRecord rec;
        rec.layerIndex = step.layerIndex;
        const auto t0 = Clock::now();
        Tensor out;
        if (fc_[p] != nullptr)
            out = fc_[p]->execute(current, rec);
        else if (conv_[p] != nullptr)
            out = conv_[p]->execute(current, rec);
        else
            out = step.layer->forward(current);
        const auto t1 = Clock::now();
        double us = microsBetween(t0, t1);
        Tensor pre;
        if (step.fusedActivation != nullptr) {
            pre = out;
            const auto t2 = Clock::now();
            applyActivation(static_cast<const ActivationLayer &>(
                                *step.fusedActivation)
                                .activation(),
                            out);
            us += microsBetween(t2, Clock::now());
        }
        StepView view;
        view.position = p;
        view.step = &step;
        view.input = &current;
        view.preActivation = step.fusedActivation != nullptr ? &pre : &out;
        view.output = &out;
        view.record = &rec;
        view.us = us;
        observe(view);
        current = std::move(out);
    }
    return current;
}

} // namespace perfbench
