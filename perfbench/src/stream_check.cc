#include "stream_check.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <sstream>

#include "kernels/change_list.h"
#include "kernels/delta_kernels.h"
#include "nn/activations.h"
#include "reference.h"
#include "report.h"

namespace perfbench {

using namespace reuse;

namespace {

bool
bitEqual(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data().data(), b.data().data(),
                       static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

double
maxAbs(const Tensor &t)
{
    double m = 0.0;
    for (int64_t i = 0; i < t.numel(); ++i)
        m = std::max(m, std::fabs(static_cast<double>(t[i])));
    return m;
}

/** Kernel extent raised to the layer's spatial rank. */
int64_t
kernelVolume(const Layer &layer)
{
    if (layer.kind() == LayerKind::Conv2D) {
        const int64_t k = static_cast<const Conv2DLayer &>(layer).kernel();
        return k * k;
    }
    const int64_t k = static_cast<const Conv3DLayer &>(layer).kernel();
    return k * k * k;
}

int64_t
inChannels(const Layer &layer)
{
    if (layer.kind() == LayerKind::Conv2D)
        return static_cast<const Conv2DLayer &>(layer).inChannels();
    return static_cast<const Conv3DLayer &>(layer).inChannels();
}

/**
 * Calls fn(offset, outputPosition) for every kernel offset through
 * which the input at flat index `i` reaches an output, where
 * outputPosition is the flat spatial index of that output.
 */
template <typename Fn>
void
forEachReach(const ir::PlanStep &step, int64_t i, Fn &&fn)
{
    const Shape &in = step.inShape;
    const Shape &out = step.outShape;
    if (step.layer->kind() == LayerKind::Conv2D) {
        const auto &c = static_cast<const Conv2DLayer &>(*step.layer);
        const int64_t h = in.dim(1), w = in.dim(2);
        const int64_t oh = out.dim(1), ow = out.dim(2);
        const int64_t k = c.kernel(), s = c.stride();
        const int64_t y = (i / w) % h, x = i % w;
        for (int64_t ky = 0; ky < k; ++ky) {
            const int64_t ry = y - ky;
            if (ry < 0 || ry % s != 0 || ry / s >= oh)
                continue;
            for (int64_t kx = 0; kx < k; ++kx) {
                const int64_t rx = x - kx;
                if (rx < 0 || rx % s != 0 || rx / s >= ow)
                    continue;
                fn(ky * k + kx, (ry / s) * ow + rx / s);
            }
        }
        return;
    }
    const auto &c = static_cast<const Conv3DLayer &>(*step.layer);
    const int64_t d = in.dim(1), h = in.dim(2), w = in.dim(3);
    const int64_t od = out.dim(1), oh = out.dim(2), ow = out.dim(3);
    const int64_t k = c.kernel(), pad = c.pad();
    const int64_t z = (i / (h * w)) % d, y = (i / w) % h, x = i % w;
    for (int64_t kd = 0; kd < k; ++kd) {
        const int64_t oz = z + pad - kd;
        if (oz < 0 || oz >= od)
            continue;
        for (int64_t ky = 0; ky < k; ++ky) {
            const int64_t oy = y + pad - ky;
            if (oy < 0 || oy >= oh)
                continue;
            for (int64_t kx = 0; kx < k; ++kx) {
                const int64_t ox = x + pad - kx;
                if (ox < 0 || ox >= ow)
                    continue;
                fn((kd * k + ky) * k + kx, (oz * oh + oy) * ow + ox);
            }
        }
    }
}

int64_t
spatialSize(const Shape &s)
{
    int64_t n = 1;
    for (size_t i = 1; i < s.rank(); ++i)
        n *= s.dim(i);
    return n;
}

} // namespace

StreamChecker::StreamChecker(const ReuseEngine &engine, bool traced)
    : engine_(engine),
      traced_(traced),
      replay_(std::make_unique<PlanReplay>(engine))
{
    newStream();
    const auto &plan = replay_->steps();
    layers_.resize(plan.size());
    for (size_t p = 0; p < plan.size(); ++p) {
        const LayerKind kind = plan[p].layer->kind();
        layers_[p].name = plan[p].layer->name();
        layers_[p].weighted = kind == LayerKind::FullyConnected ||
                              kind == LayerKind::Conv2D ||
                              kind == LayerKind::Conv3D;
    }
}

void
StreamChecker::newStream()
{
    replay_ = std::make_unique<PlanReplay>(engine_);
    engine_state_ = engine_.makeState();
    second_state_ = engine_.makeState();
    tracks_.assign(replay_->steps().size(), ReuseTrack{});
    stream_frames_ = 0;
    replay_behind_ = false;
}

void
StreamChecker::fail(const std::string &why)
{
    if (!frame_failed_ && first_failure_.empty())
        first_failure_ = "frame " + std::to_string(checked_ - 1) + ": " + why;
    frame_failed_ = true;
}

bool
StreamChecker::frame(const Tensor &input, bool reference, Tensor *engineOut)
{
    ++checked_;
    frame_failed_ = false;
    const bool steady = stream_frames_++ > 0;
    if (replay_behind_)
        fail("checked frame after an unchecked one in the same stream");

    Tensor expected = engine_.execute(engine_state_, input, trace_);
    step_sum_us_ = 0.0;
    const Tensor got = replay_->run(input, [&](const StepView &view) {
        observe(view, reference, steady);
    });
    if (!bitEqual(got, expected))
        fail("replayed plan output differs from the engine output");
    if (traced_) {
        // The replay ran right after the engine on the same frame, so
        // it met warm caches; time a second engine stream after it,
        // under the same conditions, to compare against.
        ExecutionTrace trace;
        const auto t0 = Clock::now();
        const Tensor again = engine_.execute(second_state_, input, trace);
        const double engine_us = microsBetween(t0, Clock::now());
        if (!bitEqual(again, expected))
            fail("a second engine stream differs from the first");
        if (steady) {
            engine_us_.push_back(engine_us);
            replay_us_.push_back(step_sum_us_);
            other_us_.push_back(engine_us - step_sum_us_);
        }
    }
    if (frame_failed_)
        ++failed_;
    if (engineOut != nullptr)
        *engineOut = std::move(expected);
    return !frame_failed_;
}

Tensor
StreamChecker::engineOnly(const Tensor &input)
{
    ++stream_frames_;
    replay_behind_ = true;
    return engine_.execute(engine_state_, input, trace_);
}

void
StreamChecker::observe(const StepView &view, bool reference, bool steady)
{
    const ir::PlanStep &step = *view.step;
    LayerLedger &ledger = layers_[view.position];
    const LayerExecRecord &rec = trace_[step.layerIndex];
    step_sum_us_ += view.us;
    double weight_bytes = 0.0;

    if (isReuseStep(step)) {
        ReuseTrack &t = tracks_[view.position];
        const bool was_warm = t.warm;
        std::vector<int32_t> old_idx;
        if (traced_ && was_warm)
            old_idx = t.prevIdx;
        recount(view, t);
        if (was_warm) {
            const auto changed = static_cast<int64_t>(t.changed.size());
            if (rec.firstExecution)
                fail(layers_[view.position].name +
                     ": warm layer executed from scratch");
            if (changed != rec.inputsChanged ||
                changed != view.record->inputsChanged) {
                std::ostringstream os;
                os << ledger.name << ": recounted " << changed
                   << " changed inputs, engine trace says "
                   << rec.inputsChanged << ", replay "
                   << view.record->inputsChanged;
                fail(os.str());
            }
            if (step.mode == ir::ExecMode::FcReuse &&
                rec.macsPerformed != changed * rec.outputsTotal)
                fail(ledger.name + ": macsPerformed != changed x outputs");
        } else if (!rec.firstExecution) {
            fail(ledger.name + ": cold layer did not run from scratch");
        }
        countAdds(view, t);
        if (was_warm)
            coldCheck(view, t);
        else if (traced_)
            ledger.scratchUs.push_back(view.us);
        if (traced_) {
            weight_bytes = weightBytes(view, t);
            if (was_warm)
                timeKernels(view, t, old_idx);
            t.prevPre = *view.preActivation;
        }
    } else if (traced_ && ledger.weighted) {
        ledger.scratchUs.push_back(view.us);
        weight_bytes = weightBytes(view, tracks_[view.position]);
        if (step.layer->kind() == LayerKind::FullyConnected) {
            const auto &fc =
                static_cast<const FullyConnectedLayer &>(*step.layer);
            Tensor out(Shape({fc.outputs()}));
            const auto g0 = Clock::now();
            kernels::gemv(view.input->data().data(), fc.inputs(),
                          fc.weights().data(), fc.biases().data(),
                          fc.outputs(), out.data().data());
            kernels_.gemvNs += nanosBetween(g0, Clock::now());
            kernels_.gemvMacs += static_cast<double>(fc.inputs() * fc.outputs());
            if (!bitEqual(out, *view.preActivation))
                fail(ledger.name + ": kernels::gemv differs from forward");
        }
    }

    if (traced_ && steady) {
        ledger.steadyUs.push_back(view.us);
        ledger.macsSum += static_cast<double>(rec.macsPerformed);
        ledger.weightBytesSum += weight_bytes;
        ++ledger.steadyFrames;
    }

    if (reference) {
        std::vector<double> ref;
        std::string why;
        if (!referenceStep(step, *view.input, ref, &why)) {
            fail(why);
        } else {
            const double err = relativeError(ref, *view.output);
            worst_reference_ = std::max(worst_reference_, err);
            if (!(err <= kReferenceTolerance)) {
                std::ostringstream os;
                os << ledger.name << ": differs from the double-precision "
                   << "reference by " << err << " (relative)";
                fail(os.str());
            }
        }
    }
}

void
StreamChecker::recount(const StepView &view, ReuseTrack &t)
{
    const ir::PlanStep &step = *view.step;
    if (step.clusterRadius != 0)
        fail(layers_[view.position].name +
             ": near-match reuse is not recounted by the benchmark");
    const kernels::QuantScanParams q = step.quant.input->scanParams();
    const float *x = view.input->data().data();
    const int64_t n = view.input->numel();
    t.changed.clear();
    if (!t.warm) {
        t.prevIdx.resize(static_cast<size_t>(n));
        for (int64_t i = 0; i < n; ++i)
            t.prevIdx[static_cast<size_t>(i)] = quantIndexOf(q, x[i]);
        t.warm = true;
        return;
    }
    for (int64_t i = 0; i < n; ++i) {
        const int32_t idx = quantIndexOf(q, x[i]);
        int32_t &prev = t.prevIdx[static_cast<size_t>(i)];
        if (idx != prev) {
            t.changed.push_back(static_cast<int32_t>(i));
            prev = idx;
        }
    }
}

void
StreamChecker::countAdds(const StepView &view, ReuseTrack &t)
{
    const ir::PlanStep &step = *view.step;
    const bool first = view.record->firstExecution;
    if (step.mode == ir::ExecMode::FcReuse) {
        // Every change updates every output of an FC layer.
        t.baseAdds = first ? view.input->numel()
                           : t.baseAdds +
                                 static_cast<int64_t>(t.changed.size());
        return;
    }
    if (first) {
        t.baseAdds = inChannels(*step.layer) * kernelVolume(*step.layer);
        t.adds.assign(static_cast<size_t>(spatialSize(step.outShape)), 0);
        return;
    }
    for (int32_t i : t.changed)
        forEachReach(step, i, [&](int64_t, int64_t pos) {
            ++t.adds[static_cast<size_t>(pos)];
        });
}

double
StreamChecker::weightBytes(const StepView &view, const ReuseTrack &t) const
{
    const ir::PlanStep &step = *view.step;
    const Layer &layer = *step.layer;
    const bool reuse_warm = isReuseStep(step) && !view.record->firstExecution;
    if (layer.kind() == LayerKind::FullyConnected) {
        const auto &fc = static_cast<const FullyConnectedLayer &>(layer);
        int64_t rows = 0;
        if (reuse_warm) {
            rows = static_cast<int64_t>(t.changed.size());
        } else {
            // The GEMV skips zero inputs and their weight rows.
            for (int64_t i = 0; i < view.input->numel(); ++i)
                rows += (*view.input)[i] != 0.0f;
        }
        return static_cast<double>(rows * fc.outputs()) * sizeof(float);
    }
    const int64_t out_channels =
        layer.kind() == LayerKind::Conv2D
            ? static_cast<const Conv2DLayer &>(layer).outChannels()
            : static_cast<const Conv3DLayer &>(layer).outChannels();
    if (!reuse_warm)
        return static_cast<double>(layer.paramCount() - out_channels) *
               sizeof(float);
    // Distinct (input channel, kernel offset) weight rows the changes
    // reach; each row holds one weight per output channel.
    const int64_t kv = kernelVolume(layer);
    const int64_t plane = view.input->numel() / inChannels(layer);
    std::vector<uint8_t> touched(
        static_cast<size_t>(inChannels(layer) * kv), 0);
    for (int32_t i : t.changed) {
        const int64_t ci = i / plane;
        forEachReach(step, i, [&](int64_t off, int64_t) {
            touched[static_cast<size_t>(ci * kv + off)] = 1;
        });
    }
    const auto rows = std::count(touched.begin(), touched.end(), 1);
    return static_cast<double>(rows * out_channels) * sizeof(float);
}

void
StreamChecker::coldCheck(const StepView &view, const ReuseTrack &t)
{
    const ir::PlanStep &step = *view.step;
    LayerExecRecord rec;
    Tensor cold;
    // The fresh state is built before the clock starts, and only the
    // execution and the fused activation are timed, as the replay
    // times a cold frame's steps.
    std::unique_ptr<FcReuseState> fc;
    std::unique_ptr<ConvReuseState> conv;
    if (step.mode == ir::ExecMode::FcReuse)
        fc = makeFcState(step);
    else
        conv = makeConvState(step);
    const auto t0 = Clock::now();
    cold = fc != nullptr ? fc->execute(*view.input, rec)
                         : conv->execute(*view.input, rec);
    double us = microsBetween(t0, Clock::now());
    if (traced_) {
        if (step.fusedActivation != nullptr) {
            Tensor act = cold;
            const auto t1 = Clock::now();
            applyActivation(static_cast<const ActivationLayer &>(
                                *step.fusedActivation)
                                .activation(),
                            act);
            us += microsBetween(t1, Clock::now());
        }
        layers_[view.position].scratchUs.push_back(us);
    }
    const Tensor &reused = *view.preActivation;
    if (cold.shape() != reused.shape()) {
        fail(layers_[view.position].name + ": cold output shape differs");
        return;
    }
    const int64_t adds =
        t.baseAdds +
        (t.adds.empty() ? 0 : *std::max_element(t.adds.begin(), t.adds.end()));
    const double scale = std::max(maxAbs(cold), maxAbs(reused));
    const double bound = FLT_EPSILON * static_cast<double>(adds) * scale;
    double err = 0.0;
    for (int64_t i = 0; i < cold.numel(); ++i)
        err = std::max(err, std::fabs(static_cast<double>(reused[i]) -
                                      static_cast<double>(cold[i])));
    if (bound > 0.0)
        worst_bound_share_ = std::max(worst_bound_share_, err / bound);
    if (!(err <= bound)) {
        std::ostringstream os;
        os << layers_[view.position].name << ": reuse output is " << err
           << " from a cold execution, beyond the drift bound " << bound;
        fail(os.str());
    }
}

void
StreamChecker::timeKernels(const StepView &view, ReuseTrack &t,
                           const std::vector<int32_t> &oldIdx)
{
    const ir::PlanStep &step = *view.step;
    const std::string &name = layers_[view.position].name;
    kernels::QuantScanParams q = step.quant.input->scanParams();
    q.radius = step.clusterRadius;
    const int64_t n = view.input->numel();
    std::vector<int32_t> idx = oldIdx;
    kernels::ChangeList changes;
    // Size the list once outside the timed region, as a warm
    // reuse state's list is.
    int32_t *positions = nullptr;
    float *deltas = nullptr;
    changes.beginScan(n, positions, deltas);
    changes.endScan(0);
    auto t0 = Clock::now();
    const kernels::ScanResult scanned = kernels::scanChanges(
        view.input->data().data(), n, q, idx.data(), changes);
    kernels_.scanNs += nanosBetween(t0, Clock::now());
    kernels_.scanInputs += static_cast<double>(n);
    if (scanned.changed != static_cast<int64_t>(t.changed.size()))
        fail(name + ": kernels::scanChanges count differs from the recount");

    Tensor out = t.prevPre;
    const double macs = static_cast<double>(trace_[step.layerIndex].macsPerformed);
    if (step.layer->kind() == LayerKind::FullyConnected) {
        const auto &fc = static_cast<const FullyConnectedLayer &>(*step.layer);
        t0 = Clock::now();
        kernels::applyDeltas(changes, fc.weights().data(), fc.outputs(),
                             out.data().data());
        kernels_.fcApplyNs += nanosBetween(t0, Clock::now());
        kernels_.fcApplyMacs += macs;

        // The from-scratch path this layer takes on a cold frame.
        std::vector<float> centroids(static_cast<size_t>(n));
        for (int64_t i = 0; i < n; ++i)
            centroids[static_cast<size_t>(i)] =
                centroidOf(q, quantIndexOf(q, (*view.input)[i]));
        std::vector<float> full(static_cast<size_t>(fc.outputs()));
        t0 = Clock::now();
        kernels::gemv(centroids.data(), n, fc.weights().data(),
                      fc.biases().data(), fc.outputs(), full.data());
        kernels_.gemvNs += nanosBetween(t0, Clock::now());
        kernels_.gemvMacs += static_cast<double>(n * fc.outputs());
    } else if (step.layer->kind() == LayerKind::Conv2D) {
        const auto &c = static_cast<const Conv2DLayer &>(*step.layer);
        kernels::Conv2dGeometry g;
        g.in_h = step.inShape.dim(1);
        g.in_w = step.inShape.dim(2);
        g.out_channels = c.outChannels();
        g.out_h = step.outShape.dim(1);
        g.out_w = step.outShape.dim(2);
        g.kernel = c.kernel();
        g.stride = c.stride();
        t0 = Clock::now();
        kernels::applyConvDeltas2d(changes, g, c.weights().data(),
                                   out.data().data());
        kernels_.convApplyNs += nanosBetween(t0, Clock::now());
        kernels_.convApplyMacs += macs;
    } else {
        const auto &c = static_cast<const Conv3DLayer &>(*step.layer);
        kernels::Conv3dGeometry g;
        g.in_d = step.inShape.dim(1);
        g.in_h = step.inShape.dim(2);
        g.in_w = step.inShape.dim(3);
        g.out_channels = c.outChannels();
        g.out_d = step.outShape.dim(1);
        g.out_h = step.outShape.dim(2);
        g.out_w = step.outShape.dim(3);
        g.kernel = c.kernel();
        g.pad = c.pad();
        t0 = Clock::now();
        kernels::applyConvDeltas3d(changes, g, c.weights().data(),
                                   out.data().data());
        kernels_.convApplyNs += nanosBetween(t0, Clock::now());
        kernels_.convApplyMacs += macs;
    }
    if (!bitEqual(out, *view.preActivation))
        fail(name + ": kernel apply on the change list differs from the step");
}

} // namespace perfbench
