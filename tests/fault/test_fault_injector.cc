/** @file Unit tests for the deterministic fault injector. */

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/reuse_engine.h"
#include "fault/fault_injector.h"
#include "nn/activations.h"
#include "nn/fully_connected.h"
#include "nn/initializers.h"
#include "quant/range_profiler.h"

namespace reuse {
namespace {

/** Disarms the global injector when a test scope exits. */
struct ArmGuard {
    ~ArmGuard() { fault::FaultInjector::global().disarm(); }
};

struct MlpFixture {
    Rng rng{61};
    Network net{"mlp", Shape({6})};
    std::vector<Tensor> calib;
    NetworkRanges ranges;

    MlpFixture()
    {
        net.addLayer(
            std::make_unique<FullyConnectedLayer>("FC1", 6, 10));
        net.addLayer(std::make_unique<ActivationLayer>(
            "RELU", ActivationKind::ReLU));
        net.addLayer(
            std::make_unique<FullyConnectedLayer>("FC2", 10, 4));
        initNetwork(net, rng);
        for (int i = 0; i < 10; ++i) {
            Tensor t(Shape({6}));
            rng.fillGaussian(t.data(), 0.0f, 1.0f);
            calib.push_back(t);
        }
        ranges = profileNetworkRanges(net, calib);
    }

    QuantizationPlan plan() { return makePlan(net, ranges, 64, {0, 2}); }

    std::vector<Tensor> stream(size_t frames, float sigma = 0.05f)
    {
        std::vector<Tensor> s;
        Tensor x(Shape({6}));
        rng.fillGaussian(x.data(), 0.0f, 1.0f);
        for (size_t i = 0; i < frames; ++i) {
            for (int64_t j = 0; j < 6; ++j)
                x[j] += rng.gaussian(0.0f, sigma);
            s.push_back(x);
        }
        return s;
    }
};

std::vector<Tensor>
runStream(const ReuseEngine &engine, const std::vector<Tensor> &inputs)
{
    ReuseState state = engine.makeState();
    ExecutionTrace trace;
    std::vector<Tensor> outputs;
    outputs.reserve(inputs.size());
    for (const Tensor &in : inputs)
        outputs.push_back(engine.execute(state, in, trace));
    return outputs;
}

bool
streamsBitEqual(const std::vector<Tensor> &a,
                const std::vector<Tensor> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        if (a[i].numel() != b[i].numel() ||
            std::memcmp(a[i].data().data(), b[i].data().data(),
                        static_cast<size_t>(a[i].numel()) *
                            sizeof(float)) != 0)
            return false;
    }
    return true;
}

TEST(FaultInjector, KindNamesRoundTrip)
{
    for (int k = 0; k < fault::kNumFaultKinds; ++k) {
        const auto kind = static_cast<fault::FaultKind>(k);
        const char *name = fault::faultKindName(kind);
        ASSERT_NE(name, nullptr);
        const auto parsed = fault::parseFaultKind(name);
        ASSERT_TRUE(parsed.has_value()) << name;
        EXPECT_EQ(*parsed, kind);
    }
    EXPECT_FALSE(fault::parseFaultKind("no-such-fault").has_value());
}

TEST(FaultInjector, DisarmedHooksLeaveDataUntouched)
{
    std::vector<float> floats{1.0f, 2.0f, 3.0f};
    std::vector<int32_t> indices{4, 5, 6};
    const auto floats_before = floats;
    const auto indices_before = indices;
    fault::corruptFloats(LayerKind::FullyConnected, floats.data(), 3);
    fault::corruptIndices(LayerKind::FullyConnected, indices.data(),
                          3);
    EXPECT_EQ(floats, floats_before);
    EXPECT_EQ(indices, indices_before);
    EXPECT_FALSE(fault::frameFaultsArmed());
    EXPECT_FALSE(fault::shouldDropFrame());
    EXPECT_FALSE(fault::shouldDuplicateFrame());
}

TEST(FaultInjector, OutputBitFlipCorruptsDeterministically)
{
    if (!fault::injectionCompiledIn())
        GTEST_SKIP() << "fault injection compiled out";
    MlpFixture f;
    ReuseEngine engine(f.net, f.plan());
    const auto inputs = f.stream(10);
    const auto clean = runStream(engine, inputs);

    fault::FaultPlan plan;
    plan.kind = fault::FaultKind::OutputBitFlip;
    plan.layerKind = LayerKind::FullyConnected;
    plan.fireAtInvocation = 3;
    plan.seed = 7;
    ArmGuard guard;

    fault::FaultInjector::global().arm(plan);
    const auto faulty1 = runStream(engine, inputs);
    EXPECT_EQ(fault::FaultInjector::global().fires(), 1u);

    fault::FaultInjector::global().arm(plan);
    const auto faulty2 = runStream(engine, inputs);

    // Same plan, same stream -> identical corruption; and the
    // corruption is visible against the clean run.
    EXPECT_TRUE(streamsBitEqual(faulty1, faulty2));
    EXPECT_FALSE(streamsBitEqual(faulty1, clean));
}

TEST(FaultInjector, LayerKindFilterSuppressesMismatchedHooks)
{
    if (!fault::injectionCompiledIn())
        GTEST_SKIP() << "fault injection compiled out";
    MlpFixture f;
    ReuseEngine engine(f.net, f.plan());
    const auto inputs = f.stream(6);

    fault::FaultPlan plan;
    plan.kind = fault::FaultKind::OutputBitFlip;
    plan.layerKind = LayerKind::Conv2D;     // no conv layer exists
    ArmGuard guard;
    fault::FaultInjector::global().arm(plan);
    const auto faulty = runStream(engine, inputs);
    EXPECT_EQ(fault::FaultInjector::global().fires(), 0u);
    EXPECT_EQ(fault::FaultInjector::global().invocations(), 0u);

    fault::FaultInjector::global().disarm();
    const auto clean = runStream(engine, inputs);
    EXPECT_TRUE(streamsBitEqual(faulty, clean));
}

TEST(FaultInjector, QuantScaleDriftAndStaleChangesFire)
{
    if (!fault::injectionCompiledIn())
        GTEST_SKIP() << "fault injection compiled out";
    MlpFixture f;
    ReuseEngine engine(f.net, f.plan());
    const auto inputs = f.stream(8, 0.3f);
    ArmGuard guard;

    for (const auto kind : {fault::FaultKind::QuantScaleDrift,
                            fault::FaultKind::StaleChangeList}) {
        fault::FaultPlan plan;
        plan.kind = kind;
        plan.seed = 11;
        fault::FaultInjector::global().arm(plan);
        runStream(engine, inputs);
        EXPECT_GE(fault::FaultInjector::global().fires(), 1u)
            << fault::faultKindName(kind);
    }
}

TEST(FaultInjector, BlockingStallParksAndDisarmReleases)
{
    if (!fault::injectionCompiledIn())
        GTEST_SKIP() << "fault injection compiled out";
    fault::FaultPlan plan;
    plan.kind = fault::FaultKind::WorkerStall;
    plan.stallMicros = -1;      // block until disarm
    fault::FaultInjector::global().arm(plan);

    std::thread stalled([] { fault::maybeStall(); });
    while (fault::FaultInjector::global().stalledCount() == 0)
        std::this_thread::yield();
    EXPECT_EQ(fault::FaultInjector::global().stalledCount(), 1u);

    fault::FaultInjector::global().disarm();
    stalled.join();
    EXPECT_EQ(fault::FaultInjector::global().stalledCount(), 0u);
}

TEST(FaultInjector, FrameFaultsReportArmedAndFire)
{
    if (!fault::injectionCompiledIn())
        GTEST_SKIP() << "fault injection compiled out";
    ArmGuard guard;
    fault::FaultPlan plan;
    plan.kind = fault::FaultKind::DroppedFrame;
    plan.fireAtInvocation = 2;
    fault::FaultInjector::global().arm(plan);
    EXPECT_TRUE(fault::frameFaultsArmed());
    EXPECT_FALSE(fault::shouldDropFrame());     // invocation 1
    EXPECT_TRUE(fault::shouldDropFrame());      // invocation 2: fires
    EXPECT_FALSE(fault::shouldDropFrame());     // maxFires reached
    EXPECT_FALSE(fault::shouldDuplicateFrame());
}

TEST(FaultInjector, FeedForwardSequencePassesHooksOncePerFrame)
{
    if (!fault::injectionCompiledIn())
        GTEST_SKIP() << "fault injection compiled out";
    MlpFixture f;
    ReuseEngine engine(f.net, f.plan());
    ReuseState state = engine.makeState();
    ExecutionTrace trace;
    ArmGuard guard;
    fault::FaultPlan plan;
    plan.kind = fault::FaultKind::WorkerStall;
    plan.fireAtInvocation = 1000;   // counted, never fired
    fault::FaultInjector::global().arm(plan);
    engine.executeSequence(state, f.stream(5), trace);
    EXPECT_EQ(fault::FaultInjector::global().invocations(), 5u);
}

} // namespace
} // namespace reuse
