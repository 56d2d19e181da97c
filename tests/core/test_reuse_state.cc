/** @file Unit tests for the extracted per-stream ReuseState. */

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/reuse_engine.h"
#include "nn/activations.h"
#include "nn/fully_connected.h"
#include "nn/initializers.h"
#include "quant/range_profiler.h"

namespace reuse {
namespace {

struct StateFixture {
    Rng rng{71};
    Network net{"mlp", Shape({6})};
    std::vector<Tensor> calib;
    NetworkRanges ranges;

    StateFixture()
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

    QuantizationPlan plan(int clusters = 64)
    {
        return makePlan(net, ranges, clusters, {0, 2});
    }

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

void
expectIdentical(const Tensor &a, const Tensor &b)
{
    ASSERT_EQ(a.numel(), b.numel());
    for (int64_t j = 0; j < a.numel(); ++j)
        EXPECT_FLOAT_EQ(a[j], b[j]);
}

TEST(ReuseState, FreshStateIsColdAndSmall)
{
    StateFixture f;
    ReuseEngine engine(f.net, f.plan());
    ReuseState state = engine.makeState();
    EXPECT_FALSE(state.warm());
    EXPECT_EQ(state.layerCount(), 3u);
    EXPECT_EQ(state.executionsSinceRefresh(), 0);

    ExecutionTrace trace;
    engine.execute(state, f.calib[0], trace);
    EXPECT_TRUE(state.warm());
    EXPECT_GT(state.memoryBytes(), 0);
    EXPECT_EQ(state.executionsSinceRefresh(), 1);
}

TEST(ReuseState, DistinctStatesAreIndependentStreams)
{
    StateFixture f;
    ReuseEngine engine(f.net, f.plan());
    const auto frames = f.stream(10);

    // Run two streams (same inputs, offset by one frame) one after
    // the other, each on a dedicated state.
    ExecutionTrace trace;
    std::vector<Tensor> alone_a;
    std::vector<Tensor> alone_b;
    ReuseState ref_a = engine.makeState();
    ReuseState ref_b = engine.makeState();
    for (size_t i = 0; i + 1 < frames.size(); ++i)
        alone_a.push_back(engine.execute(ref_a, frames[i], trace));
    for (size_t i = 0; i + 1 < frames.size(); ++i)
        alone_b.push_back(engine.execute(ref_b, frames[i + 1], trace));

    // Interleaved over one engine, each must behave exactly the same.
    ReuseState a = engine.makeState();
    ReuseState b = engine.makeState();
    for (size_t i = 0; i + 1 < frames.size(); ++i) {
        expectIdentical(engine.execute(a, frames[i], trace), alone_a[i]);
        expectIdentical(engine.execute(b, frames[i + 1], trace),
                        alone_b[i]);
    }
}

TEST(ReuseState, CloneContinuesIdentically)
{
    StateFixture f;
    ReuseEngine engine(f.net, f.plan());
    const auto frames = f.stream(12);

    ReuseState state = engine.makeState();
    ExecutionTrace trace;
    for (size_t i = 0; i < 6; ++i)
        engine.execute(state, frames[i], trace);

    ReuseState fork = state.clone();
    EXPECT_EQ(fork.executionsSinceRefresh(),
              state.executionsSinceRefresh());
    EXPECT_EQ(fork.memoryBytes(), state.memoryBytes());
    for (size_t i = 6; i < frames.size(); ++i) {
        const Tensor a = engine.execute(state, frames[i], trace);
        const Tensor b = engine.execute(fork, frames[i], trace);
        expectIdentical(a, b);
    }
}

TEST(ReuseState, ReleaseBuffersBehavesLikeReset)
{
    StateFixture f;
    ReuseEngine engine(f.net, f.plan());
    const auto frames = f.stream(12);

    ReuseState released = engine.makeState();
    ReuseState reset = engine.makeState();
    ExecutionTrace trace;
    for (size_t i = 0; i < 6; ++i) {
        engine.execute(released, frames[i], trace);
        engine.execute(reset, frames[i], trace);
    }
    const int64_t warm_bytes = released.memoryBytes();
    EXPECT_GT(warm_bytes, 0);

    released.releaseBuffers();
    reset.reset();
    EXPECT_FALSE(released.warm());
    EXPECT_FALSE(reset.warm());
    EXPECT_LT(released.memoryBytes(), warm_bytes);
    EXPECT_EQ(released.executionsSinceRefresh(), 0);

    // An evicted (released) stream must re-warm to the exact same
    // outputs as a merely reset stream: both run frame 6 from scratch.
    for (size_t i = 6; i < frames.size(); ++i) {
        const Tensor a = engine.execute(released, frames[i], trace);
        const Tensor b = engine.execute(reset, frames[i], trace);
        expectIdentical(a, b);
    }
    EXPECT_TRUE(released.warm());
    EXPECT_EQ(released.memoryBytes(), warm_bytes);
}

TEST(ReuseState, RefreshCountsPerState)
{
    StateFixture f;
    ReuseEngineConfig cfg;
    cfg.refreshPeriod = 3;
    ReuseEngine engine(f.net, f.plan(), cfg);

    ReuseState a = engine.makeState();
    ReuseState b = engine.makeState();
    ExecutionTrace trace;
    // Drive `a` twice as fast as `b`; refresh boundaries must follow
    // each state's own counter, not a shared engine counter.
    int a_first = 0;
    int b_first = 0;
    for (int i = 0; i < 6; ++i) {
        engine.execute(a, f.calib[0], trace);
        a_first += trace[0].firstExecution ? 1 : 0;
        engine.execute(a, f.calib[0], trace);
        a_first += trace[0].firstExecution ? 1 : 0;
        engine.execute(b, f.calib[0], trace);
        b_first += trace[0].firstExecution ? 1 : 0;
    }
    EXPECT_EQ(a_first, 4);  // executions 0, 3, 6, 9 of 12
    EXPECT_EQ(b_first, 2);  // executions 0, 3 of 6
}

TEST(ReuseState, MoveTransfersWarmth)
{
    StateFixture f;
    ReuseEngine engine(f.net, f.plan());
    ReuseState state = engine.makeState();
    ExecutionTrace trace;
    engine.execute(state, f.calib[0], trace);
    const int64_t bytes = state.memoryBytes();

    ReuseState moved = std::move(state);
    EXPECT_TRUE(moved.warm());
    EXPECT_EQ(moved.memoryBytes(), bytes);
    const Tensor out = engine.execute(moved, f.calib[0], trace);
    EXPECT_EQ(trace[0].inputsChanged, 0);
    (void)out;
}

TEST(ReuseStateDeath, ForeignStatePanics)
{
    StateFixture f;
    ReuseEngine engine(f.net, f.plan());

    Rng rng(72);
    Network other("tiny", Shape({4}));
    other.addLayer(std::make_unique<FullyConnectedLayer>("FC", 4, 2));
    initNetwork(other, rng);
    ReuseEngine other_engine(other, QuantizationPlan(other));

    ReuseState wrong = other_engine.makeState();
    ExecutionTrace trace;
    EXPECT_DEATH((void)engine.execute(wrong, f.calib[0], trace),
                 "state");
}

} // namespace
} // namespace reuse
