/**
 * @file
 * Deterministic exemplar-capture tests: the retroactive tail-latency
 * recorder (obs/exemplar.h) driven through the serving runtime under
 * the virtual clock and manual dispatch, so every commit decision —
 * miss, exact threshold boundary, shed, low-reuse floor, ring
 * eviction — is exactly reproducible with zero wall-clock sleeps.
 */

#include <gtest/gtest.h>

#include <future>
#include <vector>

#include "common/random.h"
#include "common/stats.h"
#include "core/reuse_engine.h"
#include "nn/activations.h"
#include "nn/fully_connected.h"
#include "nn/initializers.h"
#include "obs/exemplar.h"
#include "obs/trace_recorder.h"
#include "quant/range_profiler.h"
#include "serve/streaming_server.h"
#include "support/virtual_clock.h"

namespace reuse {
namespace {

using testing::VirtualClock;

/**
 * The recorders are process-wide; disarm and empty them around every
 * test so commits and trace events cannot leak across tests in this
 * binary.
 */
class ExemplarTest : public ::testing::Test
{
  protected:
    void SetUp() override { reset(); }
    void TearDown() override { reset(); }

    static void reset()
    {
        obs::ExemplarRecorder::Policy off;
        off.armed = false;
        obs::ExemplarRecorder::instance().configure(off);
        obs::ExemplarRecorder::instance().clear();
        obs::TraceRecorder::instance().setSampleEvery(0);
        obs::TraceRecorder::instance().clear();
    }
};

struct ExemplarFixture {
    Rng rng{91};
    Network net{"mlp", Shape({6})};
    std::vector<Tensor> calib;
    QuantizationPlan plan{net};

    ExemplarFixture()
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
        plan = makePlan(net, profileNetworkRanges(net, calib), 64,
                        {0, 2});
    }

    Tensor frame(uint64_t seed)
    {
        Rng r(seed);
        Tensor t(Shape({6}));
        r.fillGaussian(t.data(), 0.0f, 1.0f);
        return t;
    }

    /** Manual-dispatch config with exemplar capture armed. */
    StreamingServer::Config armedConfig(VirtualClock &clock,
                                        size_t shards = 1)
    {
        StreamingServer::Config cfg;
        cfg.manualDispatch = true;
        cfg.workerThreads = shards;
        cfg.shards = shards;
        cfg.clock = &clock;
        cfg.exemplars.enabled = true;
        return cfg;
    }
};

TEST_F(ExemplarTest, HealthyFrameCommitsNothing)
{
    ExemplarFixture f;
    ReuseEngine engine(f.net, f.plan);
    VirtualClock clock;
    StreamingServer server(engine, f.armedConfig(clock));
    const SessionId id =
        server.openSession("default", 1, SloClass::Interactive);

    // Completes at the submit instant under the virtual clock:
    // latency 0, no miss, no threshold -> discard, zero cost kept.
    auto fut = server.submitFrame(id, f.frame(1));
    ASSERT_TRUE(server.runOne(0));
    fut.get();

    obs::ExemplarRecorder &rec = obs::ExemplarRecorder::instance();
    EXPECT_EQ(rec.committed(), 0u);
    EXPECT_EQ(rec.dropped(), 0u);
    EXPECT_TRUE(rec.snapshot().empty());
}

TEST_F(ExemplarTest, DeadlineMissCommitsWithCausalTimeline)
{
    ExemplarFixture f;
    ReuseEngine engine(f.net, f.plan);
    VirtualClock clock;
    StreamingServer server(engine, f.armedConfig(clock));
    const SessionId id =
        server.openSession("default", 1, SloClass::Interactive);

    auto fut = server.submitFrame(id, f.frame(1));
    clock.advance(50'000);  // sit in queue past the 10 ms budget
    ASSERT_TRUE(server.runOne(0));
    fut.get();

    obs::ExemplarRecorder &rec = obs::ExemplarRecorder::instance();
    ASSERT_EQ(rec.committed(), 1u);
    const std::vector<obs::Exemplar> ring = rec.snapshot();
    ASSERT_EQ(ring.size(), 1u);
    const obs::Exemplar &ex = ring[0];
    EXPECT_EQ(ex.session, id);
    EXPECT_EQ(ex.frame, 0u);
    EXPECT_EQ(ex.causes, obs::kExemplarDeadlineMiss);
    EXPECT_EQ(ex.latencyUs, 50'000);
    EXPECT_GT(ex.deadlineMicros, 0);
    EXPECT_FALSE(ex.stolen);
    EXPECT_EQ(ex.migrations, 0u);
    EXPECT_EQ(rec.className(ex.sloClass), "interactive");
    // The staged timeline must carry the frame execution, its queue
    // wait, and one span per network layer.
    size_t frame_execs = 0, queue_waits = 0, layer_execs = 0;
    for (const obs::TraceEvent &s : ex.spans) {
        frame_execs += s.kind == obs::SpanKind::FrameExec ? 1 : 0;
        queue_waits += s.kind == obs::SpanKind::QueueWait ? 1 : 0;
        layer_execs += s.kind == obs::SpanKind::LayerExec ? 1 : 0;
    }
    EXPECT_EQ(frame_execs, 1u);
    EXPECT_EQ(queue_waits, 1u);
    EXPECT_EQ(layer_execs, 3u);
}

TEST_F(ExemplarTest, SampledMissExemplarEqualsItsTraceEvents)
{
    ExemplarFixture f;
    ReuseEngine engine(f.net, f.plan);
    VirtualClock clock;
    StreamingServer server(engine, f.armedConfig(clock));
    const SessionId id =
        server.openSession("default", 1, SloClass::Interactive);
    obs::TraceRecorder &tracer = obs::TraceRecorder::instance();
    tracer.setSampleEvery(1);

    auto fut = server.submitFrame(id, f.frame(1));
    clock.advance(50'000);  // a miss, and also a sampled frame
    ASSERT_TRUE(server.runOne(0));
    fut.get();

    obs::ExemplarRecorder &rec = obs::ExemplarRecorder::instance();
    ASSERT_EQ(rec.committed(), 1u);
    const obs::Exemplar ex = rec.snapshot()[0];
    // The frame's timeline in the trace: every event stamped with its
    // session/frame except the submit instant, which precedes the
    // frame's execution.
    std::vector<obs::TraceEvent> traced;
    for (const obs::TraceEvent &ev : tracer.snapshot()) {
        if (ev.session == id && ev.frame == ex.frame &&
            ev.kind != obs::SpanKind::FrameSubmit)
            traced.push_back(ev);
    }
    // The exemplar and the trace hold the same spans, FrameExec
    // included, with the same timestamps and args.
    ASSERT_EQ(ex.spans.size(), traced.size());
    size_t frame_execs = 0;
    for (size_t i = 0; i < traced.size(); ++i) {
        const obs::TraceEvent &s = ex.spans[i];
        const obs::TraceEvent &t = traced[i];
        EXPECT_EQ(s.kind, t.kind) << "span " << i;
        EXPECT_EQ(s.layer, t.layer) << "span " << i;
        EXPECT_EQ(s.flags, t.flags) << "span " << i;
        EXPECT_EQ(s.startNs, t.startNs) << "span " << i;
        EXPECT_EQ(s.durNs, t.durNs) << "span " << i;
        EXPECT_EQ(s.a, t.a) << "span " << i;
        EXPECT_EQ(s.b, t.b) << "span " << i;
        EXPECT_EQ(s.c, t.c) << "span " << i;
        EXPECT_EQ(s.d, t.d) << "span " << i;
        frame_execs += t.kind == obs::SpanKind::FrameExec ? 1 : 0;
    }
    EXPECT_EQ(frame_execs, 1u);
}

TEST_F(ExemplarTest, ThresholdBoundaryExactlyAtIsHealthy)
{
    ExemplarFixture f;
    ReuseEngine engine(f.net, f.plan);
    VirtualClock clock;
    StreamingServer::Config cfg = f.armedConfig(clock);
    cfg.exemplars.latencyThresholdMicros[static_cast<size_t>(
        SloClass::Interactive)] = 5'000;
    StreamingServer server(engine, cfg);
    const SessionId id =
        server.openSession("default", 1, SloClass::Interactive);
    obs::ExemplarRecorder &rec = obs::ExemplarRecorder::instance();

    // latency == threshold: healthy by definition (strictly-greater
    // commits), so the boundary frame is discarded...
    auto at = server.submitFrame(id, f.frame(1));
    clock.advance(5'000);
    ASSERT_TRUE(server.runOne(0));
    at.get();
    EXPECT_EQ(rec.committed(), 0u);

    // ...and one microsecond over commits with the threshold cause
    // alone (6 ms is still inside the 10 ms deadline).
    auto over = server.submitFrame(id, f.frame(2));
    clock.advance(5'001);
    ASSERT_TRUE(server.runOne(0));
    over.get();
    ASSERT_EQ(rec.committed(), 1u);
    const std::vector<obs::Exemplar> ring = rec.snapshot();
    EXPECT_EQ(ring[0].causes, obs::kExemplarLatencyThreshold);
    EXPECT_EQ(ring[0].latencyUs, 5'001);
}

TEST_F(ExemplarTest, PerClassThresholdsAreIndependent)
{
    ExemplarFixture f;
    ReuseEngine engine(f.net, f.plan);
    VirtualClock clock;
    StreamingServer::Config cfg = f.armedConfig(clock);
    cfg.exemplars.latencyThresholdMicros[static_cast<size_t>(
        SloClass::Interactive)] = 1'000;
    cfg.exemplars.latencyThresholdMicros[static_cast<size_t>(
        SloClass::Standard)] = 20'000;
    StreamingServer server(engine, cfg);
    const SessionId standard =
        server.openSession("default", 1, SloClass::Standard);
    obs::ExemplarRecorder &rec = obs::ExemplarRecorder::instance();

    // 2 ms would commit under the interactive threshold, but this is
    // a standard-class frame: its own 20 ms threshold governs.
    auto fut = server.submitFrame(standard, f.frame(1));
    clock.advance(2'000);
    ASSERT_TRUE(server.runOne(0));
    fut.get();
    EXPECT_EQ(rec.committed(), 0u);

    auto slow = server.submitFrame(standard, f.frame(2));
    clock.advance(20'001);
    ASSERT_TRUE(server.runOne(0));
    slow.get();
    ASSERT_EQ(rec.committed(), 1u);
    EXPECT_EQ(rec.snapshot()[0].causes,
              obs::kExemplarLatencyThreshold);
    EXPECT_EQ(rec.className(rec.snapshot()[0].sloClass), "standard");
}

TEST_F(ExemplarTest, ShedFrameCommitsMinimalExemplar)
{
    ExemplarFixture f;
    ReuseEngine engine(f.net, f.plan);
    VirtualClock clock;
    StreamingServer::Config cfg = f.armedConfig(clock);
    cfg.initialServiceEstimateMicros = 5'000;  // 5 ms/frame, 1 worker
    StreamingServer server(engine, cfg);
    const SessionId id =
        server.openSession("default", 1, SloClass::Interactive);
    obs::ExemplarRecorder &rec = obs::ExemplarRecorder::instance();

    // Three force-admitted 10 ms-deadline frames occupy 15 ms; a
    // fourth provably cannot finish and is shed at admission.
    std::vector<std::future<Tensor>> backlog;
    for (int i = 0; i < 3; ++i)
        backlog.push_back(server.submitFrame(id, f.frame(10 + i)));
    auto shed = server.trySubmitFrame(id, f.frame(20));
    ASSERT_FALSE(shed.accepted());

    ASSERT_EQ(rec.committed(), 1u);
    const obs::Exemplar ex = rec.snapshot()[0];
    EXPECT_EQ(ex.causes, obs::kExemplarShed);
    EXPECT_EQ(ex.session, id);
    EXPECT_EQ(ex.latencyUs, 0);
    ASSERT_EQ(ex.spans.size(), 1u);
    EXPECT_EQ(ex.spans[0].kind, obs::SpanKind::FrameShed);
    // The staged hint is the admission backoff.
    EXPECT_EQ(ex.spans[0].b, shed.retryAfterMicros);

    while (server.runOne(0)) {
    }
}

TEST_F(ExemplarTest, LowReuseFloorCommitsSteadyFrames)
{
    ExemplarFixture f;
    ReuseEngine engine(f.net, f.plan);
    VirtualClock clock;
    StreamingServer::Config cfg = f.armedConfig(clock);
    cfg.exemplars.lowReuseFloor = 1.1;  // > any ratio: always commits
    StreamingServer server(engine, cfg);
    const SessionId id =
        server.openSession("default", 1, SloClass::Batch);
    obs::ExemplarRecorder &rec = obs::ExemplarRecorder::instance();

    // First frame: all first executions, no steady-state reuse ratio
    // to judge -> the floor does not apply.
    auto first = server.submitFrame(id, f.frame(1));
    ASSERT_TRUE(server.runOne(0));
    first.get();
    EXPECT_EQ(rec.committed(), 0u);

    // Second frame is steady state: its ratio exists (>= 0) and lies
    // under the impossible floor -> committed for low reuse alone.
    auto steady = server.submitFrame(id, f.frame(2));
    ASSERT_TRUE(server.runOne(0));
    steady.get();
    ASSERT_EQ(rec.committed(), 1u);
    const obs::Exemplar ex = rec.snapshot()[0];
    EXPECT_EQ(ex.causes, obs::kExemplarLowReuse);
    EXPECT_GE(ex.reuseRatio, 0.0);
    EXPECT_LE(ex.reuseRatio, 1.0);
}

TEST_F(ExemplarTest, RingEvictsOldestAndCountsDrops)
{
    ExemplarFixture f;
    ReuseEngine engine(f.net, f.plan);
    VirtualClock clock;
    StreamingServer::Config cfg = f.armedConfig(clock);
    cfg.exemplars.ringCapacity = 2;
    StreamingServer server(engine, cfg);
    const SessionId id =
        server.openSession("default", 1, SloClass::Interactive);
    obs::ExemplarRecorder &rec = obs::ExemplarRecorder::instance();

    for (int i = 0; i < 3; ++i) {
        auto fut = server.submitFrame(id, f.frame(1 + i));
        clock.advance(50'000);
        ASSERT_TRUE(server.runOne(0));
        fut.get();
    }
    EXPECT_EQ(rec.committed(), 3u);
    EXPECT_EQ(rec.dropped(), 1u);
    const std::vector<obs::Exemplar> ring = rec.snapshot();
    ASSERT_EQ(ring.size(), 2u);
    // Oldest first; frame 0's exemplar was evicted.
    EXPECT_EQ(ring[0].frame, 1u);
    EXPECT_EQ(ring[1].frame, 2u);

    // Loss accounting is a scrapeable gauge, not just trace metadata.
    StatRegistry reg;
    server.publishStats(reg);
    EXPECT_DOUBLE_EQ(
        reg.get("obs.trace.exemplars_committed").value(), 3.0);
    EXPECT_DOUBLE_EQ(reg.get("obs.trace.exemplars_dropped").value(),
                     1.0);
    EXPECT_DOUBLE_EQ(
        reg.get("obs.trace.exemplar_staging_overflows").value(), 0.0);
    ASSERT_TRUE(reg.has("obs.trace.dropped_events"));
    EXPECT_DOUBLE_EQ(reg.get("obs.trace.dropped_events").value(), 0.0);
}

TEST_F(ExemplarTest, StolenFrameIsMarkedStolen)
{
    ExemplarFixture f;
    ReuseEngine engine(f.net, f.plan);
    VirtualClock clock;
    StreamingServer server(engine, f.armedConfig(clock, /*shards=*/2));
    const SessionId remote =
        server.openSession("default", 2, SloClass::Interactive);
    ASSERT_TRUE(server.migrateSession(remote, 1));
    obs::ExemplarRecorder &rec = obs::ExemplarRecorder::instance();
    rec.clear();  // migration happened before any frame; keep 0 hops

    auto fut = server.submitFrame(remote, f.frame(1));
    clock.advance(50'000);
    // Shard 0 is idle; it steals shard 1's late frame.
    ASSERT_TRUE(server.runOne(0, /*allow_steal=*/true));
    fut.get();
    EXPECT_EQ(server.metrics().steals(), 1u);

    ASSERT_EQ(rec.committed(), 1u);
    const obs::Exemplar ex = rec.snapshot()[0];
    EXPECT_TRUE(ex.stolen);
    EXPECT_EQ(ex.migrations, 0u);
}

TEST_F(ExemplarTest, MigratedBacklogCountsPlacementHops)
{
    ExemplarFixture f;
    ReuseEngine engine(f.net, f.plan);
    VirtualClock clock;
    StreamingServer server(engine, f.armedConfig(clock, /*shards=*/2));
    const SessionId id =
        server.openSession("default", 1, SloClass::Interactive);
    obs::ExemplarRecorder &rec = obs::ExemplarRecorder::instance();

    // The frame is submitted under epoch 0, rides one migration, and
    // runs late on the new shard: the exemplar counts the hop.
    auto fut = server.submitFrame(id, f.frame(1));
    ASSERT_TRUE(server.migrateSession(id, 1));
    clock.advance(50'000);
    ASSERT_TRUE(server.runOne(1));
    fut.get();

    ASSERT_EQ(rec.committed(), 1u);
    const obs::Exemplar ex = rec.snapshot()[0];
    EXPECT_EQ(ex.migrations, 1u);
    EXPECT_FALSE(ex.stolen);
}

TEST_F(ExemplarTest, DisarmedRecorderStagesAndCommitsNothing)
{
    ExemplarFixture f;
    ReuseEngine engine(f.net, f.plan);
    VirtualClock clock;
    StreamingServer::Config cfg;
    cfg.manualDispatch = true;
    cfg.workerThreads = 1;
    cfg.clock = &clock;  // exemplars.enabled left false
    StreamingServer server(engine, cfg);
    const SessionId id =
        server.openSession("default", 1, SloClass::Interactive);

    auto fut = server.submitFrame(id, f.frame(1));
    clock.advance(50'000);  // a miss — but nobody is listening
    ASSERT_TRUE(server.runOne(0));
    fut.get();

    obs::ExemplarRecorder &rec = obs::ExemplarRecorder::instance();
    EXPECT_EQ(rec.committed(), 0u);
    EXPECT_TRUE(rec.snapshot().empty());
}

} // namespace
} // namespace reuse
