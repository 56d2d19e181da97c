/**
 * @file
 * Concurrency stress tests for the serving runtime (label: stress).
 *
 * Built for the TSan CI job: evictions and corruption re-warms race
 * live frame execution across many sessions, and the outputs must
 * still be bit-identical to a single-stream replay with resets at
 * exactly the recorded cold frames.  Also covers overload shedding
 * under a wedged worker (blocking WorkerStall fault).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <map>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/reuse_engine.h"
#include "fault/fault_injector.h"
#include "nn/activations.h"
#include "nn/fully_connected.h"
#include "nn/initializers.h"
#include "obs/exemplar.h"
#include "obs/trace_recorder.h"
#include "quant/range_profiler.h"
#include "serve/streaming_server.h"
#include "support/diff_oracle.h"

namespace reuse {
namespace {

struct ServerFixture {
    Rng rng{71};
    Network net{"mlp", Shape({6})};
    std::vector<Tensor> calib;
    QuantizationPlan plan{net};

    ServerFixture()
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

    std::vector<Tensor> stream(size_t frames, uint64_t seed)
    {
        Rng r(seed);
        std::vector<Tensor> s;
        Tensor x(Shape({6}));
        r.fillGaussian(x.data(), 0.0f, 1.0f);
        for (size_t i = 0; i < frames; ++i) {
            for (int64_t j = 0; j < 6; ++j)
                x[j] += r.gaussian(0.0f, 0.05f);
            s.push_back(x);
        }
        return s;
    }
};

/**
 * Evictions racing execution: an evictor thread repeatedly rips the
 * reuse buffers out from under live sessions while frames stream in.
 * Afterwards every session must match a golden replay that resets at
 * exactly the cold frames the server recorded.
 */
TEST(ServeStress, EvictionsRacingExecutionStayBitExact)
{
    ServerFixture f;
    ReuseEngine engine(f.net, f.plan);
    constexpr size_t kSessions = 4;
    constexpr size_t kFrames = 60;

    StreamingServer::Config cfg;
    cfg.workerThreads = 4;
    StreamingServer server(engine, cfg);

    std::vector<SessionId> ids;
    std::vector<std::vector<Tensor>> streams;
    for (size_t s = 0; s < kSessions; ++s) {
        ids.push_back(server.openSession("default", s));
        streams.push_back(f.stream(kFrames, 500 + 31 * s));
    }

    std::atomic<bool> done{false};
    std::thread evictor([&] {
        uint64_t round = 0;
        while (!done.load(std::memory_order_acquire)) {
            server.forceEvict(ids[round++ % kSessions]);
            std::this_thread::yield();
        }
    });

    // First half races the evictor thread; the mid-stream barrier
    // then lands one guaranteed eviction per session (a single CPU
    // may drain the whole stream before the evictor is ever
    // scheduled).
    std::vector<std::vector<std::future<Tensor>>> futures(kSessions);
    for (size_t i = 0; i < kFrames / 2; ++i)
        for (size_t s = 0; s < kSessions; ++s)
            futures[s].push_back(
                server.submitFrame(ids[s], streams[s][i]));
    server.drain();
    for (size_t s = 0; s < kSessions; ++s)
        ASSERT_TRUE(server.forceEvict(ids[s]));
    for (size_t i = kFrames / 2; i < kFrames; ++i)
        for (size_t s = 0; s < kSessions; ++s)
            futures[s].push_back(
                server.submitFrame(ids[s], streams[s][i]));
    server.drain();
    done.store(true, std::memory_order_release);
    evictor.join();

    for (size_t s = 0; s < kSessions; ++s) {
        std::vector<Tensor> outputs;
        for (auto &fut : futures[s])
            outputs.push_back(fut.get());
        const auto snap = server.sessionSnapshot(ids[s]);
        EXPECT_EQ(snap.framesCompleted, kFrames);
        const auto report = testing::diffAgainstReplay(
            engine, streams[s], outputs, snap.coldFrames);
        EXPECT_TRUE(report.allBitExact())
            << "session " << s << " diverged at frame "
            << report.firstMismatchFrame << " (cold frames: "
            << snap.coldFrames.size() << ")";
    }
    // At minimum the mid-stream evictions must all be counted; the
    // racing evictor may add more.
    EXPECT_GE(server.metrics().evictions(), kSessions);
}

/**
 * Corruption racing execution: bit-flips land in live sessions' reuse
 * buffers mid-stream; checksum validation must detect each one, re-warm
 * the session instead of crashing, and keep outputs on the golden
 * replay schedule.
 */
TEST(ServeStress, CorruptionRecoveryRacingExecutionStaysBitExact)
{
    if (!fault::injectionCompiledIn())
        GTEST_SKIP() << "fault injection compiled out";
    ServerFixture f;
    ReuseEngine engine(f.net, f.plan);
    constexpr size_t kSessions = 3;
    constexpr size_t kFrames = 40;

    StreamingServer::Config cfg;
    cfg.workerThreads = 3;
    cfg.validateState = true;
    StreamingServer server(engine, cfg);

    std::vector<SessionId> ids;
    std::vector<std::vector<Tensor>> streams;
    for (size_t s = 0; s < kSessions; ++s) {
        ids.push_back(server.openSession("default", s));
        streams.push_back(f.stream(kFrames, 900 + 17 * s));
    }

    std::atomic<bool> done{false};
    std::thread corruptor([&] {
        uint64_t seed = 1;
        while (!done.load(std::memory_order_acquire)) {
            server.debugCorruptSessionState(
                ids[seed % kSessions], seed);
            ++seed;
            std::this_thread::yield();
        }
    });

    // First half races the corruptor thread; the mid-stream barrier
    // then lands one guaranteed flip per session (a single CPU may
    // drain the whole stream before the corruptor is ever scheduled).
    std::vector<std::vector<std::future<Tensor>>> futures(kSessions);
    for (size_t i = 0; i < kFrames / 2; ++i)
        for (size_t s = 0; s < kSessions; ++s)
            futures[s].push_back(
                server.submitFrame(ids[s], streams[s][i]));
    server.drain();
    for (size_t s = 0; s < kSessions; ++s)
        ASSERT_TRUE(server.debugCorruptSessionState(ids[s], 77 + s));
    for (size_t i = kFrames / 2; i < kFrames; ++i)
        for (size_t s = 0; s < kSessions; ++s)
            futures[s].push_back(
                server.submitFrame(ids[s], streams[s][i]));
    server.drain();
    done.store(true, std::memory_order_release);
    corruptor.join();

    uint64_t recoveries = 0;
    for (size_t s = 0; s < kSessions; ++s) {
        std::vector<Tensor> outputs;
        for (auto &fut : futures[s])
            outputs.push_back(fut.get());
        const auto snap = server.sessionSnapshot(ids[s]);
        recoveries += snap.corruptionRecoveries;
        const auto report = testing::diffAgainstReplay(
            engine, streams[s], outputs, snap.coldFrames);
        EXPECT_TRUE(report.allBitExact())
            << "session " << s << " diverged at frame "
            << report.firstMismatchFrame << " after "
            << snap.corruptionRecoveries << " recoveries";
    }
    // At minimum the mid-stream flips must all be caught; the racing
    // corruptor may add more.
    EXPECT_GE(recoveries, kSessions);
    EXPECT_EQ(server.metrics().corruptionRecoveries(), recoveries);
}

/**
 * Overload shedding: with the single worker wedged on a blocking
 * stall, per-session backlog fills up and trySubmitFrame() must shed
 * with a positive backoff hint instead of blocking; accepted frames
 * all complete once the stall is released.
 */
TEST(ServeStress, OverloadShedsWithBackoffHint)
{
    if (!fault::injectionCompiledIn())
        GTEST_SKIP() << "fault injection compiled out";
    ServerFixture f;
    ReuseEngine engine(f.net, f.plan);

    StreamingServer::Config cfg;
    cfg.workerThreads = 1;
    cfg.maxPendingPerSession = 2;
    StreamingServer server(engine, cfg);
    const SessionId id = server.openSession();
    const auto frames = f.stream(8, 321);

    fault::FaultPlan plan;
    plan.kind = fault::FaultKind::WorkerStall;
    plan.stallMicros = -1;      // park until disarm
    fault::FaultInjector::global().arm(plan);

    std::vector<std::future<Tensor>> accepted;
    accepted.push_back(server.submitFrame(id, frames[0]));
    while (fault::FaultInjector::global().stalledCount() == 0)
        std::this_thread::yield();

    // Worker is wedged mid-frame; the next maxPendingPerSession
    // submissions queue up, then the session must shed.
    size_t shed = 0;
    for (size_t i = 1; i < frames.size(); ++i) {
        auto outcome = server.trySubmitFrame(id, frames[i]);
        if (outcome.accepted()) {
            accepted.push_back(std::move(outcome.result));
        } else {
            ++shed;
            EXPECT_GT(outcome.retryAfterMicros, 0);
        }
    }
    EXPECT_GE(shed, 1u);
    EXPECT_LE(accepted.size(), 1 + cfg.maxPendingPerSession + 1);
    EXPECT_EQ(server.metrics().framesShed(), shed);

    fault::FaultInjector::global().disarm();
    for (auto &fut : accepted)
        EXPECT_EQ(fut.get().numel(), 4);
    server.drain();
    EXPECT_EQ(server.sessionSnapshot(id).framesCompleted,
              accepted.size());
}

/**
 * Exemplar capture under contention: every worker thread buffers the
 * spans of every frame in its thread-local frame buffer, and an
 * impossible low-reuse floor forces every steady-state frame to
 * commit into the shared ring while submissions race from multiple
 * producer threads.  TSan-clean execution plus consistent counters is
 * the assertion: the ring can never hold more than
 * committed-minus-dropped exemplars, and every committed exemplar
 * carries a complete timeline.  With `sample_every` = 1 the same
 * buffers also feed the trace rings, and every completed frame's
 * frame_exec must appear there exactly once.
 */
void
runExemplarCaptureRace(uint32_t sample_every)
{
    ServerFixture f;
    ReuseEngine engine(f.net, f.plan);
    constexpr size_t kSessions = 4;
    constexpr size_t kFrames = 40;
    obs::TraceRecorder &tracer = obs::TraceRecorder::instance();
    tracer.clear();
    tracer.setSampleEvery(sample_every);

    StreamingServer::Config cfg;
    cfg.workerThreads = 4;
    cfg.exemplars.enabled = true;
    cfg.exemplars.lowReuseFloor = 1.1;  // commit every steady frame
    cfg.exemplars.ringCapacity = 32;    // force drops under the flood
    StreamingServer server(engine, cfg);

    std::vector<SessionId> ids;
    std::vector<std::vector<Tensor>> streams;
    for (size_t s = 0; s < kSessions; ++s) {
        ids.push_back(server.openSession("default", s));
        streams.push_back(f.stream(kFrames, 1300 + 7 * s));
    }

    // One producer thread per session races the worker pool.
    std::vector<std::thread> producers;
    std::vector<std::vector<std::future<Tensor>>> futures(kSessions);
    for (size_t s = 0; s < kSessions; ++s) {
        producers.emplace_back([&, s] {
            for (size_t i = 0; i < kFrames; ++i)
                futures[s].push_back(
                    server.submitFrame(ids[s], streams[s][i]));
        });
    }
    for (auto &p : producers)
        p.join();
    server.drain();
    for (auto &per_session : futures)
        for (auto &fut : per_session)
            EXPECT_EQ(fut.get().numel(), 4);

    obs::ExemplarRecorder &rec = obs::ExemplarRecorder::instance();
    const std::vector<obs::Exemplar> ring = rec.snapshot();
    const uint64_t committed = rec.committed();
    const uint64_t dropped = rec.dropped();
    // Every session's steady frames (all but the first) committed.
    EXPECT_GE(committed, kSessions * (kFrames - 1));
    EXPECT_EQ(ring.size(),
              std::min<uint64_t>(committed - dropped, 32));
    EXPECT_EQ(rec.stagingOverflows(), 0u);
    for (const obs::Exemplar &ex : ring) {
        EXPECT_NE(ex.causes & obs::kExemplarLowReuse, 0u);
        EXPECT_FALSE(ex.truncated);
        size_t frame_execs = 0;
        for (const obs::TraceEvent &sp : ex.spans)
            frame_execs += sp.kind == obs::SpanKind::FrameExec;
        EXPECT_EQ(frame_execs, 1u) << "session " << ex.session
                                   << " frame " << ex.frame;
    }

    if (sample_every == 1) {
        EXPECT_EQ(tracer.droppedEvents(), 0u);
        std::map<std::pair<uint64_t, uint64_t>, int> frame_execs;
        for (const obs::TraceEvent &ev : tracer.snapshot()) {
            if (ev.kind == obs::SpanKind::FrameExec)
                frame_execs[{ev.session, ev.frame}] += 1;
        }
        EXPECT_EQ(frame_execs.size(), kSessions * kFrames);
        for (size_t s = 0; s < kSessions; ++s) {
            for (uint64_t i = 0; i < kFrames; ++i) {
                EXPECT_EQ((frame_execs[{ids[s], i}]), 1)
                    << "session " << ids[s] << " frame " << i;
            }
        }
    }

    tracer.setSampleEvery(0);
    tracer.clear();
    obs::ExemplarRecorder::Policy off;
    off.armed = false;
    rec.configure(off);
    rec.clear();
}

TEST(ServeStress, ExemplarStagingRacesStayConsistent)
{
    runExemplarCaptureRace(0);
}

TEST(ServeStress, ExemplarStagingRacesStayConsistentWhenSampled)
{
    runExemplarCaptureRace(1);
}

} // namespace
} // namespace reuse
