/**
 * @file
 * Unit tests for the per-thread ring-buffer trace recorder: sampling
 * decisions, RAII scopes, ring wrap-around accounting and concurrent
 * snapshot-while-recording safety (the TSan job runs this suite).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "obs/trace_recorder.h"

namespace reuse {
namespace obs {
namespace {

/** Resets the process-wide recorder around each test. */
class TraceRecorderTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        TraceRecorder::instance().clear();
        TraceRecorder::instance().setSampleEvery(1);
    }

    void TearDown() override
    {
        TraceRecorder::instance().setSampleEvery(0);
        TraceRecorder::instance().clear();
        TraceRecorder::instance().setRingCapacity(
            TraceRecorder::kDefaultRingCapacity);
    }
};

TEST_F(TraceRecorderTest, DisabledRecorderSamplesNothing)
{
    TraceRecorder &rec = TraceRecorder::instance();
    rec.setSampleEvery(0);
    EXPECT_FALSE(rec.enabled());
    EXPECT_FALSE(rec.sampleFrameTick());
    {
        FrameTraceScope frame(1, 2);
        EXPECT_FALSE(frame.active());
        TraceSpan span(SpanKind::LayerExec, 0);
        EXPECT_FALSE(span.active());
    }
    EXPECT_TRUE(rec.snapshot().empty());
}

TEST_F(TraceRecorderTest, FrameScopeEmitsFrameAndNestedSpans)
{
    {
        FrameTraceScope frame(7, 42);
        ASSERT_TRUE(frame.active());
        TraceSpan span(SpanKind::LayerExec, 3);
        span.args(100, 10, 1000, 100, kFlagReuseEnabled);
    }
    const std::vector<TraceEvent> events =
        TraceRecorder::instance().snapshot();
    ASSERT_EQ(events.size(), 2u);
    // Inner span published first (destroyed first), FrameExec second.
    EXPECT_EQ(events[0].kind, SpanKind::LayerExec);
    EXPECT_EQ(events[0].layer, 3);
    EXPECT_EQ(events[0].a, 100);
    EXPECT_EQ(events[0].b, 10);
    EXPECT_EQ(events[0].flags, kFlagReuseEnabled);
    EXPECT_EQ(events[0].session, 7u);
    EXPECT_EQ(events[0].frame, 42u);
    EXPECT_EQ(events[1].kind, SpanKind::FrameExec);
    EXPECT_GE(events[1].durNs, events[0].durNs);
    EXPECT_LT(events[0].seq, events[1].seq);
}

TEST_F(TraceRecorderTest, NestedScopesKeepOuterIdentity)
{
    {
        FrameTraceScope outer(5, 9);
        ASSERT_TRUE(outer.active());
        {
            // The engine's own scope under the serving runtime: a
            // pass-through that must not re-decide or re-label.
            FrameTraceScope inner(0, kAutoFrame);
            EXPECT_TRUE(inner.active());
            TraceSpan span(SpanKind::LayerExec, 0);
        }
        EXPECT_TRUE(frameContext().sampled);
    }
    const std::vector<TraceEvent> events =
        TraceRecorder::instance().snapshot();
    // Inner scope emits no FrameExec of its own: one layer span plus
    // the outer frame span.
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].session, 5u);
    EXPECT_EQ(events[0].frame, 9u);
    EXPECT_EQ(events[1].kind, SpanKind::FrameExec);
    EXPECT_EQ(events[1].session, 5u);
}

TEST_F(TraceRecorderTest, SamplesEveryNthFrame)
{
    TraceRecorder &rec = TraceRecorder::instance();
    rec.setSampleEvery(4);
    int sampled = 0;
    for (int i = 0; i < 32; ++i) {
        FrameTraceScope frame(1, static_cast<uint64_t>(i));
        if (frame.active())
            ++sampled;
    }
    EXPECT_EQ(sampled, 8);
}

TEST_F(TraceRecorderTest, InstantsIgnoreFrameSampling)
{
    TraceRecorder &rec = TraceRecorder::instance();
    rec.setSampleEvery(1000000);  // effectively never sample a frame
    recordInstant(SpanKind::Eviction, -1, 4096, 0, 0, 0, 11, 0);
    const std::vector<TraceEvent> events = rec.snapshot();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].kind, SpanKind::Eviction);
    EXPECT_EQ(events[0].durNs, 0);
    EXPECT_EQ(events[0].a, 4096);
    EXPECT_EQ(events[0].session, 11u);
}

TEST_F(TraceRecorderTest, RingWrapDropsOldestAndCounts)
{
    TraceRecorder &rec = TraceRecorder::instance();
    rec.setRingCapacity(64);
    // Capacity applies to rings registered after the call: record
    // from a fresh thread.
    std::thread t([] {
        for (int i = 0; i < 200; ++i)
            recordInstant(SpanKind::DriftRefresh, -1, i);
    });
    t.join();
    const std::vector<TraceEvent> events = rec.snapshot();
    ASSERT_EQ(events.size(), 64u);
    EXPECT_EQ(rec.droppedEvents(), 200u - 64u);
    // The survivors are the newest 64, in publication order.
    EXPECT_EQ(events.front().a, 200 - 64);
    EXPECT_EQ(events.back().a, 199);
}

TEST_F(TraceRecorderTest, ClearEmptiesRingsAndDropCounter)
{
    recordInstant(SpanKind::Eviction);
    ASSERT_FALSE(TraceRecorder::instance().snapshot().empty());
    TraceRecorder::instance().clear();
    EXPECT_TRUE(TraceRecorder::instance().snapshot().empty());
    EXPECT_EQ(TraceRecorder::instance().droppedEvents(), 0u);
}

TEST_F(TraceRecorderTest, ParseSampleSpec)
{
    uint32_t n = 99;
    EXPECT_TRUE(TraceRecorder::parseSampleSpec("0", &n));
    EXPECT_EQ(n, 0u);
    EXPECT_TRUE(TraceRecorder::parseSampleSpec("16", &n));
    EXPECT_EQ(n, 16u);
    EXPECT_TRUE(TraceRecorder::parseSampleSpec("1/32", &n));
    EXPECT_EQ(n, 32u);
    EXPECT_FALSE(TraceRecorder::parseSampleSpec("", &n));
    EXPECT_FALSE(TraceRecorder::parseSampleSpec("abc", &n));
    EXPECT_FALSE(TraceRecorder::parseSampleSpec("2/3", &n));
    EXPECT_FALSE(TraceRecorder::parseSampleSpec("-4", &n));
}

TEST_F(TraceRecorderTest, SpanKindNamesAreStable)
{
    EXPECT_STREQ(spanKindName(SpanKind::LayerExec), "layer_exec");
    EXPECT_STREQ(spanKindName(SpanKind::QueueWait), "queue_wait");
    EXPECT_STREQ(spanKindName(SpanKind::Eviction), "eviction");
    EXPECT_TRUE(isInstantKind(SpanKind::Eviction));
    EXPECT_FALSE(isInstantKind(SpanKind::LayerExec));
}

TEST_F(TraceRecorderTest, ConcurrentWritersAndSnapshotReaders)
{
    TraceRecorder &rec = TraceRecorder::instance();
    rec.setRingCapacity(256);  // force continuous wrap-around
    std::atomic<bool> stop{false};
    std::vector<std::thread> writers;
    for (int w = 0; w < 4; ++w) {
        writers.emplace_back([&stop, w] {
            uint64_t frame = 0;
            while (!stop.load(std::memory_order_relaxed)) {
                FrameTraceScope scope(static_cast<uint64_t>(w),
                                      frame++);
                TraceSpan span(SpanKind::LayerExec, w);
                span.args(10, 1, 100, 10);
            }
        });
    }
    // Readers race the wrapping writers; seqlock slots guarantee no
    // torn events — every snapshot event must be internally valid.
    for (int iter = 0; iter < 50; ++iter) {
        const std::vector<TraceEvent> events = rec.snapshot();
        uint64_t prev_seq = 0;
        for (const TraceEvent &ev : events) {
            EXPECT_GT(ev.seq, prev_seq);
            prev_seq = ev.seq;
            ASSERT_TRUE(ev.kind == SpanKind::LayerExec ||
                        ev.kind == SpanKind::FrameExec);
            if (ev.kind == SpanKind::LayerExec) {
                EXPECT_EQ(ev.a, 10);
                EXPECT_EQ(ev.c, 100);
            }
        }
    }
    stop.store(true, std::memory_order_relaxed);
    for (auto &t : writers)
        t.join();
}

} // namespace
} // namespace obs
} // namespace reuse
