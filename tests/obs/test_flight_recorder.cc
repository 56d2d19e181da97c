/**
 * @file
 * Flight-recorder tests: dumpNow() writes a postmortem the offline
 * tools can parse, the single-dump guard holds, the metrics provider
 * is embedded when registered, and a frame still open on the dumping
 * thread contributes the spans it already closed.  The fatal-signal
 * path itself is exercised end to end by the CI crash leg
 * (serve_throughput --postmortem --crash-after); here we drive the
 * same writer directly so the tests stay in-process and
 * deterministic.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/json.h"
#include "obs/exemplar.h"
#include "obs/flight_recorder.h"
#include "obs/trace_recorder.h"

namespace reuse {
namespace obs {
namespace {

class FlightRecorderTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        FlightRecorder::resetForTest();
        TraceRecorder::instance().clear();
        ExemplarRecorder::instance().clear();
    }

    void TearDown() override
    {
        FlightRecorder::resetForTest();
        ExemplarRecorder::Policy off;
        off.armed = false;
        ExemplarRecorder::instance().configure(off);
        ExemplarRecorder::instance().clear();
        TraceRecorder::instance().setSampleEvery(0);
        TraceRecorder::instance().clear();
        std::remove(path().c_str());
    }

    static std::string path()
    {
        return ::testing::TempDir() + "postmortem_test.json";
    }

    static JsonValue parseDump()
    {
        const JsonParseResult r = parseJsonFile(path());
        EXPECT_TRUE(r.ok) << r.error;
        return r.value;
    }
};

TEST_F(FlightRecorderTest, DumpNowWritesParseablePostmortem)
{
    FlightRecorder::install(path());
    EXPECT_TRUE(FlightRecorder::installed());
    ASSERT_TRUE(FlightRecorder::dumpNow("unit test reason"));

    const JsonValue dump = parseDump();
    ASSERT_TRUE(dump.has("postmortem"));
    EXPECT_EQ(dump.at("postmortem").at("reason").asString(),
              "unit test reason");
    EXPECT_EQ(dump.at("postmortem").at("tool").asString(),
              "reuse_dnn");
    // The trace-exporter body is spliced in at top level, so
    // trace_report and latency_doctor find their usual sections.
    EXPECT_TRUE(dump.has("otherData"));
    EXPECT_TRUE(dump.has("traceEvents"));
    EXPECT_TRUE(dump.has("exemplars"));
    EXPECT_TRUE(dump.at("metrics").isNull());
}

TEST_F(FlightRecorderTest, SecondDumpIsRefused)
{
    FlightRecorder::install(path());
    ASSERT_TRUE(FlightRecorder::dumpNow("first"));
    EXPECT_FALSE(FlightRecorder::dumpNow("second"));
    // The file still holds the first dump's reason.
    EXPECT_EQ(parseDump().at("postmortem").at("reason").asString(),
              "first");
}

TEST_F(FlightRecorderTest, DumpWithoutInstallIsRefused)
{
    // resetForTest cleared the path: nothing to write to.
    EXPECT_FALSE(FlightRecorder::dumpNow("nowhere"));
}

TEST_F(FlightRecorderTest, MetricsProviderIsEmbedded)
{
    FlightRecorder::install(path());
    FlightRecorder::setMetricsProvider(
        [] { return std::string("{\"frames_total\":42}"); });
    ASSERT_TRUE(FlightRecorder::dumpNow("with metrics"));

    const JsonValue dump = parseDump();
    ASSERT_TRUE(dump.at("metrics").isObject());
    EXPECT_EQ(dump.at("metrics").at("frames_total").asInt(), 42);
}

TEST_F(FlightRecorderTest, CommittedExemplarsSurviveIntoTheDump)
{
    ExemplarRecorder::Policy pol;
    pol.armed = true;
    ExemplarRecorder::instance().configure(pol);

    ExemplarRecorder::FrameMeta meta;
    meta.session = 7;
    meta.frame = 3;
    meta.sloClass = 0;
    meta.enqueuedMicros = 0;
    meta.completedMicros = 50'000;
    meta.deadlineMicros = 10'000;  // miss -> commits
    ASSERT_NE(ExemplarRecorder::instance().finishFrame(meta), 0u);

    FlightRecorder::install(path());
    ASSERT_TRUE(FlightRecorder::dumpNow("exemplar carry"));

    const JsonValue dump = parseDump();
    const JsonValue::Array &exs = dump.at("exemplars").asArray();
    ASSERT_EQ(exs.size(), 1u);
    EXPECT_EQ(exs[0].at("session").asInt(), 7);
    EXPECT_EQ(exs[0].at("frame").asInt(), 3);
    EXPECT_EQ(exs[0].at("latency_us").asInt(), 50'000);
    EXPECT_EQ(dump.at("otherData").at("exemplarsCommitted").asInt(),
              1);
}

TEST_F(FlightRecorderTest, InFlightSampledFrameSurvivesIntoTheDump)
{
    // A crash lands mid-frame: the spans that frame already closed
    // must reach the dump although the frame itself never finished.
    TraceRecorder::instance().setSampleEvery(1);
    FlightRecorder::install(path());
    {
        FrameTraceScope frame(4, 2);
        {
            TraceSpan span(SpanKind::LayerExec, 3);
            span.args(10, 1, 100, 10);
        }
        ASSERT_TRUE(FlightRecorder::dumpNow("mid-frame"));
    }

    const JsonValue dump = parseDump();
    int found = 0;
    for (const JsonValue &ev : dump.at("traceEvents").asArray()) {
        if (ev.at("name").asString() != "layer_exec")
            continue;
        const JsonValue &args = ev.at("args");
        EXPECT_EQ(args.at("layer").asInt(), 3);
        EXPECT_EQ(args.at("session").asInt(), 4);
        EXPECT_EQ(args.at("frame").asInt(), 2);
        EXPECT_EQ(args.at("macs_full").asInt(), 100);
        ++found;
    }
    EXPECT_EQ(found, 1);
}

} // namespace
} // namespace obs
} // namespace reuse
