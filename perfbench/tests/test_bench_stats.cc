// Tests of the benchmark's own statistics: the tail-percentile rule,
// medians and percentiles, and the open-loop due-time accounting.
// The steadiness script's quartiles and spreads are tested in
// test_steadiness.py.

#include <gtest/gtest.h>

#include "bench_stats.h"

using namespace perfbench;

TEST(TailPercentile, NoTailUnderFortySamples)
{
    EXPECT_FALSE(tailPercentile(0).has_value());
    EXPECT_FALSE(tailPercentile(39).has_value());
}

TEST(TailPercentile, HighestRungWithTenBeyond)
{
    struct Case {
        int64_t n;
        double p;
        int64_t beyond;
    };
    const Case cases[] = {
        {40, 75.0, 10},    {99, 75.0, 24},     {100, 90.0, 10},
        {199, 90.0, 19},   {200, 95.0, 10},    {999, 95.0, 49},
        {1000, 99.0, 10},  {5625, 99.0, 56},   {9999, 99.0, 99},
        {10000, 99.9, 10},
    };
    for (const Case &c : cases) {
        const auto t = tailPercentile(c.n);
        ASSERT_TRUE(t.has_value()) << c.n;
        EXPECT_DOUBLE_EQ(t->percentile, c.p) << c.n;
        EXPECT_EQ(t->beyond, c.beyond) << c.n;
        EXPECT_GE(t->beyond, 10) << c.n;
    }
}

TEST(Median, OddEvenAndEmpty)
{
    EXPECT_DOUBLE_EQ(median({}), 0.0);
    EXPECT_DOUBLE_EQ(median({5.0}), 5.0);
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(Percentile, LinearInterpolation)
{
    const std::vector<double> v = {5.0, 1.0, 4.0, 2.0, 3.0};
    EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 50.0), 3.0);
    EXPECT_DOUBLE_EQ(percentile(v, 75.0), 4.0);
    EXPECT_DOUBLE_EQ(percentile(v, 87.5), 4.5);
    EXPECT_DOUBLE_EQ(percentile(v, 100.0), 5.0);
}

TEST(OpenLoop, DueTimesFollowTheRate)
{
    EXPECT_EQ(dueTimeNs(0, 1000.0), 0);
    EXPECT_EQ(dueTimeNs(1, 1000.0), 1'000'000);
    EXPECT_EQ(dueTimeNs(1500, 1500.0), 1'000'000'000);
    // Rounded, not truncated: 1/3 ms steps stay on the schedule.
    EXPECT_EQ(dueTimeNs(1, 3000.0), 333'333);
    EXPECT_EQ(dueTimeNs(2, 3000.0), 666'667);
}

TEST(OpenLoop, LatencyCountsFromTheDueTime)
{
    PacedFrame on_time{1'000, 1'000, 501'000};
    EXPECT_DOUBLE_EQ(on_time.latencyUs(), 500.0);
    EXPECT_DOUBLE_EQ(on_time.latenessUs(), 0.0);

    // The generator stalled 2 ms: the frame's latency includes the
    // stall, and the stall is reported as lateness.
    PacedFrame late{1'000, 2'001'000, 2'501'000};
    EXPECT_DOUBLE_EQ(late.latencyUs(), 2500.0);
    EXPECT_DOUBLE_EQ(late.latenessUs(), 2000.0);
}
