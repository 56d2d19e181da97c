/**
 * @file
 * The benchmark's own statistics: medians and percentiles, the
 * tail-percentile rule, and open-loop due-time accounting.
 */

#ifndef REUSE_PERFBENCH_BENCH_STATS_H
#define REUSE_PERFBENCH_BENCH_STATS_H

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

/** Median of `v` (mean of the middle pair for even sizes); 0 if empty. */
double median(std::vector<double> v);

/** Value at percentile `p` (0..100) by linear interpolation. */
double percentile(std::vector<double> v, double p);

/** A tail percentile chosen for a sample size. */
struct TailChoice {
    /** The percentile, e.g. 99.0. */
    double percentile = 0.0;
    /** Samples strictly beyond that percentile's rank. */
    int64_t beyond = 0;
};

/**
 * The highest rung of {75, 90, 95, 99, 99.9} that leaves at least
 * ten of `samples` beyond it.  Under forty samples there is no tail
 * (nullopt): the median is all such a sample supports.
 */
std::optional<TailChoice> tailPercentile(int64_t samples);

/**
 * Open-loop accounting of one paced frame.  Latency counts from the
 * frame's due time, so a late submission (the generator stalled)
 * charges its lateness to the frame instead of hiding it.
 */
struct PacedFrame {
    int64_t dueNs = 0;
    int64_t submitNs = 0;
    int64_t doneNs = 0;

    /** Due-time latency in microseconds. */
    double latencyUs() const { return (doneNs - dueNs) * 1e-3; }

    /** How late the generator submitted, in microseconds (>= 0). */
    double latenessUs() const
    {
        return submitNs > dueNs ? (submitNs - dueNs) * 1e-3 : 0.0;
    }
};

/** Due time of frame `k` at a fixed rate, in ns after the start. */
int64_t dueTimeNs(int64_t k, double ratePerSecond);

} // namespace perfbench

#endif // REUSE_PERFBENCH_BENCH_STATS_H
