/**
 * @file
 * What one benchmark run reports: frames attempted and failed, the
 * metrics by name with their units, and human-readable notes.  The
 * last line of standard output is the JSON result.
 */

#ifndef REUSE_PERFBENCH_REPORT_H
#define REUSE_PERFBENCH_REPORT_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace perfbench {

class Report
{
  public:
    /** Records a metric; names are unique. */
    void metric(const std::string &name, double value,
                const std::string &unit);

    /** Prints a note line ("# ...") ahead of the result. */
    void note(const std::string &line) const;

    /** Counts `frames` attempted operations, `failed` of them failed. */
    void frames(int64_t attempted, int64_t failed = 0);

    /** Records a failed check that belongs to no single frame. */
    void runFailure(const std::string &why);

    /** Records the first failure message of a frame check. */
    void frameFailure(const std::string &why);

    /** The result line: correct, attempted, failed, metrics. */
    std::string json() const;

    int64_t attempted() const { return attempted_; }
    int64_t failed() const { return failed_; }

  private:
    struct Metric {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics_;
    int64_t attempted_ = 0;
    int64_t failed_ = 0;
    bool run_ok_ = true;
};

/** The benchmark's one clock and its timing helpers. */
using Clock = std::chrono::steady_clock;

/** Seconds elapsed since `t0`. */
double secondsSince(Clock::time_point t0);

/** Microseconds from `t0` to `t1`. */
double microsBetween(Clock::time_point t0, Clock::time_point t1);

/** Nanoseconds from `t0` to `t1`. */
int64_t nanosBetween(Clock::time_point t0, Clock::time_point t1);

/** User + system CPU seconds of this process so far. */
double processCpuSeconds();

/** Peak resident set of this process so far, in MB. */
double peakRssMb();

/** Current resident set of this process, in MB. */
double currentRssMb();

/**
 * The program's share of the process's peak memory: the benchmark's
 * pre-generated inputs stay resident from their generation to the
 * end of the run, so they are not the program's.
 */
class ProgramMemory
{
  public:
    /** Call once the program is set up, just before the inputs are made. */
    void beforeInputs();
    /** Call once the inputs are made, before anything is timed. */
    void afterInputs();
    /**
     * Peak MB of the program alone so far: the larger of the peak
     * before the inputs existed and the peak since, less the inputs.
     * Read it before the benchmark's checks allocate anything.
     */
    double peakMb() const;

  private:
    double peak_before_ = 0.0;
    double rss_before_ = 0.0;
    double inputs_mb_ = 0.0;
};

/** printf-style formatting of up to four numbers. */
std::string fmt(const char *format, double a, double b = 0.0, double c = 0.0,
                double d = 0.0);

/** FNV-1a over a tensor's shape and bytes. */
uint64_t tensorHash(const reuse::Tensor &t);

} // namespace perfbench

#endif // REUSE_PERFBENCH_REPORT_H
