#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>

namespace perfbench {

void
Report::metric(const std::string &name, double value, const std::string &unit)
{
    for (const Metric &m : metrics_)
        if (m.name == name)
            throw std::logic_error("metric reported twice: " + name);
    if (!std::isfinite(value)) {
        // JSON has no NaN; a metric that could not be measured fails
        // the run instead of reading as a number.
        runFailure("metric " + name + " was not measured");
        value = 0.0;
    }
    metrics_.push_back({name, value, unit});
}

void
Report::note(const std::string &line) const
{
    std::cout << "# " << line << std::endl;
}

void
Report::frames(int64_t attempted, int64_t failed)
{
    attempted_ += attempted;
    failed_ += failed;
}

void
Report::runFailure(const std::string &why)
{
    run_ok_ = false;
    note("CHECK FAILED: " + why);
}

void
Report::frameFailure(const std::string &why)
{
    note("FRAME CHECK FAILED: " + why);
}

std::string
Report::json() const
{
    std::string out = "{\"correct\": ";
    out += run_ok_ && failed_ == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"metrics\": {";
    char buf[64];
    for (size_t i = 0; i < metrics_.size(); ++i) {
        const Metric &m = metrics_[i];
        std::snprintf(buf, sizeof(buf), "%.17g", m.value);
        out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
               ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    return out;
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
microsBetween(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

int64_t
nanosBetween(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
        .count();
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
currentRssMb()
{
    // The "VmRSS:  <n> kB" line of this process's status.
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmRSS:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    return NAN;
}

void
ProgramMemory::beforeInputs()
{
    peak_before_ = peakRssMb();
    rss_before_ = currentRssMb();
}

void
ProgramMemory::afterInputs()
{
    inputs_mb_ = currentRssMb() - rss_before_;
}

double
ProgramMemory::peakMb() const
{
    return std::max(peak_before_, peakRssMb() - inputs_mb_);
}

std::string
fmt(const char *format, double a, double b, double c, double d)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf), format, a, b, c, d);
    return buf;
}

uint64_t
tensorHash(const reuse::Tensor &t)
{
    uint64_t h = 1469598103934665603ull;
    auto mix = [&h](const void *p, size_t n) {
        const auto *b = static_cast<const unsigned char *>(p);
        for (size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 1099511628211ull;
        }
    };
    for (int64_t d : t.shape().dims())
        mix(&d, sizeof(d));
    mix(t.data().data(), static_cast<size_t>(t.numel()) * sizeof(float));
    return h;
}

} // namespace perfbench
