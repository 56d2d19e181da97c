#include "bench_stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(rank));
    const size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

std::optional<TailChoice>
tailPercentile(int64_t samples)
{
    if (samples < 40)
        return std::nullopt;
    static const double kLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0};
    for (double p : kLadder) {
        // Samples strictly above the p-th percentile's rank.
        const int64_t beyond = static_cast<int64_t>(std::floor(
            static_cast<double>(samples) * (100.0 - p) / 100.0 + 1e-9));
        if (beyond >= 10)
            return TailChoice{p, beyond};
    }
    return std::nullopt;
}

int64_t
dueTimeNs(int64_t k, double ratePerSecond)
{
    return static_cast<int64_t>(
        std::llround(static_cast<double>(k) * 1e9 / ratePerSecond));
}

} // namespace perfbench
