/**
 * @file
 * perfbench_bandwidth: single-thread read bandwidth at working-set
 * sizes chosen from the host's reported cache sizes (sysfs), so a
 * layer's GB/s can be set against the level its weights live in:
 * half of L2, four L2s, half of the last-level cache, and a set
 * beyond it, each capped at 512 MB.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_stats.h"
#include "common/aligned.h"
#include "report.h"

namespace {

/** Size in bytes of the cache at sysfs index `i` of cpu0, or 0. */
size_t
cacheBytes(int level, const char *type)
{
    for (int i = 0; i < 8; ++i) {
        const std::string dir =
            "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
        std::ifstream lv(dir + "level"), ty(dir + "type"), sz(dir + "size");
        int l = 0;
        std::string t, s;
        if (!(lv >> l) || !(ty >> t) || !(sz >> s))
            continue;
        if (l != level || (t != type && t != "Unified"))
            continue;
        size_t v = std::strtoull(s.c_str(), nullptr, 10);
        if (s.back() == 'K')
            v <<= 10;
        else if (s.back() == 'M')
            v <<= 20;
        return v;
    }
    return 0;
}

/** Median GB/s of summing `bytes` of floats, over repeated sweeps. */
double
readGbps(size_t bytes)
{
    const size_t n = bytes / sizeof(float);
    reuse::AlignedVector<float> data(n, 1.0f);
    const size_t sweeps = std::max<size_t>(3, (size_t(2) << 30) / bytes);
    std::vector<double> gbps;
    volatile float sink = 0.0f;
    for (size_t r = 0; r < sweeps + 1; ++r) {
        const auto t0 = perfbench::Clock::now();
        float acc[16] = {};
        for (size_t i = 0; i + 16 <= n; i += 16)
            for (int k = 0; k < 16; ++k)
                acc[k] += data[i + static_cast<size_t>(k)];
        const double s = perfbench::secondsSince(t0);
        float total = 0.0f;
        for (float a : acc)
            total += a;
        sink = sink + total;
        if (r > 0) // the first sweep pulls the set into its level
            gbps.push_back(static_cast<double>(bytes) / s * 1e-9);
    }
    return perfbench::median(gbps);
}

} // namespace

int
main()
{
    const size_t l2 = cacheBytes(2, "Data");
    const size_t llc = std::max(cacheBytes(3, "Data"), l2);
    const size_t cap = size_t(512) << 20;
    std::printf("cache sizes (sysfs, cpu0): L2 %zu KB, LLC %zu KB\n", l2 >> 10,
                llc >> 10);
    struct Probe {
        const char *level;
        size_t bytes;
    };
    const Probe probes[] = {
        {"L2", l2 / 2},
        // A few L2s: where a shared LLC, if the host gives this core
        // one, serves a working set.
        {"4xL2", std::min(4 * l2, cap)},
        {"LLC", std::min(llc / 2, cap)},
        {"DRAM", std::min(std::max(4 * llc, size_t(64) << 20), cap)},
    };
    for (const Probe &p : probes) {
        if (p.bytes == 0)
            continue;
        std::printf("%-5s %8.1f MB working set: %6.1f GB/s read (1 thread)\n",
                    p.level, static_cast<double>(p.bytes) / (1 << 20),
                    readGbps(p.bytes));
    }
    return 0;
}
