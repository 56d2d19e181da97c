#include "obs/exemplar.h"

#include <utility>

namespace reuse {
namespace obs {

const char *
exemplarCauseName(uint32_t bit)
{
    switch (bit) {
      case kExemplarDeadlineMiss:
        return "deadline_miss";
      case kExemplarLatencyThreshold:
        return "latency_threshold";
      case kExemplarShed:
        return "shed";
      case kExemplarColdRewarm:
        return "cold_rewarm";
      case kExemplarLowReuse:
        return "low_reuse";
      default:
        return "unknown";
    }
}

ExemplarRecorder &
ExemplarRecorder::instance()
{
    // Leaked on purpose: worker threads may finish frames during
    // process teardown, same lifetime contract as TraceRecorder.
    static ExemplarRecorder *recorder = new ExemplarRecorder();
    return *recorder;
}

void
ExemplarRecorder::configure(const Policy &policy)
{
    {
        MutexLock lock(mu_);
        policy_ = policy;
        if (policy_.ringCapacity == 0)
            policy_.ringCapacity = 1;
        while (ring_.size() > policy_.ringCapacity)
            ring_.pop_front();
    }
    armed_.store(policy.armed, std::memory_order_release);
}

namespace {

/**
 * Steady-state reuse ratio over a frame's layer spans: 1 - performed
 * MACs / full MACs across non-first, reuse-enabled LayerExec spans.
 * Returns -1 when there is no such span (all-first-exec frames and
 * reuse-disabled models are never "low reuse").
 */
double
frameReuseRatio(const FrameBuffer &buf)
{
    int64_t full = 0;
    int64_t performed = 0;
    for (const TraceEvent &s : buf) {
        if (s.kind != SpanKind::LayerExec)
            continue;
        if (s.flags & kFlagFirstExecution)
            continue;
        if (!(s.flags & kFlagReuseEnabled))
            continue;
        full += s.c;
        performed += s.d;
    }
    if (full <= 0)
        return -1.0;
    double ratio = 1.0 - static_cast<double>(performed) /
                             static_cast<double>(full);
    return ratio < 0.0 ? 0.0 : ratio;
}

} // namespace

uint32_t
ExemplarRecorder::finishFrame(const FrameMeta &meta)
{
    if (!armed())
        return 0;
    FrameBuffer &buf = frameBuffer();
    if (buf.overflow > 0) {
        staging_overflows_.fetch_add(buf.overflow,
                                     std::memory_order_relaxed);
    }

    const int64_t latency_us = meta.completedMicros - meta.enqueuedMicros;
    const double reuse = frameReuseRatio(buf);

    uint32_t causes = 0;
    if (meta.deadlineMicros > 0 && meta.completedMicros > meta.deadlineMicros)
        causes |= kExemplarDeadlineMiss;
    {
        MutexLock lock(mu_);
        const size_t cls = meta.sloClass < kMaxClasses ? meta.sloClass : 0;
        const int64_t threshold = policy_.latencyThresholdMicros[cls];
        if (threshold > 0 && latency_us > threshold)
            causes |= kExemplarLatencyThreshold;
        if (policy_.lowReuseFloor >= 0.0 && reuse >= 0.0 &&
            reuse < policy_.lowReuseFloor) {
            causes |= kExemplarLowReuse;
        }
        if (meta.coldRewarm)
            causes |= kExemplarColdRewarm;

        if (causes == 0) {
            buf.clear();
            return 0;
        }

        Exemplar ex;
        ex.session = meta.session;
        ex.frame = meta.frame;
        ex.sloClass = meta.sloClass;
        ex.causes = causes;
        ex.truncated = buf.overflow > 0;
        ex.stolen = meta.stolen;
        ex.migrations = meta.migrations;
        ex.enqueuedMicros = meta.enqueuedMicros;
        ex.completedMicros = meta.completedMicros;
        ex.deadlineMicros = meta.deadlineMicros;
        ex.latencyUs = latency_us;
        ex.reuseRatio = reuse;
        ex.spans.assign(buf.begin(), buf.end());
        commit(std::move(ex));
    }
    buf.clear();
    return causes;
}

void
ExemplarRecorder::recordShed(uint64_t session, uint8_t slo_class,
                             int64_t pending, int64_t retry_after_us,
                             int64_t now_micros)
{
    TraceEvent shed;
    shed.kind = SpanKind::FrameShed;
    shed.startNs = TraceRecorder::instance().nowNs();
    shed.a = pending;
    shed.b = retry_after_us;
    shed.session = session;
    recordInstant(shed);
    if (!armed())
        return;
    Exemplar ex;
    ex.session = session;
    ex.sloClass = slo_class;
    ex.causes = kExemplarShed;
    ex.enqueuedMicros = now_micros;
    ex.completedMicros = now_micros;
    // Shed frames never executed; the instant carries the backoff
    // hint where the doctor can see it.
    ex.spans.push_back(shed);
    MutexLock lock(mu_);
    commit(std::move(ex));
}

void
ExemplarRecorder::commit(Exemplar &&ex)
{
    if (ring_.size() >= policy_.ringCapacity) {
        ring_.pop_front();
        dropped_.fetch_add(1, std::memory_order_relaxed);
    }
    ring_.push_back(std::move(ex));
    committed_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<Exemplar>
ExemplarRecorder::snapshot() const
{
    MutexLock lock(mu_);
    return std::vector<Exemplar>(ring_.begin(), ring_.end());
}

std::string
ExemplarRecorder::className(uint8_t slo_class) const
{
    MutexLock lock(mu_);
    if (slo_class < policy_.classNames.size() &&
        !policy_.classNames[slo_class].empty()) {
        return policy_.classNames[slo_class];
    }
    return "class" + std::to_string(static_cast<int>(slo_class));
}

void
ExemplarRecorder::clear()
{
    MutexLock lock(mu_);
    ring_.clear();
    committed_.store(0, std::memory_order_relaxed);
    dropped_.store(0, std::memory_order_relaxed);
    staging_overflows_.store(0, std::memory_order_relaxed);
}

} // namespace obs
} // namespace reuse
