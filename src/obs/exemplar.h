/**
 * @file
 * Retroactive tail-latency exemplar capture.
 *
 * The 1-in-N frame sampling of trace_recorder.h statistically misses
 * exactly the frames an on-call engineer needs: the p99 outliers.
 * This module captures them *after the fact*: while the exemplar
 * recorder is armed, every frame writes its spans (queue wait, steal
 * and migration hops, per-layer scan/apply/first-exec, drift
 * refreshes) into the thread's FrameBuffer (obs/trace_recorder.h),
 * the one buffer a sampled frame also publishes to the trace ring.
 * On completion the serving layer calls finishFrame(), which commits
 * the buffered causal timeline to a bounded exemplar ring ONLY when
 * the frame was actually bad — it missed its deadline, exceeded its
 * class's latency threshold, ran cold after an eviction, or fell
 * under a reuse floor.  Healthy frames pay the buffer writes and one
 * discard; nothing is allocated in steady state.  The committed ring
 * outlives trace-ring wrap, so it stays a separate store.
 *
 * Layering: this header knows nothing about src/serve.  SLO classes
 * arrive as plain ordinals with caller-supplied display names, and
 * all timestamps are caller-supplied microseconds from the serving
 * clock seam (virtual in tests), so capture decisions are exactly
 * reproducible under tests/support/virtual_clock.h.
 */

#ifndef REUSE_DNN_OBS_EXEMPLAR_H
#define REUSE_DNN_OBS_EXEMPLAR_H

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/sync.h"
#include "obs/trace_recorder.h"

namespace reuse {
namespace obs {

/** Why an exemplar was committed (bitmask; a frame can have many). */
enum : uint32_t {
    kExemplarDeadlineMiss = 1u << 0,
    kExemplarLatencyThreshold = 1u << 1,
    kExemplarShed = 1u << 2,
    kExemplarColdRewarm = 1u << 3,
    kExemplarLowReuse = 1u << 4,
};

/** Stable lowercase name of one cause bit ("deadline_miss", ...). */
const char *exemplarCauseName(uint32_t bit);

/** One committed exemplar: a bad frame's full causal timeline. */
struct Exemplar {
    uint64_t session = 0;
    uint64_t frame = 0;
    /** SLO class ordinal (see ExemplarRecorder::Policy::classNames). */
    uint8_t sloClass = 0;
    /** OR of kExemplar* cause bits (never 0 on a committed record). */
    uint32_t causes = 0;
    /** True when the frame buffer overflowed (spans missing). */
    bool truncated = false;
    /** True when an idle worker stole the frame from its home shard. */
    bool stolen = false;
    /** Placement epochs the session crossed while this frame waited. */
    uint32_t migrations = 0;
    /** Serve-clock microseconds (virtual under the test clock). */
    int64_t enqueuedMicros = 0;
    int64_t completedMicros = 0;
    int64_t deadlineMicros = 0;
    /** Submit-to-completion latency (0 for shed frames). */
    int64_t latencyUs = 0;
    /**
     * Steady-state computation reuse over the frame's layer spans
     * (first executions excluded); -1 when it had no steady span.
     */
    double reuseRatio = -1.0;
    /** The frame's spans, in emission order (seq/tid unused). */
    std::vector<TraceEvent> spans;
};

/**
 * Process-wide exemplar recorder.  configure() arms it; the serving
 * layer reports frame completions through finishFrame() and admission
 * sheds through recordShed().  Committed exemplars live in a bounded
 * ring (oldest evicted first, counted as dropped) until snapshot() or
 * clear().
 */
class ExemplarRecorder
{
  public:
    /** Maximum SLO class ordinals the policy tables cover. */
    static constexpr size_t kMaxClasses = 8;

    struct Policy {
        bool armed = false;
        /**
         * Per-class commit thresholds in microseconds; a completion
         * with latency strictly above its class threshold commits.
         * <= 0 disables the threshold cause for that class (deadline
         * misses still commit).
         */
        int64_t latencyThresholdMicros[kMaxClasses] = {0};
        /**
         * Commit steady-state frames whose computation reuse fell
         * strictly below this floor; < 0 disables the cause.
         */
        double lowReuseFloor = -1.0;
        /** Committed-exemplar ring capacity. */
        size_t ringCapacity = 256;
        /** Display names per class ordinal ("interactive", ...). */
        std::vector<std::string> classNames;
    };

    /** The singleton (created on first use; never destroyed). */
    static ExemplarRecorder &instance();

    /** Replaces the policy; arms/disarms capture process-wide. */
    void configure(const Policy &policy) EXCLUDES(mu_);

    /** True when every frame must buffer its spans (one relaxed load). */
    bool armed() const
    {
        return armed_.load(std::memory_order_relaxed);
    }

    /** Completion-side metadata supplied by the serving layer. */
    struct FrameMeta {
        uint64_t session = 0;
        uint64_t frame = 0;
        uint8_t sloClass = 0;
        int64_t enqueuedMicros = 0;
        int64_t completedMicros = 0;
        int64_t deadlineMicros = 0;
        /** Frame executed cold because its state had been evicted. */
        bool coldRewarm = false;
        bool stolen = false;
        uint32_t migrations = 0;
    };

    /**
     * Commit decision for the frame whose spans the calling thread
     * just buffered (call after the frame's FrameTraceScope closed,
     * on the same thread).  Consumes the frame buffer.  Returns the
     * cause mask (0 = healthy, nothing committed).
     */
    uint32_t finishFrame(const FrameMeta &meta) EXCLUDES(mu_);

    /**
     * Reports a frame shed at admission: records the FrameShed
     * instant (args: pending frames, backoff) and, when armed,
     * commits a minimal exemplar holding just that instant — the
     * frame never executed.
     */
    void recordShed(uint64_t session, uint8_t slo_class,
                    int64_t pending, int64_t retry_after_us,
                    int64_t now_micros) EXCLUDES(mu_);

    /** Copies the committed ring, oldest first. */
    std::vector<Exemplar> snapshot() const EXCLUDES(mu_);

    /** Display name of a class ordinal ("class<N>" when unnamed). */
    std::string className(uint8_t slo_class) const EXCLUDES(mu_);

    /** Exemplars committed since the last clear(). */
    uint64_t committed() const
    {
        return committed_.load(std::memory_order_relaxed);
    }

    /** Exemplars evicted from the full ring since the last clear(). */
    uint64_t dropped() const
    {
        return dropped_.load(std::memory_order_relaxed);
    }

    /** Spans lost to frame-buffer overflow since the last clear(). */
    uint64_t stagingOverflows() const
    {
        return staging_overflows_.load(std::memory_order_relaxed);
    }

    /** Empties the ring and zeroes all counters (tests/benches). */
    void clear() EXCLUDES(mu_);

  private:
    ExemplarRecorder() = default;

    void commit(Exemplar &&ex) REQUIRES(mu_);

    std::atomic<bool> armed_{false};
    std::atomic<uint64_t> committed_{0};
    std::atomic<uint64_t> dropped_{0};
    std::atomic<uint64_t> staging_overflows_{0};

    mutable Mutex mu_;
    Policy policy_ GUARDED_BY(mu_);
    std::deque<Exemplar> ring_ GUARDED_BY(mu_);
};

} // namespace obs
} // namespace reuse

#endif // REUSE_DNN_OBS_EXEMPLAR_H
