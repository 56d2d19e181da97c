/**
 * @file
 * Low-overhead, always-compiled-but-sampled span tracing for the
 * reuse hot path, and the one per-frame capture path that feeds both
 * the trace rings and the tail-latency exemplars (obs/exemplar.h).
 *
 * Design (DESIGN.md §11):
 *  - Each thread owns one fixed-capacity ring of trace events.  The
 *    owning thread is the only writer; slots are seqlock-published
 *    (every field is a relaxed atomic, a per-slot sequence number is
 *    stored with release ordering after the payload), so concurrent
 *    snapshot readers are data-race-free (TSan-clean) and torn slots
 *    — a reader overlapping a wrap-around overwrite — are detected
 *    and skipped, never misreported.
 *  - Each thread also owns one FrameBuffer.  The outermost
 *    FrameTraceScope opens it when the frame is sampled
 *    (REUSE_TRACE_SAMPLE=1/N, 0 = off) or exemplar capture is armed;
 *    every span the frame emits is written into it exactly once.
 *    When the scope closes, a sampled frame publishes the buffer to
 *    the ring; ExemplarRecorder::finishFrame() commits the same
 *    buffer when an exemplar cause fires.  "Sampled" is one more
 *    commit cause.  Frames nobody captures pay one thread-local load
 *    and one branch per potential span.
 *  - Rare events (evictions, drift refreshes, shed frames,
 *    corruption recoveries) are recorded whenever tracing is enabled
 *    at all, independent of frame sampling — losing them would blind
 *    exactly the investigations they exist for.  Outside a sampled
 *    frame they go straight to the ring.
 *
 * The recorder is a process-wide singleton: spans from the serving
 * worker pool, the kernel thread pool and single-stream harness runs
 * all land in one trace, ordered by a global sequence number.
 */

#ifndef REUSE_DNN_OBS_TRACE_RECORDER_H
#define REUSE_DNN_OBS_TRACE_RECORDER_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/sync.h"

namespace reuse {
namespace obs {

/** Span taxonomy; names are stable identifiers in exported traces. */
enum class SpanKind : uint32_t {
    /** One frame entering the admission queue (instant; depth args). */
    FrameSubmit = 0,
    /** Submit-to-dequeue wait of one frame in the admission queue. */
    QueueWait,
    /** End-to-end execution of one frame against a session state. */
    FrameExec,
    /** One layer's execution inside a frame (similarity args). */
    LayerExec,
    /** Quantize + compare scan producing the change list. */
    LayerScan,
    /** Blocked delta-update apply of the change list. */
    LayerApply,
    /** From-scratch execution (cold state or refresh). */
    FirstExec,
    /** Intra-layer thread-pool dispatch of one parallel-for job. */
    PoolDispatch,
    /** DriftGuard forced a full refresh (instant). */
    DriftRefresh,
    /** A session's reuse buffers were evicted (instant). */
    Eviction,
    /** Corrupted session state detected and re-warmed (instant). */
    CorruptionRecovery,
    /** A frame was shed for overload (instant). */
    FrameShed,
    /** An idle worker stole a frame from another shard (instant). */
    Steal,
    /** A session migrated between shards (instant). */
    Migration,
    kCount,
};

/** Stable lowercase name of a span kind ("layer_exec", ...). */
const char *spanKindName(SpanKind kind);

/** True for kinds recorded as instants (no duration). */
bool isInstantKind(SpanKind kind);

/** Per-kind display names of the four generic args (nullptr = unused). */
struct SpanArgNames {
    const char *a = nullptr;
    const char *b = nullptr;
    const char *c = nullptr;
    const char *d = nullptr;
};
SpanArgNames spanArgNames(SpanKind kind);

/** Event flag bits (the `flags` field / exported "first" etc.). */
enum : uint32_t {
    kFlagFirstExecution = 1u << 0,
    kFlagReuseEnabled = 1u << 1,
    kFlagDriftRefresh = 1u << 2,
};

/**
 * One recorded span/instant: in the frame buffer, the rings (seq/tid
 * are filled in by snapshot()) and committed exemplars alike.
 */
struct TraceEvent {
    /** Global publication order (1-based, gap-free per thread). */
    uint64_t seq = 0;
    SpanKind kind = SpanKind::FrameExec;
    /** Stable display id of the emitting thread (0-based). */
    uint32_t tid = 0;
    /** Nanoseconds since the recorder's epoch. */
    int64_t startNs = 0;
    /** Span duration (0 for instants). */
    int64_t durNs = 0;
    /** Layer index; -1 when the span is not layer-scoped. */
    int32_t layer = -1;
    uint32_t flags = 0;
    /** Generic args; meaning per kind (see spanArgNames). */
    int64_t a = 0;
    int64_t b = 0;
    int64_t c = 0;
    int64_t d = 0;
    /** Serving session id (0 outside the serving runtime). */
    uint64_t session = 0;
    /** Frame index within the session's stream. */
    uint64_t frame = 0;
};

/** Passed as `frame` when the caller has no stream frame index. */
constexpr uint64_t kAutoFrame = ~uint64_t{0};

/**
 * Process-wide trace recorder.  See file comment for the model.
 */
class TraceRecorder
{
  public:
    /** Default per-thread ring capacity (events). */
    static constexpr size_t kDefaultRingCapacity = 8192;

    /** The singleton (created on first use; never destroyed). */
    static TraceRecorder &instance();

    /**
     * Sets the frame-sampling divisor: every Nth frame is traced;
     * 0 disables tracing entirely.  Runtime-tunable at any point.
     */
    void setSampleEvery(uint32_t n)
    {
        sample_every_.store(n, std::memory_order_relaxed);
    }

    uint32_t sampleEvery() const
    {
        return sample_every_.load(std::memory_order_relaxed);
    }

    /** True when tracing is on at all (sample divisor != 0). */
    bool enabled() const { return sampleEvery() != 0; }

    /**
     * Decides whether the frame that is about to execute on this
     * thread is sampled (global frame counter modulo the divisor).
     * @param tick Receives the global frame index of this tick (used
     *   as the frame id when the caller has none); may be nullptr.
     */
    bool sampleFrameTick(uint64_t *tick = nullptr);

    /**
     * Sampling decision for frequent standalone events that are not
     * tied to a frame's execution (e.g. submit-side queue-depth
     * instants): same divisor, independent counter, so it never
     * perturbs which frames sampleFrameTick() selects.
     */
    bool sampleEventTick();

    /**
     * Ring capacity for threads that register *after* this call
     * (existing rings keep their size).  Testing/benching hook.
     */
    void setRingCapacity(size_t capacity)
    {
        ring_capacity_.store(capacity, std::memory_order_relaxed);
    }

    /** Appends one event to the calling thread's ring. */
    void record(const TraceEvent &ev);

    /**
     * Copies all published events out of every ring, ordered by
     * global sequence number.  Safe concurrently with writers; events
     * overwritten mid-copy are skipped, never torn.
     */
    std::vector<TraceEvent> snapshot() const;

    /** Events dropped to ring wrap-around since the last clear(). */
    uint64_t droppedEvents() const;

    /** Empties every ring and zeroes the drop counter. */
    void clear();

    /** Nanoseconds since the recorder's epoch (steady clock). */
    int64_t nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - epoch_)
            .count();
    }

    /** Converts a steady_clock time_point to epoch-relative ns. */
    int64_t toNs(std::chrono::steady_clock::time_point tp) const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   tp - epoch_)
            .count();
    }

    /**
     * Parses a REUSE_TRACE_SAMPLE-style spec: "0" (off), "N" or
     * "1/N" (every Nth frame).  Returns false on malformed input.
     */
    static bool parseSampleSpec(const std::string &spec, uint32_t *out);

  private:
    TraceRecorder();

    struct ThreadRing;

    /** The calling thread's ring, registering it on first use. */
    ThreadRing &ring();

    std::chrono::steady_clock::time_point epoch_;
    std::atomic<uint32_t> sample_every_{0};
    std::atomic<size_t> ring_capacity_{kDefaultRingCapacity};
    std::atomic<uint64_t> frame_counter_{0};
    std::atomic<uint64_t> event_counter_{0};
    std::atomic<uint64_t> next_seq_{1};

    /**
     * Guards the rings_ *vector* only (registration vs traversal);
     * slot contents are seqlock-published atomics that writers update
     * without this lock.  Reader/writer: snapshot exports and drop
     * queries share, thread registration and clear() are exclusive.
     */
    mutable SharedMutex rings_mu_;
    std::vector<std::unique_ptr<ThreadRing>> rings_
        GUARDED_BY(rings_mu_);
};

/**
 * Per-thread buffer of the spans of one captured frame, opened by the
 * outermost FrameTraceScope.  While exemplar capture is armed the
 * spans outlive the scope until ExemplarRecorder::finishFrame()
 * consumes them on the same thread.
 */
struct FrameBuffer {
    /** Span cap of a frame captured for exemplars only (overflow is
     *  counted and truncates); sampled frames are uncapped. */
    static constexpr size_t kUnsampledCapacity = 96;

    /** Slot storage: grows to the largest frame seen, never shrinks. */
    std::vector<TraceEvent> slots;
    /** The current frame's spans are slots[0, count). */
    size_t count = 0;
    /** Leading spans already published to the ring. */
    size_t published = 0;
    /** Spans that did not fit since the last open(). */
    uint32_t overflow = 0;
    size_t limit = 0;

    const TraceEvent *begin() const { return slots.data(); }
    const TraceEvent *end() const { return slots.data() + count; }

    /** Drops the buffered spans (storage is kept). */
    void clear()
    {
        count = 0;
        published = 0;
        overflow = 0;
    }

    /** Empties the buffer for a new frame. */
    void open(bool sampled)
    {
        clear();
        limit = sampled ? SIZE_MAX : kUnsampledCapacity;
    }

    /** Next slot, for the caller to overwrite in full but seq/tid
     *  (no zeroing or staging copy); nullptr when the frame is full. */
    TraceEvent *append()
    {
        if (count >= limit) {
            ++overflow;
            return nullptr;
        }
        if (count == slots.size())
            slots.emplace_back();
        return &slots[count++];
    }

    /** Appends a copy of a fully built event. */
    void add(const TraceEvent &ev)
    {
        if (TraceEvent *slot = append())
            *slot = ev;
    }
};

/** The calling thread's frame buffer (created on first use). */
FrameBuffer &frameBuffer();

/**
 * Per-thread frame trace context: which session/frame the spans
 * emitted on this thread belong to, whether the current frame is
 * sampled, and the open frame buffer (null when nobody captures the
 * frame).  Managed by FrameTraceScope; read by TraceSpan.
 */
struct FrameContext {
    int depth = 0;
    bool sampled = false;
    uint64_t session = 0;
    uint64_t frame = 0;
    FrameBuffer *buffer = nullptr;
};

/** The calling thread's frame context (for tests/instrumentation). */
FrameContext &frameContext();

/**
 * RAII scope around one frame's execution.  The outermost scope on a
 * thread makes the sampling decision, opens the frame buffer when the
 * frame is sampled or the exemplar recorder is armed, and on exit
 * appends a FrameExec span and publishes a sampled frame's buffer to
 * the ring.  Nested scopes (the engine under the serving runtime)
 * are pass-throughs that keep the outer decision and identifiers.
 */
class FrameTraceScope
{
  public:
    /**
     * @param session Serving session id (0 for single-stream runs).
     * @param frame Frame index within the stream; kAutoFrame derives
     *   a process-global index (single-stream harness runs).
     */
    FrameTraceScope(uint64_t session, uint64_t frame);
    ~FrameTraceScope();

    FrameTraceScope(const FrameTraceScope &) = delete;
    FrameTraceScope &operator=(const FrameTraceScope &) = delete;

    /** True when this frame's spans are captured at all. */
    bool active() const { return frameContext().buffer != nullptr; }

  private:
    bool outer_ = false;
    int64_t start_ = 0;
};

/**
 * RAII span: writes [construction, destruction) into the open frame
 * buffer, else costs one branch.
 */
class TraceSpan
{
  public:
    explicit TraceSpan(SpanKind kind, int32_t layer = -1);
    ~TraceSpan();

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

    /** Attaches the kind-specific args (see spanArgNames). */
    void args(int64_t a, int64_t b = 0, int64_t c = 0, int64_t d = 0,
              uint32_t flags = 0)
    {
        a_ = a;
        b_ = b;
        c_ = c;
        d_ = d;
        flags_ = flags;
    }

    /**
     * True when the span is captured, so callers know to compute and
     * attach args.  Exemplar capture with tracing off still needs the
     * per-layer MAC counts for reuse-ratio and attribution.
     */
    bool active() const { return buffer_ != nullptr; }

  private:
    FrameBuffer *buffer_;
    SpanKind kind_;
    int32_t layer_;
    int64_t start_ = 0;
    int64_t a_ = 0, b_ = 0, c_ = 0, d_ = 0;
    uint32_t flags_ = 0;
};

/**
 * Records a rare instant event (eviction, refresh, shed, ...).
 * Subject only to tracing being enabled, not to frame sampling; also
 * written into the open frame buffer (even with tracing off).
 */
void recordInstant(SpanKind kind, int32_t layer = -1, int64_t a = 0,
                   int64_t b = 0, int64_t c = 0, int64_t d = 0,
                   uint64_t session = 0, uint64_t frame = 0);

/** As above, for an instant the caller already built (startNs set). */
void recordInstant(const TraceEvent &ev);

/**
 * Records a span whose endpoints were measured externally (e.g. the
 * queue wait between submit and dequeue) into the open frame buffer.
 */
void recordSpanAt(SpanKind kind, int64_t start_ns, int64_t end_ns,
                  uint64_t session, uint64_t frame, int64_t a = 0,
                  int64_t b = 0);

/**
 * Publishes the calling thread's open sampled frame to the ring now,
 * so a postmortem dump taken mid-frame holds its closed spans.
 */
void flushOpenFrame();

} // namespace obs
} // namespace reuse

#endif // REUSE_DNN_OBS_TRACE_RECORDER_H
