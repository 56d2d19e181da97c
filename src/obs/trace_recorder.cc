#include "trace_recorder.h"

#include <algorithm>
#include <cstdlib>

#include "obs/exemplar.h"

namespace reuse {
namespace obs {

const char *
spanKindName(SpanKind kind)
{
    switch (kind) {
      case SpanKind::FrameSubmit: return "frame_submit";
      case SpanKind::QueueWait: return "queue_wait";
      case SpanKind::FrameExec: return "frame_exec";
      case SpanKind::LayerExec: return "layer_exec";
      case SpanKind::LayerScan: return "layer_scan";
      case SpanKind::LayerApply: return "layer_apply";
      case SpanKind::FirstExec: return "first_exec";
      case SpanKind::PoolDispatch: return "pool_dispatch";
      case SpanKind::DriftRefresh: return "drift_refresh";
      case SpanKind::Eviction: return "eviction";
      case SpanKind::CorruptionRecovery: return "corruption_recovery";
      case SpanKind::FrameShed: return "frame_shed";
      case SpanKind::Steal: return "steal";
      case SpanKind::Migration: return "migration";
      case SpanKind::kCount: break;
    }
    return "unknown";
}

bool
isInstantKind(SpanKind kind)
{
    switch (kind) {
      case SpanKind::FrameSubmit:
      case SpanKind::DriftRefresh:
      case SpanKind::Eviction:
      case SpanKind::CorruptionRecovery:
      case SpanKind::FrameShed:
      case SpanKind::Steal:
      case SpanKind::Migration:
        return true;
      default:
        return false;
    }
}

SpanArgNames
spanArgNames(SpanKind kind)
{
    switch (kind) {
      case SpanKind::LayerExec:
      case SpanKind::FirstExec:
        return {"checked", "changed", "macs_full", "macs_performed"};
      case SpanKind::LayerScan:
        return {"inputs", "changed", nullptr, nullptr};
      case SpanKind::LayerApply:
        return {"changes", "outputs", nullptr, nullptr};
      case SpanKind::FrameSubmit:
        return {"queue_depth", "pending", nullptr, nullptr};
      case SpanKind::PoolDispatch:
        return {"total", "grain", nullptr, nullptr};
      case SpanKind::Eviction:
        return {"bytes", "charged_bytes", nullptr, nullptr};
      case SpanKind::DriftRefresh:
        return {"executions_since_refresh", nullptr, nullptr, nullptr};
      case SpanKind::FrameShed:
        return {"pending", "retry_after_us", nullptr, nullptr};
      case SpanKind::Steal:
        return {"home_shard", "thief_shard", nullptr, nullptr};
      case SpanKind::Migration:
        return {"from_shard", "to_shard", nullptr, nullptr};
      default:
        return {};
    }
}

/**
 * Single-writer ring of seqlock-published slots.  Every slot field is
 * a relaxed atomic (data-race freedom); `seq` is written 0 (release)
 * before the payload and the event's global sequence (release) after
 * it, so a reader that sees the same non-zero seq before and after
 * copying the payload holds a consistent event.
 */
struct TraceRecorder::ThreadRing {
    struct Slot {
        std::atomic<uint64_t> seq{0};
        std::atomic<uint32_t> kind{0};
        std::atomic<int64_t> start_ns{0};
        std::atomic<int64_t> dur_ns{0};
        std::atomic<int32_t> layer{-1};
        std::atomic<uint32_t> flags{0};
        std::atomic<int64_t> a{0};
        std::atomic<int64_t> b{0};
        std::atomic<int64_t> c{0};
        std::atomic<int64_t> d{0};
        std::atomic<uint64_t> session{0};
        std::atomic<uint64_t> frame{0};
    };

    ThreadRing(uint32_t tid, size_t capacity)
        : tid(tid), slots(capacity)
    {
    }

    const uint32_t tid;
    std::vector<Slot> slots;
    /** Events ever written to this ring (head = written % capacity). */
    std::atomic<uint64_t> written{0};
    std::atomic<uint64_t> dropped{0};
};

TraceRecorder::TraceRecorder()
    : epoch_(std::chrono::steady_clock::now())
{
    if (const char *spec = std::getenv("REUSE_TRACE_SAMPLE")) {
        uint32_t n = 0;
        if (parseSampleSpec(spec, &n))
            sample_every_.store(n, std::memory_order_relaxed);
    }
}

TraceRecorder &
TraceRecorder::instance()
{
    // Leaked on purpose: worker threads may trace during static
    // destruction of other objects.
    static TraceRecorder *recorder = new TraceRecorder();
    return *recorder;
}

bool
TraceRecorder::parseSampleSpec(const std::string &spec, uint32_t *out)
{
    std::string num = spec;
    const size_t slash = spec.find('/');
    if (slash != std::string::npos) {
        // "1/N" form: the numerator must literally be 1.
        if (spec.substr(0, slash) != "1")
            return false;
        num = spec.substr(slash + 1);
    }
    if (num.empty() ||
        num.find_first_not_of("0123456789") != std::string::npos)
        return false;
    const unsigned long v = std::strtoul(num.c_str(), nullptr, 10);
    if (v > 0xFFFFFFFFul)
        return false;
    *out = static_cast<uint32_t>(v);
    return true;
}

bool
TraceRecorder::sampleFrameTick(uint64_t *tick)
{
    const uint32_t every = sample_every_.load(std::memory_order_relaxed);
    if (every == 0)
        return false;
    const uint64_t n =
        frame_counter_.fetch_add(1, std::memory_order_relaxed);
    if (tick != nullptr)
        *tick = n;
    return n % every == 0;
}

bool
TraceRecorder::sampleEventTick()
{
    const uint32_t every = sample_every_.load(std::memory_order_relaxed);
    if (every == 0)
        return false;
    return event_counter_.fetch_add(1, std::memory_order_relaxed) %
               every ==
           0;
}

TraceRecorder::ThreadRing &
TraceRecorder::ring()
{
    thread_local ThreadRing *tls_ring = nullptr;
    if (tls_ring == nullptr) {
        WriterMutexLock lock(rings_mu_);
        const uint32_t tid = static_cast<uint32_t>(rings_.size());
        rings_.push_back(std::make_unique<ThreadRing>(
            tid, ring_capacity_.load(std::memory_order_relaxed)));
        tls_ring = rings_.back().get();
    }
    return *tls_ring;
}

void
TraceRecorder::record(const TraceEvent &ev)
{
    ThreadRing &r = ring();
    const size_t capacity = r.slots.size();
    if (capacity == 0)
        return;
    const uint64_t n = r.written.load(std::memory_order_relaxed);
    if (n >= capacity)
        r.dropped.fetch_add(1, std::memory_order_relaxed);
    ThreadRing::Slot &slot = r.slots[n % capacity];
    const uint64_t seq =
        next_seq_.fetch_add(1, std::memory_order_relaxed);

    slot.seq.store(0, std::memory_order_release);
    slot.kind.store(static_cast<uint32_t>(ev.kind),
                    std::memory_order_relaxed);
    slot.start_ns.store(ev.startNs, std::memory_order_relaxed);
    slot.dur_ns.store(ev.durNs, std::memory_order_relaxed);
    slot.layer.store(ev.layer, std::memory_order_relaxed);
    slot.flags.store(ev.flags, std::memory_order_relaxed);
    slot.a.store(ev.a, std::memory_order_relaxed);
    slot.b.store(ev.b, std::memory_order_relaxed);
    slot.c.store(ev.c, std::memory_order_relaxed);
    slot.d.store(ev.d, std::memory_order_relaxed);
    slot.session.store(ev.session, std::memory_order_relaxed);
    slot.frame.store(ev.frame, std::memory_order_relaxed);
    slot.seq.store(seq, std::memory_order_release);
    r.written.store(n + 1, std::memory_order_release);
}

std::vector<TraceEvent>
TraceRecorder::snapshot() const
{
    std::vector<TraceEvent> events;
    ReaderMutexLock lock(rings_mu_);
    for (const auto &ring : rings_) {
        const size_t capacity = ring->slots.size();
        const uint64_t written =
            ring->written.load(std::memory_order_acquire);
        const uint64_t valid = std::min<uint64_t>(written, capacity);
        for (uint64_t i = 0; i < valid; ++i) {
            const ThreadRing::Slot &slot = ring->slots[i];
            const uint64_t seq0 =
                slot.seq.load(std::memory_order_acquire);
            if (seq0 == 0)
                continue; // empty or mid-write
            TraceEvent ev;
            ev.seq = seq0;
            ev.tid = ring->tid;
            ev.kind = static_cast<SpanKind>(
                slot.kind.load(std::memory_order_relaxed));
            ev.startNs = slot.start_ns.load(std::memory_order_relaxed);
            ev.durNs = slot.dur_ns.load(std::memory_order_relaxed);
            ev.layer = slot.layer.load(std::memory_order_relaxed);
            ev.flags = slot.flags.load(std::memory_order_relaxed);
            ev.a = slot.a.load(std::memory_order_relaxed);
            ev.b = slot.b.load(std::memory_order_relaxed);
            ev.c = slot.c.load(std::memory_order_relaxed);
            ev.d = slot.d.load(std::memory_order_relaxed);
            ev.session = slot.session.load(std::memory_order_relaxed);
            ev.frame = slot.frame.load(std::memory_order_relaxed);
            // Seqlock check: the slot was overwritten while we read
            // it iff the sequence changed; skip the torn copy.
            if (slot.seq.load(std::memory_order_acquire) != seq0)
                continue;
            events.push_back(ev);
        }
    }
    std::sort(events.begin(), events.end(),
              [](const TraceEvent &x, const TraceEvent &y) {
                  return x.seq < y.seq;
              });
    return events;
}

uint64_t
TraceRecorder::droppedEvents() const
{
    uint64_t total = 0;
    ReaderMutexLock lock(rings_mu_);
    for (const auto &ring : rings_)
        total += ring->dropped.load(std::memory_order_relaxed);
    return total;
}

void
TraceRecorder::clear()
{
    WriterMutexLock lock(rings_mu_);
    for (const auto &ring : rings_) {
        for (auto &slot : ring->slots)
            slot.seq.store(0, std::memory_order_release);
        ring->written.store(0, std::memory_order_release);
        ring->dropped.store(0, std::memory_order_relaxed);
    }
}

FrameContext &
frameContext()
{
    thread_local FrameContext ctx;
    return ctx;
}

FrameBuffer &
frameBuffer()
{
    thread_local FrameBuffer buffer;
    return buffer;
}

namespace {

/** Publishes the buffer's not-yet-published events to the ring. */
void
publish(FrameBuffer &buf)
{
    TraceRecorder &rec = TraceRecorder::instance();
    for (; buf.published < buf.count; ++buf.published)
        rec.record(buf.slots[buf.published]);
}

} // namespace

FrameTraceScope::FrameTraceScope(uint64_t session, uint64_t frame)
{
    FrameContext &ctx = frameContext();
    outer_ = ctx.depth == 0;
    ++ctx.depth;
    if (!outer_)
        return;
    TraceRecorder &rec = TraceRecorder::instance();
    uint64_t tick = 0;
    ctx.sampled = rec.sampleFrameTick(&tick);
    if (!ctx.sampled && !ExemplarRecorder::instance().armed())
        return;
    FrameBuffer &buf = frameBuffer();
    buf.open(ctx.sampled);
    ctx.buffer = &buf;
    ctx.session = session;
    ctx.frame = frame == kAutoFrame ? tick : frame;
    start_ = rec.nowNs();
}

FrameTraceScope::~FrameTraceScope()
{
    FrameContext &ctx = frameContext();
    --ctx.depth;
    if (!outer_ || ctx.buffer == nullptr)
        return;
    TraceEvent ev;
    ev.kind = SpanKind::FrameExec;
    ev.startNs = start_;
    ev.durNs = TraceRecorder::instance().nowNs() - start_;
    ev.session = ctx.session;
    ev.frame = ctx.frame;
    ctx.buffer->add(ev);
    if (ctx.sampled)
        publish(*ctx.buffer);
    // Armed: the spans stay for the caller's finishFrame().
    if (!ExemplarRecorder::instance().armed())
        ctx.buffer->clear();
    ctx.sampled = false;
    ctx.buffer = nullptr;
}

TraceSpan::TraceSpan(SpanKind kind, int32_t layer)
    : buffer_(frameContext().buffer), kind_(kind), layer_(layer)
{
    if (buffer_ != nullptr)
        start_ = TraceRecorder::instance().nowNs();
}

TraceSpan::~TraceSpan()
{
    if (buffer_ == nullptr)
        return;
    const int64_t end = TraceRecorder::instance().nowNs();
    TraceEvent *ev = buffer_->append();
    if (ev == nullptr)
        return;
    const FrameContext &ctx = frameContext();
    ev->kind = kind_;
    ev->startNs = start_;
    ev->durNs = end - start_;
    ev->layer = layer_;
    ev->flags = flags_;
    ev->a = a_;
    ev->b = b_;
    ev->c = c_;
    ev->d = d_;
    ev->session = ctx.session;
    ev->frame = ctx.frame;
}

void
recordInstant(SpanKind kind, int32_t layer, int64_t a, int64_t b,
              int64_t c, int64_t d, uint64_t session, uint64_t frame)
{
    TraceRecorder &rec = TraceRecorder::instance();
    if (!rec.enabled() && frameContext().buffer == nullptr)
        return;
    TraceEvent ev;
    ev.kind = kind;
    ev.startNs = rec.nowNs();
    ev.layer = layer;
    ev.a = a;
    ev.b = b;
    ev.c = c;
    ev.d = d;
    ev.session = session;
    ev.frame = frame;
    recordInstant(ev);
}

void
recordInstant(const TraceEvent &ev)
{
    const FrameContext &ctx = frameContext();
    if (ctx.buffer != nullptr)
        ctx.buffer->add(ev);
    // A sampled frame publishes its buffer when it closes; every
    // other instant goes straight to the ring.
    TraceRecorder &rec = TraceRecorder::instance();
    if (rec.enabled() && !ctx.sampled)
        rec.record(ev);
}

void
recordSpanAt(SpanKind kind, int64_t start_ns, int64_t end_ns,
             uint64_t session, uint64_t frame, int64_t a, int64_t b)
{
    FrameBuffer *buf = frameContext().buffer;
    if (buf == nullptr)
        return;
    TraceEvent ev;
    ev.kind = kind;
    ev.startNs = start_ns;
    ev.durNs = end_ns > start_ns ? end_ns - start_ns : 0;
    ev.a = a;
    ev.b = b;
    ev.session = session;
    ev.frame = frame;
    buf->add(ev);
}

void
flushOpenFrame()
{
    const FrameContext &ctx = frameContext();
    if (ctx.sampled && ctx.buffer != nullptr)
        publish(*ctx.buffer);
}

} // namespace obs
} // namespace reuse
