/**
 * @file
 * Sharded EDF run queues: the scheduling core of the serving runtime.
 *
 * One global FIFO queue feeding all workers would, under load,
 * scatter a session's frames across cores (ReuseState pages
 * ping-pong between caches) and make a 10 ms-deadline speech frame
 * wait behind a 1 s-deadline batch frame.  This container instead
 * keeps one run queue per shard (striped locks, workers pinned to a
 * home shard) ordered by Earliest Deadline First, plus:
 *
 *  - shed-on-admission: admitFrame() runs the EDF feasibility test —
 *    a frame is rejected up front when, at the shard's measured
 *    service rate, it provably cannot meet its deadline or would push
 *    an already-admitted frame past its own.  The retry hint is
 *    derived from the deadline math, not a fixed constant.
 *  - work stealing only on idle: a worker first drains its home
 *    shard; only when that is empty may it take the earliest-deadline
 *    entry of another shard (spare capacity helps the stragglers, but
 *    busy shards keep their sessions' reuse state cache-resident).
 *  - epoch-stale entries: queue entries carry the payload owner's
 *    placement epoch; migration bumps the epoch and re-queues on the
 *    new shard, and consumers discard entries whose epoch no longer
 *    matches (removing from the middle of a binary heap is not worth
 *    the bookkeeping).
 *
 * Determinism seam: every operation takes explicit timestamps and the
 * try* APIs never block, so a single-threaded test harness with a
 * virtual clock (tests/support/virtual_clock.h) can drive admission,
 * EDF ordering, deadline misses and stealing with no wall-clock
 * sleeps.  Only popBlocking() — the worker-thread entry point — ever
 * waits, on a parking condvar with a lost-wakeup-proof epoch.
 */

#ifndef REUSE_DNN_SERVE_SHARD_SCHEDULER_H
#define REUSE_DNN_SERVE_SHARD_SCHEDULER_H

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/sync.h"

namespace reuse {

/**
 * Per-shard EDF priority queues with deadline-based admission.
 * `Payload` is the scheduled unit (the server uses
 * std::shared_ptr<Session>; tests use plain ints).
 */
template <typename Payload>
class EdfShardQueues
{
  public:
    struct Config {
        /** Number of shards (>= 1). */
        size_t shards = 1;
        /**
         * Admitted-frame bound per shard (admitFrame only; 0 = no
         * bound).  forceAdmitFrame ignores it.
         */
        size_t capacityPerShard = 0;
        /**
         * Workers draining one shard; the feasibility test models the
         * shard as a single server of rate workersPerShard / service.
         */
        size_t workersPerShard = 1;
        /**
         * Seed of the per-shard service-time EWMA.  0 = no estimate:
         * admission is capacity-only until the first completion
         * reports a measured service time.
         */
        int64_t initialServiceEstimateMicros = 0;
    };

    /** One queued schedulable unit. */
    struct Entry {
        int64_t deadlineMicros = 0;
        /** FIFO tiebreak among equal deadlines (per shard). */
        uint64_t seq = 0;
        /** Owner's placement epoch at push time (stale detection). */
        uint64_t epoch = 0;
        Payload payload{};
    };

    /** Outcome of a deadline-checked admission. */
    struct Admit {
        bool admitted = true;
        /**
         * On rejection: micros until a frame with the same budget
         * could plausibly be admitted (backlog excess plus one
         * service slot).
         */
        int64_t retryAfterMicros = 0;
    };

    explicit EdfShardQueues(Config config) : config_(config)
    {
        REUSE_ASSERT(config_.shards >= 1, "need at least one shard");
        if (config_.workersPerShard == 0)
            config_.workersPerShard = 1;
        shards_.reserve(config_.shards);
        for (size_t i = 0; i < config_.shards; ++i)
            shards_.push_back(std::make_unique<Shard>());
        for (auto &shard : shards_)
            shard->service_ewma_us = config_.initialServiceEstimateMicros;
    }

    EdfShardQueues(const EdfShardQueues &) = delete;
    EdfShardQueues &operator=(const EdfShardQueues &) = delete;

    size_t shardCount() const { return shards_.size(); }

    /**
     * EDF feasibility-checked admission of one frame with absolute
     * deadline `deadline_us`.  Admits (and accounts the deadline)
     * unless the shard is at capacity, the frame itself cannot finish
     * by its deadline at the measured service rate, or inserting it
     * would push an already-admitted frame past its own deadline.
     */
    Admit
    admitFrame(size_t shard_index, int64_t now_us, int64_t deadline_us)
    {
        Shard &s = shard(shard_index);
        MutexLock lock(s.mu);
        Admit out;
        const int64_t per = perSlotMicrosLocked(s);
        if (config_.capacityPerShard != 0 &&
            s.deadlines.size() >= config_.capacityPerShard) {
            out.admitted = false;
            // One admitted frame must complete before a slot frees.
            out.retryAfterMicros = std::max<int64_t>(per, 1);
            return out;
        }
        if (per > 0) {
            // Position the frame would take under EDF (frames with
            // earlier-or-equal deadlines run first; FIFO tiebreak).
            const auto it = std::upper_bound(
                s.deadlines.begin(), s.deadlines.end(), deadline_us);
            const size_t pos =
                static_cast<size_t>(it - s.deadlines.begin());
            const int64_t completion =
                now_us + static_cast<int64_t>(pos + 1) * per;
            if (completion > deadline_us) {
                out.admitted = false;
                out.retryAfterMicros =
                    std::max<int64_t>(completion - deadline_us, per);
                return out;
            }
            // Frames displaced one slot right must still make it.
            for (size_t i = pos; i < s.deadlines.size(); ++i) {
                const int64_t displaced =
                    now_us + static_cast<int64_t>(i + 2) * per;
                if (displaced > s.deadlines[i]) {
                    out.admitted = false;
                    out.retryAfterMicros = per;
                    return out;
                }
            }
        }
        insertDeadlineLocked(s, deadline_us);
        return out;
    }

    /** Unchecked admission (blocking submit path; never sheds). */
    void
    forceAdmitFrame(size_t shard_index, int64_t deadline_us)
    {
        Shard &s = shard(shard_index);
        MutexLock lock(s.mu);
        insertDeadlineLocked(s, deadline_us);
    }

    /**
     * Retires one admitted frame and feeds the measured service time
     * into the shard's EWMA (the admission feasibility estimate).
     * Tolerates a deadline no longer accounted here (migration races
     * resolve in the moving frame's favor).
     */
    void
    completeFrame(size_t shard_index, int64_t deadline_us,
                  int64_t service_us)
    {
        Shard &s = shard(shard_index);
        MutexLock lock(s.mu);
        eraseDeadlineLocked(s, deadline_us);
        if (service_us > 0) {
            s.service_ewma_us =
                s.service_ewma_us == 0
                    ? service_us
                    : (3 * s.service_ewma_us + service_us) / 4;
        }
    }

    /**
     * Moves admitted-frame deadlines between shards (session
     * migration).  Never holds two shard locks at once; the transient
     * undercount on `to` is benign (admission briefly optimistic).
     */
    void
    moveFrames(size_t from, size_t to,
               const std::vector<int64_t> &deadlines_us)
    {
        {
            Shard &s = shard(from);
            MutexLock lock(s.mu);
            for (int64_t d : deadlines_us)
                eraseDeadlineLocked(s, d);
        }
        Shard &t = shard(to);
        MutexLock lock(t.mu);
        for (int64_t d : deadlines_us)
            insertDeadlineLocked(t, d);
    }

    /** Enqueues a runnable unit keyed by its earliest deadline. */
    void
    push(size_t shard_index, int64_t deadline_us, uint64_t epoch,
         Payload payload)
    {
        {
            Shard &s = shard(shard_index);
            MutexLock lock(s.mu);
            s.heap.push_back(Entry{deadline_us, s.next_seq++, epoch,
                                   std::move(payload)});
            std::push_heap(s.heap.begin(), s.heap.end(), Later());
        }
        {
            MutexLock lock(park_mu_);
            ++park_epoch_;
        }
        // All parked workers re-scan: with stealing disabled only the
        // shard's own workers can run this entry, and notifyOne could
        // wake a foreign one that goes straight back to sleep.
        park_cv_.notifyAll();
    }

    /** Pops the earliest-deadline entry of one shard (non-blocking). */
    bool
    tryPop(size_t shard_index, Entry &out)
    {
        Shard &s = shard(shard_index);
        MutexLock lock(s.mu);
        if (s.heap.empty())
            return false;
        std::pop_heap(s.heap.begin(), s.heap.end(), Later());
        out = std::move(s.heap.back());
        s.heap.pop_back();
        return true;
    }

    /**
     * Steals the earliest-deadline entry of the deepest other shard.
     * Callers must try their own shard first (stealing is an
     * idle-only policy; the server enforces it structurally by
     * calling tryPop before trySteal).
     */
    bool
    trySteal(size_t thief, Entry &out, size_t &victim_out)
    {
        const size_t n = shards_.size();
        size_t victim = n;
        size_t deepest = 0;
        for (size_t off = 1; off < n; ++off) {
            const size_t i = (thief + off) % n;
            Shard &s = shard(i);
            MutexLock lock(s.mu);
            if (s.heap.size() > deepest) {
                deepest = s.heap.size();
                victim = i;
            }
        }
        if (victim == n)
            return false;
        if (!tryPop(victim, out))
            return false;   // drained between the scan and the pop
        victim_out = victim;
        return true;
    }

    /**
     * Worker-thread pop: drains the home shard, then (when allowed)
     * steals, then parks until new work or close().  Returns false
     * once the queues are closed and nothing reachable remains.
     * `src_shard` reports where the entry came from.
     */
    bool
    popBlocking(size_t home, bool allow_steal, Entry &out,
                size_t &src_shard)
    {
        for (;;) {
            uint64_t epoch = 0;
            {
                MutexLock lock(park_mu_);
                epoch = park_epoch_;
            }
            if (tryPop(home, out)) {
                src_shard = home;
                return true;
            }
            if (allow_steal && trySteal(home, out, src_shard))
                return true;
            MutexLock lock(park_mu_);
            if (closed_)
                return false;
            // A push between the scan and this lock bumped the epoch;
            // rescan instead of sleeping (lost-wakeup prevention).
            if (park_epoch_ == epoch)
                park_cv_.wait(lock);
        }
    }

    /** Wakes every parked worker; subsequent pops drain then stop. */
    void
    close()
    {
        {
            MutexLock lock(park_mu_);
            closed_ = true;
            ++park_epoch_;
        }
        park_cv_.notifyAll();
    }

    bool
    closed() const
    {
        MutexLock lock(park_mu_);
        return closed_;
    }

    /** Run-queue length (may count entries staled by migration). */
    size_t
    depth(size_t shard_index) const
    {
        const Shard &s = shard(shard_index);
        MutexLock lock(s.mu);
        return s.heap.size();
    }

    /** Admitted-but-incomplete frames accounted to the shard. */
    size_t
    pendingFrames(size_t shard_index) const
    {
        const Shard &s = shard(shard_index);
        MutexLock lock(s.mu);
        return s.deadlines.size();
    }

    /** Current service-time EWMA (0 = nothing measured yet). */
    int64_t
    serviceEstimateMicros(size_t shard_index) const
    {
        const Shard &s = shard(shard_index);
        MutexLock lock(s.mu);
        return s.service_ewma_us;
    }

  private:
    /** Min-heap order on (deadline, submission sequence). */
    struct Later {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.deadlineMicros != b.deadlineMicros)
                return a.deadlineMicros > b.deadlineMicros;
            return a.seq > b.seq;
        }
    };

    struct Shard {
        mutable Mutex mu;
        /** Runnable units, min-heap by (deadline, seq). */
        std::vector<Entry> heap GUARDED_BY(mu);
        /** Deadlines of admitted frames, sorted ascending. */
        std::vector<int64_t> deadlines GUARDED_BY(mu);
        int64_t service_ewma_us GUARDED_BY(mu) = 0;
        uint64_t next_seq GUARDED_BY(mu) = 0;
    };

    Shard &
    shard(size_t i)
    {
        REUSE_ASSERT(i < shards_.size(), "shard " << i << " out of range");
        return *shards_[i];
    }

    const Shard &
    shard(size_t i) const
    {
        REUSE_ASSERT(i < shards_.size(), "shard " << i << " out of range");
        return *shards_[i];
    }

    /** Micros one queue slot occupies at the shard's service rate. */
    int64_t
    perSlotMicrosLocked(const Shard &s) const REQUIRES(s.mu)
    {
        if (s.service_ewma_us <= 0)
            return 0;
        return std::max<int64_t>(
            1, s.service_ewma_us /
                   static_cast<int64_t>(config_.workersPerShard));
    }

    void
    insertDeadlineLocked(Shard &s, int64_t d) REQUIRES(s.mu)
    {
        s.deadlines.insert(
            std::upper_bound(s.deadlines.begin(), s.deadlines.end(), d),
            d);
    }

    void
    eraseDeadlineLocked(Shard &s, int64_t d) REQUIRES(s.mu)
    {
        const auto it = std::lower_bound(s.deadlines.begin(),
                                         s.deadlines.end(), d);
        if (it != s.deadlines.end() && *it == d)
            s.deadlines.erase(it);
    }

    Config config_;
    std::vector<std::unique_ptr<Shard>> shards_;

    /**
     * Parking lot for idle workers.  park_epoch_ increments on every
     * push/close; a worker re-reads it around its scan so a push
     * landing mid-scan forces a rescan instead of a missed wakeup.
     */
    mutable Mutex park_mu_;
    CondVar park_cv_;
    uint64_t park_epoch_ GUARDED_BY(park_mu_) = 0;
    bool closed_ GUARDED_BY(park_mu_) = false;
};

} // namespace reuse

#endif // REUSE_DNN_SERVE_SHARD_SCHEDULER_H
