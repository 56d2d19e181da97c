#include "streaming_server.h"

#include <algorithm>
#include <cstdlib>
#include <map>

#include "common/logging.h"
#include "fault/fault_injector.h"
#include "ir/plan_cache.h"
#include "obs/exemplar.h"
#include "obs/trace_recorder.h"

namespace reuse {

namespace {

EdfShardQueues<std::shared_ptr<Session>>::Config
makeSchedConfig(const StreamingServer::Config &config, size_t shards)
{
    EdfShardQueues<std::shared_ptr<Session>>::Config sc;
    sc.shards = shards;
    sc.capacityPerShard =
        config.queueCapacity == 0
            ? 0
            : std::max<size_t>(1, config.queueCapacity / shards);
    sc.workersPerShard =
        std::max<size_t>(1, config.workerThreads / shards);
    sc.initialServiceEstimateMicros =
        config.initialServiceEstimateMicros;
    return sc;
}

} // namespace

size_t
StreamingServer::resolveShards(const Config &config)
{
    if (config.shards > 0)
        return config.shards;
    // Auto: two workers per shard keeps per-shard EDF queues short
    // without starving shards of drain capacity.
    return std::max<size_t>(1, config.workerThreads / 2);
}

StreamingServer::StreamingServer(const ReuseEngine &engine, Config config)
    : StreamingServer({{std::string("default"), &engine}}, config)
{
}

StreamingServer::StreamingServer(
    const std::vector<std::pair<std::string, const ReuseEngine *>> &zoo,
    Config config)
    : config_(config),
      clock_(config.clock != nullptr ? config.clock
                                     : &SystemClock::instance()),
      manager_(SessionManager::Config{config.memoryBudgetBytes},
               &metrics_),
      sched_(makeSchedConfig(config, resolveShards(config))),
      placer_(resolveShards(config))
{
    REUSE_ASSERT(!zoo.empty(), "server needs at least one model");
    for (const auto &[name, engine] : zoo) {
        REUSE_ASSERT(engine != nullptr, "null engine for " << name);
        REUSE_ASSERT(!engine->network().isRecurrent(),
                     "serving executes per-frame; recurrent model "
                         << name << " is not servable");
        const bool inserted = zoo_.emplace(name, engine).second;
        REUSE_ASSERT(inserted, "duplicate model name " << name);
    }
    bool arm_exemplars = config_.exemplars.enabled;
    if (const char *env = std::getenv("REUSE_EXEMPLARS")) {
        if (env[0] != '\0' && std::string(env) != "0")
            arm_exemplars = true;
    }
    if (arm_exemplars) {
        // Process-wide on purpose (the capture hooks live in the obs
        // layer); a server that never enables exemplars leaves the
        // recorder's prior state alone.
        obs::ExemplarRecorder::Policy policy;
        policy.armed = true;
        policy.lowReuseFloor = config_.exemplars.lowReuseFloor;
        policy.ringCapacity = config_.exemplars.ringCapacity;
        for (size_t c = 0; c < kSloClassCount; ++c) {
            policy.latencyThresholdMicros[c] =
                config_.exemplars.latencyThresholdMicros[c];
            policy.classNames.push_back(
                sloClassName(static_cast<SloClass>(c)));
        }
        obs::ExemplarRecorder::instance().configure(policy);
    }
    if (!config_.manualDispatch)
        start(config_.workerThreads == 0 ? 1 : config_.workerThreads);
}

StreamingServer::~StreamingServer()
{
    stop();
}

void
StreamingServer::start(size_t worker_threads)
{
    workers_.reserve(worker_threads);
    for (size_t i = 0; i < worker_threads; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

void
StreamingServer::stop()
{
    if (stopped_.exchange(true))
        return;
    sched_.close();
    for (auto &w : workers_) {
        if (w.joinable())
            w.join();
    }
}

SessionId
StreamingServer::openSession(const std::string &model, uint64_t seed,
                             SloClass slo, uint64_t signatureHint)
{
    auto it = zoo_.find(model);
    REUSE_ASSERT(it != zoo_.end(), "unknown model " << model);
    REUSE_ASSERT(!stopped_.load(), "server is stopped");
    SessionManager::Admission admission =
        manager_.tryCreate(*it->second, seed, slo);
    if (admission.session == nullptr) {
        warn(model + ": session admission rejected\n" +
             admission.report.str());
        return kInvalidSessionId;
    }
    Session &session = *admission.session;
    const size_t shard =
        placer_.place(session.planFingerprint(), signatureHint);
    {
        MutexLock lock(session.queue_mu_);
        session.shard_ = shard;
    }
    metrics_.sessionOpened();
    return session.id();
}

std::future<Tensor>
StreamingServer::submitFrame(SessionId id, Tensor input)
{
    REUSE_ASSERT(!stopped_.load(), "server is stopped");
    std::shared_ptr<Session> session = manager_.find(id);
    REUSE_ASSERT(session != nullptr, "unknown session " << id);

    const int64_t now = clock_->nowMicros();
    FrameRequest req;
    req.input = std::move(input);
    req.enqueuedMicros = now;
    req.deadlineMicros = now + config_.slo.budget(session->slo());
    std::future<Tensor> future = req.result.get_future();

    uint64_t frame_index = 0;
    size_t shard = 0;
    {
        MutexLock lock(session->queue_mu_);
        REUSE_ASSERT(!session->closing_,
                     "session " << id << " is closing");
        frame_index = session->next_frame_index_++;
        req.frameIndex = frame_index;
        req.submitEpoch = session->placement_epoch_;
        shard = session->shard_;
        // Blocking-submit contract: the frame is admitted even when
        // the deadline is provably unmeetable — it will simply count
        // as a deadline miss.  Load generators that want shedding use
        // trySubmitFrame().
        sched_.forceAdmitFrame(shard, req.deadlineMicros);
        session->pending_.push_back(std::move(req));
        if (session->run_state_ == Session::RunState::Idle) {
            session->run_state_ = Session::RunState::Queued;
            sched_.push(shard,
                        session->pending_.front().deadlineMicros,
                        session->placement_epoch_, session);
        }
    }
    outstanding_.fetch_add(1, std::memory_order_relaxed);
    metrics_.frameSubmitted();
    const size_t backlog = sched_.pendingFrames(shard);
    metrics_.observeQueueDepth(backlog);
    queue_depth_window_.observe(static_cast<double>(backlog));
    obs::TraceRecorder &tracer = obs::TraceRecorder::instance();
    if (tracer.enabled() && tracer.sampleEventTick()) {
        obs::recordInstant(obs::SpanKind::FrameSubmit, -1,
                           static_cast<int64_t>(backlog),
                           static_cast<int64_t>(
                               outstanding_.load(
                                   std::memory_order_relaxed)),
                           0, 0, id, frame_index);
    }
    return future;
}

StreamingServer::SubmitOutcome
StreamingServer::trySubmitFrame(SessionId id, Tensor input)
{
    REUSE_ASSERT(!stopped_.load(), "server is stopped");
    std::shared_ptr<Session> session = manager_.find(id);
    REUSE_ASSERT(session != nullptr, "unknown session " << id);

    const int64_t now = clock_->nowMicros();
    SubmitOutcome outcome;

    FrameRequest req;
    req.input = std::move(input);
    req.enqueuedMicros = now;
    req.deadlineMicros = now + config_.slo.budget(session->slo());
    std::future<Tensor> future = req.result.get_future();

    size_t shard = 0;
    {
        MutexLock lock(session->queue_mu_);
        REUSE_ASSERT(!session->closing_,
                     "session " << id << " is closing");
        shard = session->shard_;
        if (config_.maxPendingPerSession > 0 &&
            session->pending_.size() >= config_.maxPendingPerSession) {
            // The bound trips when the session's own frames are the
            // backlog; one of them must complete before another fits.
            const int64_t per = sched_.serviceEstimateMicros(shard);
            outcome.retryAfterMicros = per > 0 ? per : 1000;
            outcome.status = SubmitOutcome::Status::Shed;
            metrics_.frameShed(session->slo(), now);
            obs::ExemplarRecorder::instance().recordShed(
                id, static_cast<uint8_t>(session->slo()),
                static_cast<int64_t>(session->pending_.size()),
                outcome.retryAfterMicros, now);
            return outcome;
        }
        const Sched::Admit admit =
            sched_.admitFrame(shard, now, req.deadlineMicros);
        if (!admit.admitted) {
            outcome.retryAfterMicros =
                std::max<int64_t>(admit.retryAfterMicros, 1);
            outcome.status = SubmitOutcome::Status::Shed;
            metrics_.frameShed(session->slo(), now);
            obs::ExemplarRecorder::instance().recordShed(
                id, static_cast<uint8_t>(session->slo()),
                static_cast<int64_t>(sched_.pendingFrames(shard)),
                outcome.retryAfterMicros, now);
            return outcome;
        }
        req.frameIndex = session->next_frame_index_++;
        req.submitEpoch = session->placement_epoch_;
        session->pending_.push_back(std::move(req));
        if (session->run_state_ == Session::RunState::Idle) {
            session->run_state_ = Session::RunState::Queued;
            sched_.push(shard,
                        session->pending_.front().deadlineMicros,
                        session->placement_epoch_, session);
        }
    }
    outstanding_.fetch_add(1, std::memory_order_relaxed);
    metrics_.frameSubmitted();
    const size_t backlog = sched_.pendingFrames(shard);
    metrics_.observeQueueDepth(backlog);
    queue_depth_window_.observe(static_cast<double>(backlog));
    outcome.result = std::move(future);
    return outcome;
}

bool
StreamingServer::debugCorruptSessionState(SessionId id, uint64_t seed)
{
    std::shared_ptr<Session> session = manager_.find(id);
    REUSE_ASSERT(session != nullptr, "unknown session " << id);
    MutexLock lock(session->state_mu_);
    return session->state_.debugCorruptBuffer(seed);
}

Tensor
StreamingServer::executeFrame(Session &session, FrameRequest &req,
                              size_t exec_shard,
                              const DispatchContext &ctx,
                              FrameExecInfo *info)
{
    // Frame-delivery faults are decided outside the state lock: they
    // model the transport, not the execution.
    bool dropped = false;
    bool duplicated = false;
    if (fault::frameFaultsArmed()) {
        dropped = fault::shouldDropFrame();
        if (!dropped)
            duplicated = fault::shouldDuplicateFrame();
    }

    // Outermost trace scope on this worker: decides whether the frame
    // is sampled and stamps every nested span (engine, kernels) with
    // the session/frame identifiers.
    obs::FrameTraceScope frame_scope(session.id(), req.frameIndex);
    if (frame_scope.active()) {
        obs::TraceRecorder &tracer = obs::TraceRecorder::instance();
        // Queue wait measured on the serve clock (virtual in tests),
        // mapped onto the tracer's own timeline ending now.
        const int64_t wait_ns =
            std::max<int64_t>(
                0, clock_->nowMicros() - req.enqueuedMicros) *
            1000;
        const int64_t now_ns = tracer.nowNs();
        obs::recordSpanAt(obs::SpanKind::QueueWait, now_ns - wait_ns,
                          now_ns, session.id(), req.frameIndex);
        if (ctx.stolen) {
            obs::recordInstant(obs::SpanKind::Steal, -1,
                               static_cast<int64_t>(exec_shard),
                               static_cast<int64_t>(ctx.thiefShard),
                               0, 0, session.id(), req.frameIndex);
        }
    }

    const uint64_t sketch = ShardPlacer::inputSketch(req.input);
    Tensor output;
    ExecutionTrace trace;
    {
        MutexLock lock(session.state_mu_);
        if (dropped && session.has_last_output_) {
            // Stale-prediction delivery: answer with the previous
            // frame's output and leave the reuse state untouched, so
            // the stream continues exactly as if the frame never
            // arrived.
            output = session.last_output_;
            session.dropped_frames_ += 1;
            metrics_.frameDropped();
        } else {
            if (config_.validateState && session.checksum_valid_ &&
                session.state_.checksum() != session.state_checksum_) {
                // State corrupted between frames: degrade this frame
                // to a from-scratch execution and re-warm, instead of
                // silently poisoning every subsequent frame.
                session.state_.reset();
                session.cold_frames_.push_back(req.frameIndex);
                session.evicted_since_last_frame_ = false;
                if (info != nullptr)
                    info->cold = true;
                manager_.noteCorruptionRecovery(session);
                obs::recordInstant(obs::SpanKind::CorruptionRecovery,
                                   -1, 0, 0, 0, 0, session.id(),
                                   req.frameIndex);
            }
            if (session.evicted_since_last_frame_) {
                session.cold_frames_.push_back(req.frameIndex);
                session.evicted_since_last_frame_ = false;
                if (info != nullptr)
                    info->cold = true;
            }
            output = session.engine().execute(session.state_,
                                              req.input, trace);
            session.stats_.addTrace(trace);
            if (duplicated) {
                // At-least-once delivery: the frame executes again
                // against the updated state.
                output = session.engine().execute(session.state_,
                                                  req.input, trace);
                session.stats_.addTrace(trace);
                session.duplicated_frames_ += 1;
                metrics_.frameDuplicated();
            }
            session.last_output_ = output;
            session.has_last_output_ = true;
            if (config_.validateState) {
                session.state_checksum_ = session.state_.checksum();
                session.checksum_valid_ = true;
            }
        }
        session.frames_completed_ += 1;
        session.input_signature_ = sketch;
    }
    // Feeds similarity-aware placement of *future* sessions; the
    // newest sketch on the shard wins.
    placer_.noteSignature(exec_shard, sketch);
    return output;
}

bool
StreamingServer::dispatchEntry(Sched::Entry &entry,
                               const DispatchContext &ctx)
{
    std::shared_ptr<Session> session = std::move(entry.payload);
    FrameRequest req;
    size_t exec_shard = 0;
    uint64_t migrations = 0;
    {
        MutexLock lock(session->queue_mu_);
        if (entry.epoch != session->placement_epoch_) {
            // Stale: migration re-homed the session after this entry
            // was pushed (and re-queued it on the new shard).
            return false;
        }
        REUSE_ASSERT(session->run_state_ ==
                         Session::RunState::Queued,
                     "live run-queue entry for session "
                         << session->id() << " in state "
                         << static_cast<int>(session->run_state_));
        REUSE_ASSERT(!session->pending_.empty(),
                     "scheduled session has no pending frame");
        req = std::move(session->pending_.front());
        session->pending_.pop_front();
        session->run_state_ = Session::RunState::Executing;
        // The frame's admission accounting lives on the home shard at
        // claim time (migration only moves *pending* deadlines, so
        // this one stays put until completeFrame).
        exec_shard = session->shard_;
        migrations = session->placement_epoch_ - req.submitEpoch;
    }

    const int64_t started = clock_->nowMicros();
    FrameExecInfo exec_info;
    Tensor output =
        executeFrame(*session, req, exec_shard, ctx, &exec_info);
    manager_.noteExecution(*session);
    const int64_t completed = clock_->nowMicros();
    sched_.completeFrame(exec_shard, req.deadlineMicros,
                         completed - started);

    req.result.set_value(std::move(output));
    const bool missed = completed > req.deadlineMicros;
    if (missed)
        session->deadline_misses_.fetch_add(1,
                                            std::memory_order_relaxed);
    metrics_.frameCompleted(
        static_cast<double>(completed - req.enqueuedMicros),
        session->slo(), missed, completed);

    obs::ExemplarRecorder &exemplars =
        obs::ExemplarRecorder::instance();
    if (exemplars.armed()) {
        // Same thread that buffered the spans in executeFrame: the
        // commit-or-discard decision consumes the thread-local buffer.
        obs::ExemplarRecorder::FrameMeta meta;
        meta.session = session->id();
        meta.frame = req.frameIndex;
        meta.sloClass = static_cast<uint8_t>(session->slo());
        meta.enqueuedMicros = req.enqueuedMicros;
        meta.completedMicros = completed;
        meta.deadlineMicros = req.deadlineMicros;
        meta.coldRewarm = exec_info.cold;
        meta.stolen = ctx.stolen;
        meta.migrations = static_cast<uint32_t>(migrations);
        exemplars.finishFrame(meta);
    }

    {
        MutexLock lock(session->queue_mu_);
        if (!session->pending_.empty()) {
            session->run_state_ = Session::RunState::Queued;
            sched_.push(session->shard_,
                        session->pending_.front().deadlineMicros,
                        session->placement_epoch_, session);
        } else {
            session->run_state_ = Session::RunState::Idle;
        }
    }

    outstanding_.fetch_sub(1, std::memory_order_relaxed);
    {
        MutexLock lock(drain_mu_);
    }
    drain_cv_.notifyAll();
    return true;
}

void
StreamingServer::workerLoop(size_t worker_index)
{
    const size_t home = worker_index % sched_.shardCount();
    Sched::Entry entry;
    size_t src = home;
    while (sched_.popBlocking(home, config_.workStealing, entry, src)) {
        DispatchContext ctx;
        ctx.stolen = src != home;
        ctx.thiefShard = home;
        const bool ran = dispatchEntry(entry, ctx);
        if (ran && ctx.stolen)
            metrics_.workSteal();
        entry.payload.reset();
    }
}

bool
StreamingServer::runOne(size_t shard, bool allow_steal)
{
    REUSE_ASSERT(shard < sched_.shardCount(),
                 "shard " << shard << " out of range");
    for (;;) {
        Sched::Entry entry;
        size_t src = shard;
        if (!sched_.tryPop(shard, entry)) {
            if (!allow_steal || !sched_.trySteal(shard, entry, src))
                return false;
        }
        DispatchContext ctx;
        ctx.stolen = src != shard;
        ctx.thiefShard = shard;
        const bool ran = dispatchEntry(entry, ctx);
        if (ran) {
            if (ctx.stolen)
                metrics_.workSteal();
            return true;
        }
        // Stale entry consumed; keep pumping so callers can loop on
        // runOne() until it reports an empty queue.
    }
}

bool
StreamingServer::migrateSession(SessionId id, size_t to_shard)
{
    if (to_shard >= sched_.shardCount())
        return false;
    std::shared_ptr<Session> session = manager_.find(id);
    if (session == nullptr)
        return false;
    size_t from = 0;
    {
        MutexLock lock(session->queue_mu_);
        from = session->shard_;
        if (from == to_shard)
            return true;
        session->shard_ = to_shard;
        // Stales any entry still queued on the old shard; the worker
        // that pops it discards it instead of double-running.
        session->placement_epoch_ += 1;
        std::vector<int64_t> deadlines;
        deadlines.reserve(session->pending_.size());
        for (const FrameRequest &f : session->pending_)
            deadlines.push_back(f.deadlineMicros);
        sched_.moveFrames(from, to_shard, deadlines);
        if (session->run_state_ == Session::RunState::Queued) {
            sched_.push(to_shard,
                        session->pending_.front().deadlineMicros,
                        session->placement_epoch_, session);
        }
    }
    placer_.sessionMoved(from, to_shard, session->planFingerprint());
    metrics_.sessionMigrated();
    obs::recordInstant(obs::SpanKind::Migration, -1,
                       static_cast<int64_t>(from),
                       static_cast<int64_t>(to_shard), 0, 0, id, 0);
    return true;
}

void
StreamingServer::drain()
{
    MutexLock lock(drain_mu_);
    while (outstanding_.load(std::memory_order_relaxed) != 0)
        drain_cv_.wait(lock);
}

void
StreamingServer::closeSession(SessionId id)
{
    std::shared_ptr<Session> session = manager_.find(id);
    REUSE_ASSERT(session != nullptr, "unknown session " << id);
    {
        MutexLock lock(session->queue_mu_);
        session->closing_ = true;
    }
    // Wait for this session's pending frames to finish.
    {
        MutexLock lock(drain_mu_);
        for (;;) {
            {
                MutexLock qlock(session->queue_mu_);
                if (session->pending_.empty() &&
                    session->run_state_ == Session::RunState::Idle)
                    break;
            }
            drain_cv_.wait(lock);
        }
    }
    size_t shard = 0;
    {
        MutexLock lock(session->queue_mu_);
        shard = session->shard_;
    }
    placer_.sessionClosed(shard, session->planFingerprint());
    manager_.remove(id);
    metrics_.sessionClosed();
}

Session::Snapshot
StreamingServer::sessionSnapshot(SessionId id) const
{
    std::shared_ptr<Session> session = manager_.find(id);
    REUSE_ASSERT(session != nullptr, "unknown session " << id);
    return session->snapshot();
}

void
StreamingServer::publishStats(StatRegistry &registry) const
{
    metrics_.publishTo(registry);
    auto set = [&](const std::string &name, double v) {
        registry.get(name).set(v);
    };
    set("serve.sessions_live",
        static_cast<double>(manager_.sessionCount()));
    set("serve.state_bytes",
        static_cast<double>(manager_.chargedBytes()));
    set("serve.shards", static_cast<double>(sched_.shardCount()));
    size_t total_depth = 0;
    for (size_t i = 0; i < sched_.shardCount(); ++i) {
        const std::string base =
            "serve.shard." + std::to_string(i) + ".";
        const size_t depth = sched_.depth(i);
        total_depth += depth;
        set(base + "depth", static_cast<double>(depth));
        set(base + "pending_frames",
            static_cast<double>(sched_.pendingFrames(i)));
        set(base + "service_estimate_us",
            static_cast<double>(sched_.serviceEstimateMicros(i)));
        set(base + "sessions",
            static_cast<double>(placer_.sessionCount(i)));
    }
    set("serve.queue_depth", static_cast<double>(total_depth));
    // Queue-depth distribution over the recent submit window (the
    // all-time peak alone hides steady-state congestion).
    set("serve.queue_depth_p50", queue_depth_window_.quantile(0.50));
    set("serve.queue_depth_p95", queue_depth_window_.quantile(0.95));
    set("serve.queue_depth_p99", queue_depth_window_.quantile(0.99));
    set("serve.queue_depth_max", queue_depth_window_.max());
    // Process-wide compiled-plan cache: hits/misses tell whether
    // models served in this process share schedules (multi-model
    // serving recompiling per session would show up as misses).
    const ir::PlanCache::Stats plan_stats =
        ir::PlanCache::instance().stats();
    set("serve.plan_cache.size", static_cast<double>(plan_stats.size));
    set("serve.plan_cache.hits", static_cast<double>(plan_stats.hits));
    set("serve.plan_cache.misses",
        static_cast<double>(plan_stats.misses));
    // Capture loss accounting: dropped > 0 means a ring is
    // overwriting evidence, staging overflows mean truncated
    // attribution — all must be visible from the scrape endpoint,
    // not just inside exported traces.
    set("obs.trace.dropped_events",
        static_cast<double>(
            obs::TraceRecorder::instance().droppedEvents()));
    const obs::ExemplarRecorder &exemplars =
        obs::ExemplarRecorder::instance();
    set("obs.trace.exemplars_committed",
        static_cast<double>(exemplars.committed()));
    set("obs.trace.exemplars_dropped",
        static_cast<double>(exemplars.dropped()));
    set("obs.trace.exemplar_staging_overflows",
        static_cast<double>(exemplars.stagingOverflows()));

    // Per-layer reuse health, aggregated across every live session of
    // each model.  Gauge names end in the EWMA-tracked suffixes the
    // MetricsExporter smooths over scrapes.
    std::map<std::string, std::vector<LayerReuseStats>> per_model;
    for (const auto &session : manager_.sessions()) {
        const std::vector<LayerReuseStats> layers =
            session->layerStats();
        std::vector<LayerReuseStats> &agg =
            per_model[session->engine().network().name()];
        if (agg.size() < layers.size())
            agg.resize(layers.size());
        for (size_t i = 0; i < layers.size(); ++i) {
            const LayerReuseStats &l = layers[i];
            LayerReuseStats &a = agg[i];
            a.layerName = l.layerName;
            a.kind = l.kind;
            a.reuseEnabled = a.reuseEnabled || l.reuseEnabled;
            a.executions += l.executions;
            a.firstExecutions += l.firstExecutions;
            a.driftRefreshes += l.driftRefreshes;
            a.inputsChecked += l.inputsChecked;
            a.inputsChanged += l.inputsChanged;
            a.inputsNearMatched += l.inputsNearMatched;
            a.macsFull += l.macsFull;
            a.macsPerformed += l.macsPerformed;
            a.macsFullAll += l.macsFullAll;
            a.macsPerformedAll += l.macsPerformedAll;
        }
    }
    for (const auto &[model, layers] : per_model) {
        double sim_sum = 0.0;
        double reuse_sum = 0.0;
        double near_sum = 0.0;
        int64_t enabled = 0;
        int64_t refreshes = 0;
        int64_t executions = 0;
        for (size_t i = 0; i < layers.size(); ++i) {
            const LayerReuseStats &l = layers[i];
            executions += l.executions + l.firstExecutions;
            refreshes += l.driftRefreshes;
            if (!l.reuseEnabled)
                continue;
            ++enabled;
            sim_sum += l.similarity();
            reuse_sum += l.computationReuse();
            near_sum += l.nearMatchRate();
            const std::string base = "serve.model." + model +
                                     ".layer" + std::to_string(i) +
                                     ".";
            set(base + "similarity", l.similarity());
            set(base + "reuse", l.computationReuse());
            set(base + "near_match", l.nearMatchRate());
            set(base + "occupancy",
                l.inputsChecked == 0
                    ? 0.0
                    : static_cast<double>(l.inputsChanged) /
                          static_cast<double>(l.inputsChecked));
        }
        const std::string base = "serve.model." + model + ".";
        set(base + "similarity",
            enabled == 0 ? 0.0
                         : sim_sum / static_cast<double>(enabled));
        set(base + "reuse",
            enabled == 0 ? 0.0
                         : reuse_sum / static_cast<double>(enabled));
        set(base + "near_match",
            enabled == 0 ? 0.0
                         : near_sum / static_cast<double>(enabled));
        set(base + "drift_refresh_rate",
            executions == 0 ? 0.0
                            : static_cast<double>(refreshes) /
                                  static_cast<double>(executions));
    }
}

} // namespace reuse
