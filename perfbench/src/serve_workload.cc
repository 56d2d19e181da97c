/**
 * @file
 * kaldi_serve: hundreds of Kaldi sessions, each with its own stream,
 * served by StreamingServer to one client thread.  A closed-loop
 * phase (every session waits for its reply before its next frame)
 * gives throughput; an open-loop phase at a fixed rate well under
 * capacity gives latency, timed from each frame's due time.  Every
 * session's outputs are then re-run on a single-stream engine and
 * must match bit for bit.
 */

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <future>
#include <thread>

#include "bench_stats.h"
#include "serve/streaming_server.h"
#include "workloads.h"
#include "workloads/multi_session_generator.h"

namespace perfbench {

using namespace reuse;

namespace {

/** Offered rate of the paced phase, frames per second. */
constexpr double kPacedRate = 1000.0;

/** Every kFreshEvery-th paced frame opens a new session. */
constexpr int64_t kFreshEvery = 16;

/**
 * Upper bound on closed-loop rounds (frames per session).  The inputs
 * are made before the timed phase, so they cover this many rounds
 * rather than the number a run reaches.
 */
constexpr size_t kMaxRounds = 160;

/** One frame the client has submitted and not yet seen complete. */
struct InFlight {
    std::future<Tensor> result;
    /** Where the output hash goes. */
    uint64_t *hash = nullptr;
    /** Paced phase: the frame's timing record, else null. */
    PacedFrame *paced = nullptr;
};

/** Stores a completed frame's hash; false when its future threw. */
bool
collect(InFlight &f, Report &report)
{
    try {
        *f.hash = tensorHash(f.result.get());
        return true;
    } catch (const std::exception &e) {
        report.frameFailure(std::string("served frame threw: ") + e.what());
        return false;
    }
}

} // namespace

ServeOutcome
runServe(const ModelRun &kaldi, const ServePlan &plan, uint64_t seed,
         Report &report)
{
    const ReuseEngine &engine = *kaldi.engine;
    const Workload &w = *kaldi.workload;
    const size_t sessions = plan.sessions;
    const int64_t paced_total =
        static_cast<int64_t>(kPacedRate * plan.pacedSeconds);
    const int64_t fresh_total = paced_total / kFreshEvery;
    const int64_t paced_warm = paced_total - fresh_total;
    const size_t per_session =
        kMaxRounds + static_cast<size_t>(paced_warm) / sessions + 2;

    // Inputs, generated before anything is timed.
    ProgramMemory memory;
    memory.beforeInputs();
    const uint64_t base = 0x5e55ull + seed * 1000003ull;
    MultiSessionGenerator streams(w.makeGenerator, sessions, base);
    std::vector<std::vector<Tensor>> inputs(sessions);
    for (size_t s = 0; s < sessions; ++s)
        inputs[s] = streams.take(s, per_session);
    MultiSessionGenerator fresh_streams(w.makeGenerator,
                                        static_cast<size_t>(fresh_total),
                                        base + 1);
    std::vector<Tensor> fresh_inputs;
    for (int64_t j = 0; j < fresh_total; ++j)
        fresh_inputs.push_back(fresh_streams.take(static_cast<size_t>(j), 1)[0]);
    memory.afterInputs();

    StreamingServer::Config config;
    config.workerThreads = kServeWorkers;
    StreamingServer server(engine, config);
    std::vector<SessionId> ids(sessions);
    for (size_t s = 0; s < sessions; ++s)
        ids[s] = server.openSession(
            "default", MultiSessionGenerator::sessionSeed(base, s),
            SloClass::Standard, ShardPlacer::inputSketch(inputs[s][0]));

    std::vector<std::vector<uint64_t>> hashes(
        sessions, std::vector<uint64_t>(per_session, 0));
    std::vector<uint64_t> fresh_hashes(static_cast<size_t>(fresh_total), 0);
    int64_t submitted = 0, failed = 0;
    ServeOutcome out;

    // Closed loop: round r submits frame r of every session and waits
    // for all of them.  Round 0 is every session's cold start.
    size_t rounds = 0;
    double closed_seconds = 0.0, closed_cpu = 0.0;
    int64_t closed_frames = 0;
    {
        std::vector<InFlight> flight(sessions);
        auto round = [&](size_t r) {
            for (size_t s = 0; s < sessions; ++s) {
                flight[s].result = server.submitFrame(ids[s], inputs[s][r]);
                flight[s].hash = &hashes[s][r];
            }
            for (InFlight &f : flight)
                failed += collect(f, report) ? 0 : 1;
            submitted += static_cast<int64_t>(sessions);
        };
        round(0);
        rounds = 1;
        const double cpu0 = processCpuSeconds();
        const auto t0 = Clock::now();
        while (rounds < kMaxRounds &&
               secondsSince(t0) < plan.closedSeconds)
            round(rounds++);
        closed_seconds = secondsSince(t0);
        closed_cpu = processCpuSeconds() - cpu0;
        closed_frames = static_cast<int64_t>((rounds - 1) * sessions);
    }
    out.throughputFps = static_cast<double>(closed_frames) / closed_seconds;
    out.cpuUsPerFrame = closed_cpu * 1e6 / static_cast<double>(closed_frames);

    // Open loop: frame k is due at k / rate.  Every kFreshEvery-th
    // frame is the first frame of a newly opened session; the rest go
    // round-robin to the warm sessions.
    std::vector<PacedFrame> paced(static_cast<size_t>(paced_total));
    std::vector<bool> is_fresh(paced.size(), false);
    std::vector<size_t> warm_frames(sessions, rounds);
    std::vector<InFlight> flight;
    int64_t fresh_next = 0, warm_next = 0;
    auto poll = [&](bool block) {
        for (size_t i = 0; i < flight.size();) {
            InFlight &f = flight[i];
            const bool ready =
                block ? (f.result.wait(), true)
                      : f.result.wait_for(std::chrono::seconds(0)) ==
                            std::future_status::ready;
            if (!ready) {
                ++i;
                continue;
            }
            f.paced->doneNs = nanosBetween(Clock::time_point(), Clock::now());
            failed += collect(f, report) ? 0 : 1;
            flight.erase(flight.begin() + static_cast<ptrdiff_t>(i));
        }
    };
    // Timed waits of this thread wake when asked, not up to the
    // default 50 us timer slack later.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    const int64_t epoch = nanosBetween(Clock::time_point(), Clock::now()) +
                          1'000'000;
    for (int64_t k = 0; k < paced_total; ++k) {
        PacedFrame &pf = paced[static_cast<size_t>(k)];
        pf.dueNs = epoch + dueTimeNs(k, kPacedRate);
        // Until the frame is due, block on the oldest frame in flight
        // (for at most 50 us, so later frames that finish first are
        // seen within that) and collect whatever has completed; spin
        // through the last 100 us so the submission is on time.
        const Clock::time_point due{std::chrono::nanoseconds(pf.dueNs)};
        const Clock::time_point spin = due - std::chrono::microseconds(100);
        for (auto now = Clock::now(); now < due; now = Clock::now()) {
            if (now >= spin)
                std::this_thread::yield();
            else if (!flight.empty())
                flight.front().result.wait_until(
                    std::min(spin, now + std::chrono::microseconds(50)));
            else
                std::this_thread::sleep_until(spin);
            poll(false);
        }
        pf.submitNs = nanosBetween(Clock::time_point(), Clock::now());
        InFlight f;
        f.paced = &pf;
        const auto s0 = Clock::now();
        if ((k + 1) % kFreshEvery == 0) {
            const size_t j = static_cast<size_t>(fresh_next++);
            is_fresh[static_cast<size_t>(k)] = true;
            const SessionId id = server.openSession(
                "default", MultiSessionGenerator::sessionSeed(base + 1, j),
                SloClass::Standard, ShardPlacer::inputSketch(fresh_inputs[j]));
            if (id == kInvalidSessionId) {
                report.frameFailure("session admission rejected");
                ++submitted;
                ++failed;
                continue;
            }
            f.result = server.submitFrame(id, fresh_inputs[j]);
            f.hash = &fresh_hashes[j];
        } else {
            const size_t s = static_cast<size_t>(warm_next++) % sessions;
            const size_t r = warm_frames[s]++;
            f.result = server.submitFrame(ids[s], inputs[s][r]);
            f.hash = &hashes[s][r];
            out.submitUs.push_back(
                microsBetween(s0, Clock::now()));
        }
        ++submitted;
        flight.push_back(std::move(f));
    }
    poll(true);
    server.drain();
    for (size_t i = 0; i < paced.size(); ++i) {
        (is_fresh[i] ? out.coldLatencyUs : out.warmLatencyUs)
            .push_back(paced[i].latencyUs());
        out.latenessUs.push_back(paced[i].latenessUs());
    }
    const ServeMetrics &m = server.metrics();
    out.steals = m.steals();
    out.queuePeak = m.queuePeak();
    if (m.framesShed() != 0)
        report.runFailure(std::to_string(m.framesShed()) + " frames shed");
    if (m.framesCompleted() != static_cast<uint64_t>(submitted) ||
        m.framesSubmitted() != static_cast<uint64_t>(submitted))
        report.runFailure("server completed " +
                          std::to_string(m.framesCompleted()) + " of " +
                          std::to_string(submitted) + " submitted frames");
    server.stop();
    out.programPeakMb = memory.peakMb();

    // Serving isolation: every session's outputs equal a single-stream
    // engine run of its frames, bit for bit.
    const size_t threads =
        std::max<size_t>(1, std::min<size_t>(4, std::thread::hardware_concurrency()));
    std::atomic<int64_t> mismatches{0};
    std::vector<std::vector<double>> service(threads);
    std::vector<std::thread> pool;
    for (size_t t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            ExecutionTrace trace;
            for (size_t s = t; s < sessions; s += threads) {
                ReuseState state = engine.makeState();
                for (size_t r = 0; r < warm_frames[s]; ++r) {
                    const auto t0 = Clock::now();
                    const Tensor o = engine.execute(state, inputs[s][r], trace);
                    if (r > 0)
                        service[t].push_back(microsBetween(t0, Clock::now()));
                    if (tensorHash(o) != hashes[s][r])
                        mismatches.fetch_add(1);
                }
            }
            for (size_t j = t; j < fresh_hashes.size(); j += threads) {
                ReuseState state = engine.makeState();
                if (tensorHash(engine.execute(state, fresh_inputs[j], trace)) !=
                    fresh_hashes[j])
                    mismatches.fetch_add(1);
            }
        });
    }
    for (std::thread &t : pool)
        t.join();
    for (const auto &v : service)
        out.serviceUs.insert(out.serviceUs.end(), v.begin(), v.end());
    if (mismatches.load() > 0)
        report.frameFailure(std::to_string(mismatches.load()) +
                            " served frames differ from a single-stream run");
    report.frames(submitted, failed + mismatches.load());

    out.firstSessionFrames.assign(inputs[0].begin(),
                                  inputs[0].begin() +
                                      static_cast<ptrdiff_t>(warm_frames[0]));
    report.note(fmt("serve: %.0f sessions, %.0f workers; closed loop %.0f "
                    "rounds in %.2f s",
                    static_cast<double>(sessions),
                    static_cast<double>(kServeWorkers),
                    static_cast<double>(rounds - 1), closed_seconds));
    report.note(fmt("serve: paced %.0f f/s, %.0f warm + %.0f new-session "
                    "frames; generator lateness p50 %.1f us",
                    kPacedRate, static_cast<double>(paced_warm),
                    static_cast<double>(fresh_total), median(out.latenessUs)) +
                fmt(", p99 %.1f us, max %.1f us",
                    percentile(out.latenessUs, 99.0),
                    *std::max_element(out.latenessUs.begin(),
                                      out.latenessUs.end())));
    return out;
}

void
runServeWorkload(const RunOptions &options, Report &report)
{
    ServePlan plan;
    plan.closedSeconds = 0.4 * options.seconds;
    plan.pacedSeconds = 0.6 * options.seconds;
    report.note(fmt("workload kaldi_serve: %.0f serve workers + 1 client "
                    "thread, REUSE_KERNEL_THREADS=%.0f",
                    static_cast<double>(kServeWorkers),
                    static_cast<double>(options.kernelThreads)));

    // Set-up: model, calibration, plan, engine and server, 5 times.
    std::vector<double> setup;
    ModelRun run;
    for (int i = 0; i < (options.trace ? 1 : 5); ++i) {
        run.engine.reset();
        run.workload.reset();
        run = setUpModel("Kaldi");
        StreamingServer::Config config;
        config.workerThreads = kServeWorkers;
        const auto t0 = Clock::now();
        {
            StreamingServer server(*run.engine, config);
            setup.push_back(run.harnessSeconds + run.engineSeconds +
                            secondsSince(t0));
            server.stop();
        }
    }

    const ServeOutcome serve = runServe(run, plan, options.seed, report);

    // Eq.-10, recount and reference checks on session 0's stream.
    StreamChecker checker(*run.engine, options.trace);
    const auto &frames = serve.firstSessionFrames;
    for (size_t i = 0; i < frames.size(); ++i)
        checker.frame(frames[i], i == 1 || i + 1 == frames.size());
    countChecked(report, checker, "session 0");

    if (options.trace) {
        reportTracedRest(options, "Kaldi", run, checker, &serve, report);
        return;
    }
    const double warm_p50 = median(serve.warmLatencyUs);
    const double cold_p50 = median(serve.coldLatencyUs);
    report.metric("latency_p50_us", warm_p50, "us");
    if (const auto tail =
            tailPercentile(static_cast<int64_t>(serve.warmLatencyUs.size())))
        report.note(fmt("paced warm frames tail: p%g = %.1f us over %.0f "
                        "samples (%.0f beyond)",
                        tail->percentile,
                        percentile(serve.warmLatencyUs, tail->percentile),
                        static_cast<double>(serve.warmLatencyUs.size()),
                        static_cast<double>(tail->beyond)));
    report.metric("throughput_fps", serve.throughputFps, "1/s");
    report.metric("cold_latency_p50_us", cold_p50, "us");
    report.metric("cpu_us_per_frame", serve.cpuUsPerFrame, "us");
    report.metric("setup_s", median(setup), "s");
    report.metric("peak_rss_mb", serve.programPeakMb, "MB");
    report.note(fmt("reuse-over-cold speedup (paced latency) %.2fx, for "
                    "reference only",
                    cold_p50 / warm_p50));
}

} // namespace perfbench
