/**
 * @file
 * The single-stream workloads (autopilot_stream, autopilot_lowsim,
 * c3d_clip) and the traced-run pieces every workload shares.
 */

#include <algorithm>
#include <cstdio>
#include <map>

#include "bench_stats.h"
#include "ir/plan_cache.h"
#include "workloads.h"
#include "workloads/model_zoo.h"
#include "workloads/video_generator.h"

namespace perfbench {

using namespace reuse;

namespace {

/**
 * C3D runs at 1/8 of its 112x112 frame size.  At the harness's 1/4
 * a steady window takes about 0.5 s and a cold one 1.3 s, so a run of
 * a few seconds holds too few windows for a tail and a cold median.
 */
constexpr int kC3dSpatialDivisor = 8;

/** autopilot_lowsim: AutoPilot's scene with 0.02 pixel noise (about 17x). */
DrivingParams
lowSimilarityParams()
{
    DrivingParams dp;
    dp.pixelNoise = 0.02f;
    dp.jitterAmp = 0.03;
    dp.laneDrift = 0.06;
    dp.lightSigma = 0.0004f;
    return dp;
}

/**
 * A stream workload plays `clips` independent clips of `clipFrames`
 * frames each, every clip a new stream: its first frame runs cold,
 * the rest reuse.  Many short independent clips rather than one long
 * one keep a run's content mix, and so its timings, from depending
 * on where one stream's scene happens to wander for that seed.
 */
struct StreamSpec {
    const char *name;
    const char *model;
    size_t clips;
    size_t clipFrames;
    /** Leading clips, and frames of each, that get every check. */
    size_t checkedClips;
    size_t checkedFrames;
    bool lowSimilarity;
};

const StreamSpec kStreams[] = {
    {"autopilot_stream", "AutoPilot", 16, 40, 16, 3, false},
    {"autopilot_lowsim", "AutoPilot", 10, 12, 10, 3, true},
    {"c3d_clip", "C3D", 8, 6, 2, 2, false},
};

const StreamSpec *
findStream(const std::string &name)
{
    for (const StreamSpec &s : kStreams)
        if (name == s.name)
            return &s;
    return nullptr;
}

/** Stream seed of a run: distinct per --seed, workload and clip. */
uint64_t
streamSeed(uint64_t seed, const char *workload, size_t clip = 0)
{
    uint64_t h = 0x5eed5eedull + seed * 1000003ull + clip * 7919ull;
    for (const char *c = workload; *c != '\0'; ++c)
        h = h * 131 + static_cast<unsigned char>(*c);
    return h;
}

using Clip = std::vector<Tensor>;

std::vector<Clip>
streamClips(const StreamSpec &spec, const ModelRun &run, uint64_t seed)
{
    std::vector<Clip> clips;
    for (size_t c = 0; c < spec.clips; ++c) {
        const uint64_t s = streamSeed(seed, spec.name, c);
        clips.push_back(
            spec.lowSimilarity
                ? DrivingFrameGenerator(lowSimilarityParams(), s)
                      .take(spec.clipFrames)
                : run.workload->makeGenerator(s)->take(spec.clipFrames));
    }
    return clips;
}

void
runStreamUntraced(const StreamSpec &spec, const RunOptions &options,
                  Report &report)
{
    // Set-up: build + calibrate + compile + construct, several times.
    std::vector<double> setup;
    ModelRun run;
    for (int i = 0; i < 3; ++i) {
        run.engine.reset();
        run.workload.reset();
        run = setUpModel(spec.model);
        setup.push_back(run.harnessSeconds + run.engineSeconds);
    }
    const ReuseEngine &engine = *run.engine;
    ProgramMemory memory;
    memory.beforeInputs();
    const std::vector<Clip> clips = streamClips(spec, run, options.seed);
    memory.afterInputs();
    ExecutionTrace trace;
    {
        // Warm-up: allocations and caches, on a throwaway stream.
        ReuseState state = engine.makeState();
        for (size_t f = 0; f < std::min<size_t>(4, spec.clipFrames); ++f)
            engine.execute(state, clips[0][f], trace);
    }

    // Whole passes over every clip, as many as end nearest the time
    // asked for: repeated passes replay the same frames, so the
    // content mix does not depend on how many passes a run makes.
    std::vector<std::vector<uint64_t>> hashes(spec.clips);
    std::vector<double> steady_us, cold_us;
    double steady_wall = 0.0, macs_done = 0.0, macs_full = 0.0;
    int passes = 0;
    double pass_seconds = 0.0;
    const double cpu0 = processCpuSeconds();
    const auto start = Clock::now();
    while (passes == 0 ||
           secondsSince(start) + 0.5 * pass_seconds < options.seconds) {
        const auto pass_start = Clock::now();
        for (size_t c = 0; c < spec.clips; ++c) {
            const Clip &clip = clips[c];
            ReuseState state = engine.makeState();
            auto t0 = Clock::now();
            Tensor out = engine.execute(state, clip[0], trace);
            const auto cold_end = Clock::now();
            cold_us.push_back(microsBetween(t0, cold_end));
            if (passes == 0)
                hashes[c].push_back(tensorHash(out));
            for (size_t f = 1; f < clip.size(); ++f) {
                t0 = Clock::now();
                out = engine.execute(state, clip[f], trace);
                steady_us.push_back(microsBetween(t0, Clock::now()));
                for (const LayerExecRecord &rec : trace) {
                    macs_done += static_cast<double>(rec.macsPerformed);
                    macs_full += static_cast<double>(rec.macsFull);
                }
                if (passes == 0)
                    hashes[c].push_back(tensorHash(out));
            }
            steady_wall += secondsSince(cold_end);
        }
        ++passes;
        pass_seconds = secondsSince(pass_start);
    }
    const double cpu = processCpuSeconds() - cpu0;
    const double measured_seconds = secondsSince(start);
    const double program_mb = memory.peakMb();
    const int64_t measured =
        static_cast<int64_t>(steady_us.size() + cold_us.size());

    // Checks: the leading frames of every clip in full, every other
    // output of the first pass against a re-run by its hash.
    StreamChecker checker(engine, false);
    int64_t mismatches = 0;
    for (size_t c = 0; c < spec.clips; ++c) {
        checker.newStream();
        for (size_t f = 0; f < spec.clipFrames; ++f) {
            Tensor out;
            if (c < spec.checkedClips && f < spec.checkedFrames)
                checker.frame(clips[c][f], c == 0, &out);
            else
                out = checker.engineOnly(clips[c][f]);
            if (tensorHash(out) != hashes[c][f] && mismatches++ == 0)
                report.frameFailure("timed output of clip " + std::to_string(c) +
                                    " frame " + std::to_string(f) +
                                    " differs from its re-run");
        }
    }
    report.frames(measured, mismatches);
    countChecked(report, checker, spec.name);

    const double steady_p50 = median(steady_us);
    const double cold_p50 = median(cold_us);
    report.metric("latency_p50_us", steady_p50, "us");
    // Later passes repeat the same frames: the tail rung follows the
    // distinct frames measured, not the repeated samples.
    const auto distinct =
        static_cast<int64_t>(spec.clips * (spec.clipFrames - 1));
    if (const auto tail = tailPercentile(distinct))
        report.note(fmt("steady tail: p%g = %.1f us over %.0f samples of ",
                        tail->percentile,
                        percentile(steady_us, tail->percentile),
                        static_cast<double>(steady_us.size())) +
                    fmt("%.0f distinct frames (%.0f distinct beyond)",
                        static_cast<double>(distinct),
                        static_cast<double>(tail->beyond)));
    report.metric("throughput_fps",
                  static_cast<double>(steady_us.size()) / steady_wall, "1/s");
    report.metric("cold_latency_p50_us", cold_p50, "us");
    report.metric("cpu_us_per_frame", cpu * 1e6 / static_cast<double>(measured),
                  "us");
    report.metric("setup_s", median(setup), "s");
    report.metric("peak_rss_mb", program_mb, "MB");
    report.note(fmt("%.0f passes: %.0f steady + %.0f cold frames in %.2f s",
                    passes, static_cast<double>(steady_us.size()),
                    static_cast<double>(cold_us.size()), measured_seconds));
    report.note(fmt("reuse-over-cold speedup %.2fx (for reference only); "
                    "steady frames perform %.1f%% of a cold frame's MACs",
                    cold_p50 / steady_p50, 100.0 * macs_done / macs_full));
}

void
runStreamTraced(const StreamSpec &spec, const RunOptions &options,
                Report &report)
{
    ModelRun run = setUpModel(spec.model);
    const std::vector<Clip> clips = streamClips(spec, run, options.seed);
    StreamChecker checker(*run.engine, true);
    const auto start = Clock::now();
    for (size_t c = 0; c == 0 || secondsSince(start) < options.seconds; ++c) {
        checker.newStream();
        const Clip &clip = clips[c % clips.size()];
        for (size_t f = 0; f < clip.size(); ++f)
            checker.frame(clip[f], c == 0 && (f == 1 || f + 1 == clip.size()));
    }
    countChecked(report, checker, spec.name);
    reportTracedRest(options, spec.model, run, checker, nullptr, report);
}

} // namespace

ModelRun
setUpModel(const std::string &model)
{
    ir::PlanCache::instance().clear();
    WorkloadSetupConfig config;
    config.c3dSpatialDivisor = kC3dSpatialDivisor;
    ModelRun run;
    const auto t0 = Clock::now();
    run.workload = std::make_unique<Workload>(setupWorkload(model, config));
    const auto t1 = Clock::now();
    run.engine = std::make_unique<ReuseEngine>(*run.workload->bundle.network,
                                               run.workload->plan);
    const auto t2 = Clock::now();
    run.harnessSeconds = microsBetween(t0, t1) * 1e-6;
    run.engineSeconds = microsBetween(t1, t2) * 1e-6;
    return run;
}

double
buildSeconds(const std::string &model)
{
    // The harness's own seed offsets do not matter here: only the
    // time to draw the weights is measured.
    Rng rng(42);
    const auto t0 = Clock::now();
    ModelBundle bundle = model == "Kaldi"       ? buildKaldi(rng)
                         : model == "AutoPilot" ? buildAutopilot(rng)
                                                : buildC3D(rng, kC3dSpatialDivisor);
    return secondsSince(t0);
}

void
countChecked(Report &report, const StreamChecker &checker,
             const std::string &what)
{
    report.frames(checker.framesChecked(), checker.framesFailed());
    if (checker.framesFailed() > 0)
        report.frameFailure(what + ": " + checker.firstFailure());
    report.note(what + fmt(": %.0f frames fully checked; worst Eq.-10 error "
                           "%.3g of its bound, worst reference error %.3g",
                           static_cast<double>(checker.framesChecked()),
                           checker.worstBoundShare(),
                           checker.worstReferenceError()));
}

void
reportLayers(Report &report, const std::string &model,
             const StreamChecker &checker)
{
    for (const LayerLedger &l : checker.layers()) {
        if (!l.weighted)
            continue;
        const std::string key = "layer." + model + "." + l.name + ".";
        const double frames = static_cast<double>(l.steadyFrames);
        report.metric(key + "steady_us",
                      l.steadyUs.empty() ? NAN : median(l.steadyUs), "us");
        report.metric(key + "scratch_us",
                      l.scratchUs.empty() ? NAN : median(l.scratchUs), "us");
        report.metric(key + "macs", frames > 0 ? l.macsSum / frames : NAN,
                      "count");
        report.metric(key + "weight_mb",
                      frames > 0 ? l.weightBytesSum / frames / 1e6 : NAN, "MB");
    }
}

std::unique_ptr<StreamChecker>
probeModel(const ModelRun &run, size_t frames, uint64_t seed, Report &report)
{
    const std::vector<Tensor> inputs =
        run.workload->makeGenerator(streamSeed(seed, "probe"))->take(frames);
    auto checker = std::make_unique<StreamChecker>(*run.engine, true);
    for (size_t i = 0; i < inputs.size(); ++i)
        checker->frame(inputs[i], i == 1);
    countChecked(report, *checker, run.workload->name + " probe");
    return checker;
}

void
reportTracedRest(const RunOptions &options, const std::string &ownModel,
                 const ModelRun &own, const StreamChecker &ownChecker,
                 const ServeOutcome *ownServe, Report &report)
{
    // Frames each model's probe replays when it is not the workload's
    // own model.
    const std::map<std::string, size_t> probe_frames = {
        {"Kaldi", 120}, {"AutoPilot", 16}, {"C3D", 5}};
    KernelLedger conv_fallback;
    ServeOutcome probe_serve;
    for (const std::string model : {"Kaldi", "AutoPilot", "C3D"}) {
        if (model == ownModel) {
            reportLayers(report, model, ownChecker);
            continue;
        }
        ModelRun run = setUpModel(model);
        auto checker = probeModel(run, probe_frames.at(model), options.seed,
                                  report);
        reportLayers(report, model, *checker);
        conv_fallback.convApplyNs += checker->kernels().convApplyNs;
        conv_fallback.convApplyMacs += checker->kernels().convApplyMacs;
        if (model == "Kaldi" && ownServe == nullptr) {
            // A short serving run, so every traced run reports the
            // serve layer too.
            ServePlan plan;
            plan.sessions = 32;
            plan.closedSeconds = 0.5;
            plan.pacedSeconds = 1.0;
            probe_serve = runServe(run, plan, options.seed, report);
        }
    }
    const KernelLedger &k = ownChecker.kernels();
    const KernelLedger &conv = k.convApplyMacs > 0 ? k : conv_fallback;
    report.metric("kernels.scan_ns_per_input", k.scanNs / k.scanInputs, "ns");
    report.metric("kernels.conv_apply_ns_per_mac",
                  conv.convApplyNs / conv.convApplyMacs, "ns");
    report.metric("kernels.fc_apply_ns_per_mac", k.fcApplyNs / k.fcApplyMacs,
                  "ns");
    report.metric("kernels.gemv_ns_per_mac", k.gemvNs / k.gemvMacs, "ns");
    report.metric("core.other_us", median(ownChecker.otherUs()), "us");
    report.note(fmt("traced frame %.1f us (sum of timed steps) vs engine %.1f "
                    "us: tracing overhead %.1f us",
                    median(ownChecker.replayFrameUs()),
                    median(ownChecker.engineFrameUs()),
                    median(ownChecker.replayFrameUs()) -
                        median(ownChecker.engineFrameUs())));

    const ServeOutcome &serve = ownServe != nullptr ? *ownServe : probe_serve;
    const double service = median(serve.serviceUs);
    report.metric("serve.submit_us", median(serve.submitUs), "us");
    report.metric("serve.wait_us", median(serve.warmLatencyUs) - service, "us");
    report.metric("serve.service_us", service, "us");
    report.metric("serve.steals", static_cast<double>(serve.steals), "count");
    report.metric("serve.queue_peak", static_cast<double>(serve.queuePeak),
                  "count");

    const double build_ms = buildSeconds(ownModel) * 1e3;
    report.metric("setup.build_ms", build_ms, "ms");
    report.metric("setup.calibrate_ms", own.harnessSeconds * 1e3 - build_ms,
                  "ms");
    report.metric("setup.compile_ms", own.engineSeconds * 1e3, "ms");
}

void
runStreamWorkload(const RunOptions &options, Report &report)
{
    const StreamSpec *spec = findStream(options.workload);
    report.note(std::string("workload ") + spec->name + ": model " +
                spec->model + ", REUSE_KERNEL_THREADS=" +
                std::to_string(options.kernelThreads));
    if (options.trace)
        runStreamTraced(*spec, options, report);
    else
        runStreamUntraced(*spec, options, report);
}

bool
isStreamWorkload(const std::string &name)
{
    return findStream(name) != nullptr;
}

} // namespace perfbench
