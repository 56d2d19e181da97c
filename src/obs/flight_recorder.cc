#include "obs/flight_recorder.h"

#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/json.h"
#include "common/logging.h"
#include "common/sync.h"
#include "obs/exemplar.h"
#include "obs/trace_exporter.h"
#include "obs/trace_recorder.h"

namespace reuse {
namespace obs {

namespace {

constexpr int kFatalSignals[] = {SIGSEGV, SIGABRT, SIGBUS, SIGFPE,
                                 SIGILL};

std::atomic<bool> installed_flag{false};
/** Set once the (single allowed) dump has been claimed. */
std::atomic<bool> dumped{false};

/**
 * Guards path/provider registration against dumpNow readers.  The
 * signal path avoids it after the initial atomic claim: by then
 * install()-time registration has already happened-before the crash.
 */
Mutex &
stateMu()
{
    static Mutex *mu = new Mutex();
    return *mu;
}

std::string &
dumpPath()
{
    static std::string *path = new std::string();
    return *path;
}

std::function<std::string()> &
metricsProvider()
{
    static std::function<std::string()> *fn =
        new std::function<std::string()>();
    return *fn;
}

bool
writeDump(const char *reason)
{
    std::string path;
    std::string metrics;
    {
        MutexLock lock(stateMu());
        path = dumpPath();
        if (metricsProvider())
            metrics = metricsProvider()();
    }
    if (path.empty())
        return false;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        return false;

    // The dying thread's open sampled frame is still in its frame
    // buffer; publish it so the dump shows where that frame was.
    flushOpenFrame();
    TraceRecorder &rec = TraceRecorder::instance();
    out << "{\"postmortem\":{\"reason\":\""
        << jsonEscape(reason != nullptr ? reason : "unknown")
        << "\",\"tool\":\"reuse_dnn\"},\n\"metrics\":"
        << (metrics.empty() ? "null" : metrics) << ",\n";
    // The trace body supplies otherData/exemplars/traceEvents; splice
    // its object fields into ours (drop its outer braces).
    std::ostringstream body;
    TraceExporter::writeJson(body, rec.snapshot(), rec.sampleEvery(),
                             rec.droppedEvents(),
                             TraceExporter::ExemplarExport::capture());
    std::string body_str = body.str();
    // body_str is "{...}\n"; keep the inner "...".
    const size_t open = body_str.find('{');
    const size_t close = body_str.rfind('}');
    if (open == std::string::npos || close == std::string::npos ||
        close <= open)
        return false;
    out << body_str.substr(open + 1, close - open - 1) << "}\n";
    return static_cast<bool>(out);
}

const char *
signalName(int sig)
{
    switch (sig) {
      case SIGSEGV: return "SIGSEGV";
      case SIGABRT: return "SIGABRT";
      case SIGBUS: return "SIGBUS";
      case SIGFPE: return "SIGFPE";
      case SIGILL: return "SIGILL";
      default: return "unknown";
    }
}

extern "C" void
flightRecorderSignalHandler(int sig)
{
    if (!dumped.exchange(true, std::memory_order_acq_rel)) {
        char reason[64];
        std::snprintf(reason, sizeof(reason), "signal:%s",
                      signalName(sig));
        writeDump(reason);
    }
    // Restore default disposition and re-raise so the exit status /
    // core dump behave as if we were never here.
    std::signal(sig, SIG_DFL);
    std::raise(sig);
}

void
crashHook(const char *msg)
{
    if (!dumped.exchange(true, std::memory_order_acq_rel))
        writeDump(msg);
}

} // namespace

void
FlightRecorder::install(const std::string &path)
{
    {
        MutexLock lock(stateMu());
        dumpPath() = path;
    }
    if (!installed_flag.exchange(true, std::memory_order_acq_rel)) {
        for (int sig : kFatalSignals)
            std::signal(sig, flightRecorderSignalHandler);
        setCrashHook(crashHook);
    }
}

void
FlightRecorder::setMetricsProvider(std::function<std::string()> fn)
{
    MutexLock lock(stateMu());
    metricsProvider() = std::move(fn);
}

bool
FlightRecorder::dumpNow(const char *reason)
{
    if (dumped.exchange(true, std::memory_order_acq_rel))
        return false;
    return writeDump(reason);
}

bool
FlightRecorder::installed()
{
    return installed_flag.load(std::memory_order_acquire);
}

void
FlightRecorder::resetForTest()
{
    dumped.store(false, std::memory_order_release);
    MutexLock lock(stateMu());
    dumpPath().clear();
    metricsProvider() = nullptr;
}

} // namespace obs
} // namespace reuse
