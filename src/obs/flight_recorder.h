/**
 * @file
 * Postmortem flight recorder: when the process dies — fatal signal,
 * fatal()/panic(), or an injected engine fatal — the in-memory trace
 * rings (plus the dumping thread's open sampled frame), the committed
 * exemplar ring, and a metrics snapshot are dumped to a file that
 * latency_doctor and trace_report read offline.
 *
 * The dump is best-effort by design: it runs on the crashing thread,
 * takes the same locks snapshot() takes (trace rings are
 * seqlock-read, the exemplar ring takes a mutex — acceptable because
 * fatal paths are not lock-holding hot paths), and a reentrancy guard
 * makes a crash-during-dump terminate without recursing.  install()
 * claims the fatal-signal handlers (SIGSEGV/SIGABRT/SIGBUS/SIGFPE/
 * SIGILL) and the common-layer crash hook, so both hardware faults
 * and REUSE_ASSERT/panic() produce the same artifact.
 */

#ifndef REUSE_DNN_OBS_FLIGHT_RECORDER_H
#define REUSE_DNN_OBS_FLIGHT_RECORDER_H

#include <functional>
#include <string>

namespace reuse {
namespace obs {

/**
 * Process-wide postmortem dumper.  All methods are static; state is
 * process-global because signal handlers cannot carry instance
 * pointers.
 */
class FlightRecorder
{
  public:
    /**
     * Arms the recorder: remembers `path`, installs the fatal-signal
     * handlers and the logging crash hook.  Call once near process
     * start; later calls re-point the output path.
     */
    static void install(const std::string &path);

    /**
     * Registers a callback producing a JSON object string (e.g. a
     * MetricsExporter snapshot) embedded as the dump's "metrics"
     * field.  Optional; the dump writes "null" without one.
     */
    static void setMetricsProvider(std::function<std::string()> fn);

    /**
     * Writes the postmortem dump now (also the crash path's entry
     * point).  Safe to call directly for tests and orderly shutdown
     * reports.  Returns false when disarmed, already dumped, or the
     * file cannot be written.
     */
    static bool dumpNow(const char *reason);

    /** True once install() ran (test hook). */
    static bool installed();

    /** Re-arms after a dump and clears the path (test hook). */
    static void resetForTest();
};

} // namespace obs
} // namespace reuse

#endif // REUSE_DNN_OBS_FLIGHT_RECORDER_H
