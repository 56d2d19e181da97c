#include "trace_exporter.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/logging.h"

namespace reuse {
namespace obs {

namespace {

/** Writes one microsecond value with sub-us (ns) precision. */
void
writeMicros(std::ostream &os, int64_t ns)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                  static_cast<long long>(ns / 1000),
                  static_cast<long long>(ns % 1000));
    os << buf;
}

/** Writes the members of one "args" object; unnamed args are skipped. */
struct ArgWriter {
    std::ostream &os;
    bool first = true;

    template <typename T>
    void operator()(const char *name, T value)
    {
        if (name == nullptr)
            return;
        os << (first ? "\"" : ",\"") << name << "\":" << value;
        first = false;
    }

    /** The span kind's named generic args a-d (see spanArgNames). */
    void kindArgs(const TraceEvent &ev)
    {
        const SpanArgNames names = spanArgNames(ev.kind);
        (*this)(names.a, ev.a);
        (*this)(names.b, ev.b);
        (*this)(names.c, ev.c);
        (*this)(names.d, ev.d);
    }
};

void
writeEvent(std::ostream &os, const TraceEvent &ev)
{
    const bool instant = ev.durNs == 0 && isInstantKind(ev.kind);
    os << "{\"name\":\"" << spanKindName(ev.kind)
       << "\",\"cat\":\"reuse\",\"ph\":\"" << (instant ? 'i' : 'X')
       << "\",\"pid\":1,\"tid\":" << ev.tid << ",\"ts\":";
    writeMicros(os, ev.startNs);
    if (instant)
        os << ",\"s\":\"t\"";
    else {
        os << ",\"dur\":";
        writeMicros(os, ev.durNs);
    }
    os << ",\"args\":{";
    ArgWriter arg{os};
    if (ev.layer >= 0)
        arg("layer", ev.layer);
    arg.kindArgs(ev);
    arg("session", ev.session);
    arg("frame", ev.frame);
    if (ev.kind == SpanKind::LayerExec ||
        ev.kind == SpanKind::FirstExec) {
        arg("first", (ev.flags & kFlagFirstExecution) ? 1 : 0);
        arg("reuse", (ev.flags & kFlagReuseEnabled) ? 1 : 0);
    }
    os << "}}";
}

/** Writes a double as a JSON number ("-1" for the n/a sentinel). */
void
writeRatio(std::ostream &os, double value)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6f", value);
    os << buf;
}

void
writeBody(std::ostream &os, const std::vector<TraceEvent> &events,
          uint32_t sample_every, uint64_t dropped,
          const TraceExporter::ExemplarExport *exemplars)
{
    os << "{\"displayTimeUnit\":\"ms\",\"otherData\":{"
       << "\"tool\":\"reuse_dnn\",\"sampleEvery\":" << sample_every
       << ",\"droppedEvents\":" << dropped;
    if (exemplars != nullptr) {
        os << ",\"exemplarsCommitted\":" << exemplars->committed
           << ",\"exemplarsDropped\":" << exemplars->dropped
           << ",\"exemplarStagingOverflows\":"
           << exemplars->stagingOverflows;
    }
    os << "}";
    if (exemplars != nullptr) {
        os << ",\"exemplars\":[";
        for (size_t i = 0; i < exemplars->exemplars.size(); ++i) {
            if (i != 0)
                os << ",";
            os << "\n";
            TraceExporter::writeExemplar(os, exemplars->exemplars[i]);
        }
        os << "\n]";
    }
    os << ",\"traceEvents\":[";
    for (size_t i = 0; i < events.size(); ++i) {
        if (i != 0)
            os << ",";
        os << "\n";
        writeEvent(os, events[i]);
    }
    os << "\n]}\n";
}

} // namespace

TraceExporter::ExemplarExport
TraceExporter::ExemplarExport::capture()
{
    const ExemplarRecorder &rec = ExemplarRecorder::instance();
    ExemplarExport out;
    out.exemplars = rec.snapshot();
    out.committed = rec.committed();
    out.dropped = rec.dropped();
    out.stagingOverflows = rec.stagingOverflows();
    return out;
}

void
TraceExporter::writeExemplar(std::ostream &os, const Exemplar &ex)
{
    os << "{\"session\":" << ex.session << ",\"frame\":" << ex.frame
       << ",\"class\":\""
       << ExemplarRecorder::instance().className(ex.sloClass)
       << "\",\"class_ordinal\":" << static_cast<int>(ex.sloClass)
       << ",\"causes\":[";
    bool first = true;
    for (uint32_t bit = 1; bit != 0 && bit <= ex.causes; bit <<= 1) {
        if (!(ex.causes & bit))
            continue;
        if (!first)
            os << ",";
        first = false;
        os << "\"" << exemplarCauseName(bit) << "\"";
    }
    os << "],\"truncated\":" << (ex.truncated ? "true" : "false")
       << ",\"stolen\":" << (ex.stolen ? "true" : "false")
       << ",\"migrations\":" << ex.migrations
       << ",\"enqueued_us\":" << ex.enqueuedMicros
       << ",\"completed_us\":" << ex.completedMicros
       << ",\"deadline_us\":" << ex.deadlineMicros
       << ",\"latency_us\":" << ex.latencyUs << ",\"reuse_ratio\":";
    writeRatio(os, ex.reuseRatio);
    os << ",\"spans\":[";
    for (size_t i = 0; i < ex.spans.size(); ++i) {
        const TraceEvent &s = ex.spans[i];
        if (i != 0)
            os << ",";
        os << "{\"name\":\"" << spanKindName(s.kind) << "\",\"ts\":";
        writeMicros(os, s.startNs);
        os << ",\"dur\":";
        writeMicros(os, s.durNs);
        os << ",\"layer\":" << s.layer << ",\"flags\":" << s.flags
           << ",\"args\":{";
        ArgWriter{os}.kindArgs(s);
        os << "}}";
    }
    os << "]}";
}

void
TraceExporter::writeJson(std::ostream &os,
                         const std::vector<TraceEvent> &events,
                         uint32_t sample_every, uint64_t dropped)
{
    writeBody(os, events, sample_every, dropped, nullptr);
}

void
TraceExporter::writeJson(std::ostream &os,
                         const std::vector<TraceEvent> &events,
                         uint32_t sample_every, uint64_t dropped,
                         const ExemplarExport &exemplars)
{
    writeBody(os, events, sample_every, dropped, &exemplars);
}

std::string
TraceExporter::exportString()
{
    TraceRecorder &rec = TraceRecorder::instance();
    std::ostringstream oss;
    writeJson(oss, rec.snapshot(), rec.sampleEvery(),
              rec.droppedEvents());
    return oss.str();
}

bool
TraceExporter::exportFile(const std::string &path)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
        warn("trace export: cannot write " + path);
        return false;
    }
    TraceRecorder &rec = TraceRecorder::instance();
    const ExemplarRecorder &exrec = ExemplarRecorder::instance();
    if (exrec.armed() || exrec.committed() > 0) {
        writeJson(out, rec.snapshot(), rec.sampleEvery(),
                  rec.droppedEvents(), ExemplarExport::capture());
    } else {
        writeJson(out, rec.snapshot(), rec.sampleEvery(),
                  rec.droppedEvents());
    }
    return static_cast<bool>(out);
}

} // namespace obs
} // namespace reuse
