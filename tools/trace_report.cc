/**
 * @file
 * Trace inspection CLI: aggregates an exported trace file
 * (obs::TraceExporter's Chrome trace-event JSON) back into per-layer
 * reuse tables, and validates traces against the checked-in schema
 * for the CI trace-smoke job.
 *
 * Usage:
 *   trace_report TRACE.json                 # per-layer report
 *   trace_report TRACE.json --csv           # same, CSV
 *   trace_report TRACE.json --validate=SCHEMA.json
 *
 * Exit codes: 0 success, 1 parse/validation failure, 2 usage error.
 */

#include <iostream>
#include <string>

#include "common/json.h"
#include "common/table_writer.h"
#include "obs/trace_aggregate.h"

using namespace reuse;

namespace {

int
usage()
{
    std::cerr << "usage: trace_report TRACE.json [--csv] "
                 "[--validate=SCHEMA.json]\n";
    return 2;
}

void
printKindLine(std::ostream &os, const obs::TraceAggregate &agg,
              const char *name, const char *label)
{
    auto it = agg.kinds.find(name);
    if (it == agg.kinds.end())
        return;
    const obs::KindTraceAgg &k = it->second;
    os << "  " << label << ": " << k.count;
    if (!k.durUs.empty()) {
        os << " (p50 "
           << formatDouble(obs::tracePercentile(k.durUs, 0.50), 1)
           << " us, p99 "
           << formatDouble(obs::tracePercentile(k.durUs, 0.99), 1)
           << " us)";
    }
    os << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string trace_path;
    std::string schema_path;
    bool csv = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--validate=", 0) == 0) {
            schema_path = arg.substr(std::string("--validate=").size());
        } else if (arg == "--csv") {
            csv = true;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "trace_report: unknown option " << arg << "\n";
            return usage();
        } else if (trace_path.empty()) {
            trace_path = arg;
        } else {
            return usage();
        }
    }
    if (trace_path.empty())
        return usage();

    JsonParseResult trace = parseJsonFile(trace_path);
    if (!trace.ok) {
        std::cerr << "trace_report: " << trace.error << "\n";
        return 1;
    }

    if (!schema_path.empty()) {
        JsonParseResult schema = parseJsonFile(schema_path);
        if (!schema.ok) {
            std::cerr << "trace_report: " << schema.error << "\n";
            return 1;
        }
        std::string why;
        if (!obs::validateTrace(trace.value, schema.value, &why)) {
            std::cerr << "trace_report: " << trace_path
                      << " FAILED schema validation: " << why << "\n";
            return 1;
        }
        std::cout
            << trace_path << ": valid ("
            << trace.value.at("traceEvents").asArray().size()
            << " events)\n";
    }

    obs::TraceAggregate agg;
    std::string why;
    if (!obs::aggregateTrace(trace.value, &agg, &why)) {
        std::cerr << "trace_report: " << why << "\n";
        return 1;
    }

    std::cout << "Trace: " << trace_path << " (" << agg.events
              << " events, 1/" << agg.sampleEvery
              << " frame sampling, " << agg.droppedEvents
              << " dropped)\n";
    if (agg.droppedEvents > 0) {
        std::cout << "WARNING: trace rings wrapped — "
                  << agg.droppedEvents
                  << " events lost; per-layer sums undercount. Sample "
                     "fewer frames or export more often\n";
    }

    if (!agg.layers.empty()) {
        TableWriter t({"Layer", "Spans", "Similarity", "Comp. Reuse",
                       "p50 us", "p99 us"});
        for (const auto &[li, layer] : agg.layers) {
            t.addRow({std::to_string(li),
                      std::to_string(layer.spans),
                      formatPercent(layer.similarity()),
                      formatPercent(layer.computationReuse()),
                      formatDouble(
                          obs::tracePercentile(layer.durUs, 0.50), 1),
                      formatDouble(
                          obs::tracePercentile(layer.durUs, 0.99), 1)});
        }
        std::cout << "\nPer-layer steady-state reuse (first "
                     "executions excluded):\n";
        if (csv)
            t.printCsv(std::cout);
        else
            t.print(std::cout);
    } else {
        std::cout << "No steady-state layer_exec spans in trace.\n";
    }

    std::cout << "\nEvent summary:\n";
    printKindLine(std::cout, agg, "frame_exec", "frames traced");
    printKindLine(std::cout, agg, "queue_wait", "queue waits");
    printKindLine(std::cout, agg, "first_exec", "first executions");
    printKindLine(std::cout, agg, "layer_scan", "change scans");
    printKindLine(std::cout, agg, "layer_apply", "delta applies");
    printKindLine(std::cout, agg, "pool_dispatch", "pool dispatches");
    printKindLine(std::cout, agg, "drift_refresh", "drift refreshes");
    printKindLine(std::cout, agg, "eviction", "evictions");
    printKindLine(std::cout, agg, "frame_shed", "shed frames");
    printKindLine(std::cout, agg, "corruption_recovery",
                  "corruption recoveries");
    printKindLine(std::cout, agg, "frame_submit", "submit instants");
    printKindLine(std::cout, agg, "steal", "work steals");
    printKindLine(std::cout, agg, "migration", "session migrations");

    if (agg.hasExemplars) {
        std::cout << "\nTail-latency exemplars: " << agg.exemplarCount
                  << " in file (" << agg.exemplarsCommitted
                  << " committed, " << agg.exemplarsDropped
                  << " dropped, " << agg.exemplarStagingOverflows
                  << " staging overflows)\n";
        if (agg.exemplarsDropped > 0) {
            std::cout << "WARNING: exemplar ring overflowed — "
                      << agg.exemplarsDropped
                      << " exemplars lost; raise "
                         "exemplars.ringCapacity or export more "
                         "often\n";
        }
        if (agg.exemplarStagingOverflows > 0) {
            std::cout << "WARNING: per-frame staging overflowed "
                      << agg.exemplarStagingOverflows
                      << " times — attribution of truncated "
                         "exemplars undercounts layer time\n";
        }
    }
    return 0;
}
