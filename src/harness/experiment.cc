#include "experiment.h"

#include "common/logging.h"
#include "quant/range_profiler.h"

namespace reuse {

QuantizationPlan
calibratePlan(const Network &network,
              const std::vector<Tensor> &calibration_inputs,
              int clusters, const std::vector<size_t> &enabled_layers)
{
    const NetworkRanges ranges =
        profileNetworkRanges(network, calibration_inputs);
    return makePlan(network, ranges, clusters, enabled_layers);
}

namespace {

std::vector<double>
similarityFrom(const ReuseStatsCollector &stats)
{
    std::vector<double> sims;
    sims.reserve(stats.layers().size());
    for (const auto &l : stats.layers()) {
        if (l.reuseEnabled && l.inputsChecked > 0)
            sims.push_back(l.similarity());
        else
            sims.push_back(-1.0);
    }
    return sims;
}

std::vector<double>
reuseFrom(const ReuseStatsCollector &stats)
{
    std::vector<double> fracs;
    fracs.reserve(stats.layers().size());
    for (const auto &l : stats.layers()) {
        if (l.reuseEnabled && l.macsFull > 0)
            fracs.push_back(l.computationReuse());
        else
            fracs.push_back(-1.0);
    }
    return fracs;
}

/**
 * Shared tail of the measure functions: folds the traces into a
 * collector and derives the per-layer vectors and accuracy report.
 */
void
summarize(const ReuseEngine &engine, const MeasureOptions &options,
          const std::vector<Tensor> &reference,
          const std::vector<Tensor> &reuse_outputs,
          WorkloadMeasurement &m)
{
    m.stats = engine.makeStatsCollector();
    for (const ExecutionTrace &trace : m.traces)
        m.stats.addTrace(trace);
    if (options.withReference)
        m.accuracy = compareOutputs(reference, reuse_outputs);
    m.layerSimilarity = similarityFrom(m.stats);
    m.layerReuse = reuseFrom(m.stats);
}

} // namespace

std::vector<double>
layerSimilarityVector(const ReuseStatsCollector &stats)
{
    return similarityFrom(stats);
}

WorkloadMeasurement
measureWorkload(const Network &network, const QuantizationPlan &plan,
                const std::vector<Tensor> &inputs,
                const MeasureOptions &options)
{
    REUSE_ASSERT(!inputs.empty(), "no inputs to measure");
    if (network.isRecurrent()) {
        return measureWorkloadSequences(network, plan, {inputs},
                                        options);
    }

    WorkloadMeasurement m;
    ReuseEngine engine(network, plan);
    ReuseState state = engine.makeState();
    std::vector<Tensor> reuse_outputs;
    reuse_outputs.reserve(inputs.size());
    m.traces.resize(inputs.size());
    for (size_t i = 0; i < inputs.size(); ++i) {
        reuse_outputs.push_back(
            engine.execute(state, inputs[i], m.traces[i]));
    }

    std::vector<Tensor> reference;
    if (options.withReference) {
        reference.reserve(inputs.size());
        for (const Tensor &in : inputs)
            reference.push_back(network.forward(in));
    }
    summarize(engine, options, reference, reuse_outputs, m);
    return m;
}

WorkloadMeasurement
measureWorkloadSequences(const Network &network,
                         const QuantizationPlan &plan,
                         const std::vector<std::vector<Tensor>> &sequences,
                         const MeasureOptions &options)
{
    REUSE_ASSERT(!sequences.empty(), "no sequences to measure");
    WorkloadMeasurement m;
    ReuseEngine engine(network, plan);
    ReuseState state = engine.makeState();
    std::vector<Tensor> reuse_outputs;
    std::vector<Tensor> reference;
    m.traces.resize(sequences.size());
    for (size_t i = 0; i < sequences.size(); ++i) {
        for (Tensor &t :
             engine.executeSequence(state, sequences[i], m.traces[i]))
            reuse_outputs.push_back(std::move(t));
        if (options.withReference) {
            for (Tensor &t : network.forwardSequence(sequences[i]))
                reference.push_back(std::move(t));
        }
    }
    summarize(engine, options, reference, reuse_outputs, m);
    return m;
}

} // namespace reuse
