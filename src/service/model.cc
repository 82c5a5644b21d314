#include "service/model.hh"

#include <utility>

#include "common/contracts.hh"
#include "stats/sequential_bound.hh"
#include "telemetry/telemetry.hh"

namespace mithra::service
{

namespace
{

using core::watchdog::Snapshot;

telemetry::Json
envelopeJson(const stats::ProportionEnvelope &envelope,
             double confidence)
{
    telemetry::Json::Object out;
    out.emplace("confidence", telemetry::Json(confidence));
    out.emplace("lower", telemetry::Json(envelope.lower));
    out.emplace("upper", telemetry::Json(envelope.upper));
    return telemetry::Json(std::move(out));
}

core::DecisionLoopOptions
servingLoop(double threshold)
{
    core::DecisionLoopOptions loop;
    loop.oracleThreshold = threshold;
    loop.onlineSampleRate = 0.0; // decisions stay pure over the batch
    return loop;
}

} // namespace

Model::Model(std::string modelId, core::CompiledWorkload compiled,
             std::unique_ptr<core::Classifier> decider,
             core::ThresholdResult tunedThreshold,
             const ModelConfig &modelConfig)
    : name(std::move(modelId)),
      workload(std::move(compiled)),
      classifier(std::move(decider)),
      threshold(tunedThreshold),
      configuration(modelConfig),
      stream(modelConfig.shards, servingLoop(tunedThreshold.threshold),
             modelConfig.watchdog)
{
    MITHRA_EXPECTS(workload.benchmark != nullptr,
                   "model needs a compiled benchmark");
    MITHRA_EXPECTS(classifier != nullptr, "model needs a classifier");
    benchmarkName = workload.benchmark->name();
    width = workload.benchmark->npuTopology().front();
}

InvokeOutcome
Model::invoke(const float *rows, std::size_t count)
{
    MITHRA_EXPECTS(count > 0, "invoke batch must not be empty");
    std::lock_guard<std::mutex> hold(mutex);

    const axbench::InvocationTrace trace =
        core::traceFromInputs(workload, rows, width, count);
    InvokeOutcome outcome;
    const core::DecisionTotals decided =
        stream.decide(*classifier, trace, outcome.decisions);
    const core::ShardedEvaluation evidence = stream.evaluation();
    const core::ShardReport lifetime = evidence.totals();
    batches += 1;

    MITHRA_COUNT("service.invocations", count);
    MITHRA_COUNT("service.accelerated", decided.accelerated);

    telemetry::Json::Object certificate;
    certificate.emplace("model", telemetry::Json(name));
    certificate.emplace("benchmark", telemetry::Json(benchmarkName));
    certificate.emplace("design",
                        telemetry::Json(configuration.design));
    certificate.emplace("shards",
                        telemetry::Json(configuration.shards));
    certificate.emplace("threshold",
                        telemetry::Json(threshold.threshold));
    certificate.emplace("watchdogEnabled",
                        telemetry::Json(evidence.watchdogEnabled));

    telemetry::Json::Object batch;
    batch.emplace("invocations", telemetry::Json(count));
    batch.emplace("accelerated", telemetry::Json(decided.accelerated));
    batch.emplace("falsePositives",
                  telemetry::Json(decided.falsePositives));
    batch.emplace("falseNegatives",
                  telemetry::Json(decided.falseNegatives));
    batch.emplace("audits", telemetry::Json(decided.audits));
    batch.emplace("violations", telemetry::Json(decided.violations));
    batch.emplace("forcedPrecise",
                  telemetry::Json(decided.forcedPrecise));
    certificate.emplace("batch", telemetry::Json(std::move(batch)));

    telemetry::Json::Object total;
    total.emplace("batches", telemetry::Json(batches));
    total.emplace("invocations", telemetry::Json(lifetime.invocations));
    total.emplace("accelerated", telemetry::Json(lifetime.accelerated));
    total.emplace("falsePositives",
                  telemetry::Json(lifetime.falsePositives));
    total.emplace("falseNegatives",
                  telemetry::Json(lifetime.falseNegatives));
    certificate.emplace("total", telemetry::Json(std::move(total)));

    if (evidence.watchdogEnabled)
        certificate.emplace("watchdog", watchdogEvidence(evidence));

    outcome.certificate = telemetry::Json(std::move(certificate));
    return outcome;
}

/** The certificate's watchdog section: merged state and envelope
 *  plus each shard's evidence. */
telemetry::Json
Model::watchdogEvidence(const core::ShardedEvaluation &merged) const
{
    telemetry::Json::Object evidence;
    evidence.emplace(
        "state",
        telemetry::Json(core::watchdog::stateName(merged.combinedState)));
    evidence.emplace("envelope",
                     envelopeJson(merged.violationEnvelope,
                                  configuration.watchdog.confidence));
    telemetry::Json::Array perShard;
    std::size_t audits = 0;
    std::size_t violations = 0;
    for (const core::ShardReport &shard : merged.shards) {
        const Snapshot &snap = shard.watchdog;
        audits += snap.audits;
        violations += snap.violations;
        telemetry::Json::Object one;
        one.emplace("state", telemetry::Json(
                                 core::watchdog::stateName(snap.state)));
        one.emplace("invocations", telemetry::Json(snap.invocations));
        one.emplace("audits", telemetry::Json(snap.audits));
        one.emplace("violations", telemetry::Json(snap.violations));
        one.emplace("lower",
                    telemetry::Json(snap.violationLowerBound));
        one.emplace("upper",
                    telemetry::Json(snap.violationUpperBound));
        perShard.push_back(telemetry::Json(std::move(one)));
    }
    evidence.emplace("audits", telemetry::Json(audits));
    evidence.emplace("violations", telemetry::Json(violations));
    evidence.emplace("perShard",
                     telemetry::Json(std::move(perShard)));
    return telemetry::Json(std::move(evidence));
}

telemetry::Json
Model::describe() const
{
    std::lock_guard<std::mutex> hold(mutex);
    const core::ShardedEvaluation evidence = stream.evaluation();
    const core::ShardReport lifetime = evidence.totals();
    telemetry::Json::Object out;
    out.emplace("id", telemetry::Json(name));
    out.emplace("benchmark", telemetry::Json(benchmarkName));
    out.emplace("design", telemetry::Json(configuration.design));
    out.emplace("shards", telemetry::Json(configuration.shards));
    out.emplace("inputWidth", telemetry::Json(width));
    out.emplace("threshold", telemetry::Json(threshold.threshold));
    out.emplace("successLowerBound",
                telemetry::Json(threshold.successLowerBound));
    out.emplace("approximationEnabled",
                telemetry::Json(classifier->approximationEnabled()));
    out.emplace("batches", telemetry::Json(batches));
    out.emplace("invocations", telemetry::Json(lifetime.invocations));
    out.emplace("accelerated", telemetry::Json(lifetime.accelerated));
    out.emplace("watchdogEnabled", telemetry::Json(evidence.watchdogEnabled));
    if (evidence.watchdogEnabled)
        out.emplace("watchdog", watchdogEvidence(evidence));
    return telemetry::Json(std::move(out));
}

void
ModelRegistry::add(std::shared_ptr<Model> model)
{
    MITHRA_EXPECTS(model != nullptr, "cannot register a null model");
    std::lock_guard<std::mutex> hold(mutex);
    models[model->id()] = std::move(model);
    MITHRA_GAUGE_SET("service.models", models.size());
}

std::shared_ptr<Model>
ModelRegistry::find(const std::string &id) const
{
    std::lock_guard<std::mutex> hold(mutex);
    const auto it = models.find(id);
    return it == models.end() ? nullptr : it->second;
}

std::vector<std::shared_ptr<Model>>
ModelRegistry::list() const
{
    std::lock_guard<std::mutex> hold(mutex);
    std::vector<std::shared_ptr<Model>> out;
    out.reserve(models.size());
    for (const auto &entry : models)
        out.push_back(entry.second);
    return out;
}

} // namespace mithra::service
