#include "superpipeline.hh"

#include <algorithm>
#include <cmath>

#include "util/diag.hh"

namespace cryo::pipeline
{

Superpipeliner::Superpipeliner(const CriticalPathModel &model,
                               double latch_overhead)
    : model_(model), latchOverhead_(latch_overhead)
{
    fatalIf(latch_overhead < 0.0, "latch overhead cannot be negative");
}

std::vector<std::string>
Superpipeliner::substageNames(const std::string &stage, int pieces)
{
    if (pieces == 2) {
        // Section 4.4's named cuts.
        if (stage == "fetch1")
            return {"BTB + fast prediction", "I-cache decode"};
        if (stage == "fetch3")
            return {"branch decode", "address check"};
        if (stage == "decode & rename")
            return {"instruction decode", "dependency check"};
    }
    std::vector<std::string> names;
    names.reserve(pieces);
    for (int i = 1; i <= pieces; ++i) {
        names.push_back(stage + " (" + std::to_string(i) + "/" +
                        std::to_string(pieces) + ")");
    }
    return names;
}

SuperpipelinePlan
Superpipeliner::plan(const StageList &stages, units::Kelvin temp,
                     const tech::VoltagePoint &v) const
{
    fatalIf(stages.empty(), "pipeline has no stages");

    SuperpipelinePlan out;
    const std::vector<StageDelay> delays =
        model_.stageDelays(stages, temp, v);

    // Step 1: target = longest un-pipelinable delay at (T, V).
    for (std::size_t i = 0; i < stages.size(); ++i) {
        if (stages[i].pipelinable)
            continue;
        const double d = delays[i].total();
        if (d > out.targetLatency) {
            out.targetLatency = d;
            out.targetStage = stages[i].name;
        }
    }
    fatalIf(out.targetLatency <= 0.0,
            "pipeline has no un-pipelinable stage to set the target");

    // Step 2: cut every pipelinable stage exceeding the target.
    for (std::size_t i = 0; i < stages.size(); ++i) {
        const PipelineStage &s = stages[i];
        const double d = delays[i].total();
        if (s.pipelinable && d > out.targetLatency && s.maxSplit > 1) {
            // Smallest piece count whose substage (balanced split plus
            // latch overhead) fits under the target; capped by maxSplit.
            int pieces = s.maxSplit;
            for (int k = 2; k <= s.maxSplit; ++k) {
                if (d / k + latchOverhead_ <= out.targetLatency) {
                    pieces = k;
                    break;
                }
            }
            StageSplit split{s.name, pieces,
                             substageNames(s.name, pieces)};

            // Balanced cut: logic and wire split evenly, latch overhead
            // charged as transistor delay to each substage. The
            // overhead is expressed in the 300 K budget such that it
            // evaluates to exactly latchOverhead_ at the design point.
            const double mf =
                model_.technology().mosfet().delayFactor(temp, v);
            for (int j = 0; j < pieces; ++j) {
                PipelineStage sub = s;
                sub.name = split.substages[j];
                const double logic300 =
                    s.logic300() / pieces + latchOverhead_ / mf;
                const double wire300 = s.wire300() / pieces;
                sub.delay300 = logic300 + wire300;
                sub.wireFraction = wire300 / sub.delay300;
                sub.maxSplit = 1;
                out.result.push_back(sub);
            }
            out.addedStages += pieces - 1;
            out.splits.push_back(std::move(split));
        } else {
            out.result.push_back(s);
        }
    }
    return out;
}

SuperpipelinePlan
Superpipeliner::plan(const StageList &stages, units::Kelvin temp) const
{
    return plan(stages, temp,
                model_.technology().mosfet().params().nominal);
}

} // namespace cryo::pipeline
