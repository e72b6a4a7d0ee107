/**
 * @file
 * Pipeline-layer experiments: the critical-path story (Figs 2, 12-14)
 * and the floorplan/core-config tables (Tables 1, 3).
 */

#include <cstdlib>
#include <string>

#include "exp/registry.hh"
#include "pipeline/critical_path.hh"
#include "pipeline/floorplan.hh"
#include "pipeline/stage_library.hh"
#include "pipeline/superpipeline.hh"
#include "power/mcpat_lite.hh"

namespace cryo::exp
{

namespace
{

using namespace cryo::pipeline;

/** Fig. 2: forwarding-stage delay breakdown at 300 K. */
void
runFig02(const Context &ctx, ExperimentResult &r)
{
    const CriticalPathModel &model = ctx.builder().cores().model();

    Table &t = r.table({"stage", "total (norm)", "transistor", "wire",
                        "wire share"});
    double wire_sum = 0.0;
    for (const auto &stage : boomSkylakeStages()) {
        for (const char *name : kFig2Stages) {
            if (stage.name != name)
                continue;
            const auto d = model.stageDelay(stage, constants::roomTemp);
            t.addRow({stage.name, Table::num(d.total()),
                      Table::num(d.logic), Table::num(d.wire),
                      Table::pct(d.wireFraction())});
            wire_sum += d.wireFraction();
        }
    }
    t.addRule();
    t.addRow({"average (paper: 57.6%)", "", "", "",
              Table::pct(wire_sum / 3.0)});

    r.anchored("avg-wire-share", wire_sum / 3.0, 0.576, 0.02, "frac");
    r.verdict(
        "The intra-core forwarding wires dominate these stages' "
        "critical paths - the 300 K frequency wall of Section 2.2.");
}

/** Fig. 12: stage-wise critical-path delays at 300 K. */
void
runFig12(const Context &ctx, ExperimentResult &r)
{
    const CriticalPathModel &model = ctx.builder().cores().model();
    const auto stages = boomSkylakeStages();

    Table &t =
        r.table({"stage", "kind", "delay", "wire share", "pipelinable"});
    for (const auto &d : model.stageDelays(stages, constants::roomTemp)) {
        t.addRow({d.name,
                  d.kind == StageKind::Frontend ? "frontend" : "backend",
                  Table::num(d.total()), Table::pct(d.wireFraction()),
                  d.pipelinable ? "yes" : "no"});
    }
    t.addRule();
    const double front =
        averageWireFraction(stages, StageKind::Frontend);
    const double back = averageWireFraction(stages, StageKind::Backend);
    t.addRow({"critical stage",
              model.criticalStage(stages, constants::roomTemp,
                                  ctx.technology().mosfet()
                                      .params().nominal),
              Table::num(model.maxDelay(stages, constants::roomTemp)),
              "", ""});
    t.addRow({"frontend avg wire (paper ~19%)", "", "",
              Table::pct(front), ""});
    t.addRow({"backend avg wire (paper ~45%)", "", "",
              Table::pct(back), ""});

    r.anchored("frontend-avg-wire", front, 0.19, 0.03, "frac");
    r.anchored("backend-avg-wire", back, 0.45, 0.07, "frac");
    r.verdict(
        "300K Observations #1/#2: backend stages carry the wire delay, "
        "and the un-pipelinable bypass stages set the cycle time.");
}

/** Fig. 13: the same stages at 77 K. */
void
runFig13(const Context &ctx, ExperimentResult &r)
{
    const CriticalPathModel &model = ctx.builder().cores().model();
    const auto stages = boomSkylakeStages();

    Table &t = r.table({"stage", "300K", "77K", "reduction"});
    const auto d300 = model.stageDelays(stages, constants::roomTemp);
    const auto d77 = model.stageDelays(stages, constants::ln2Temp);
    for (std::size_t i = 0; i < stages.size(); ++i) {
        t.addRow({d77[i].name, Table::num(d300[i].total()),
                  Table::num(d77[i].total()),
                  Table::pct(1.0 - d77[i].total() / d300[i].total())});
    }
    t.addRule();
    const double max300 = model.maxDelay(stages, constants::roomTemp);
    const double max77 = model.maxDelay(stages, constants::ln2Temp);
    t.addRow({"max (critical: " +
                  model.criticalStage(stages, constants::ln2Temp,
                                      ctx.technology().mosfet()
                                          .params().nominal) +
                  ")",
              Table::num(max300), Table::num(max77),
              Table::pct(1.0 - max77 / max300) + " (paper 19%)"});

    r.anchored("max-delay-reduction", 1.0 - max77 / max300, 0.19, 0.25,
               "frac");
    r.verdict(
        "77K Observation #1 reproduced: the critical path moves to the "
        "frontend (fetch1) and caps the cooling-only frequency gain.");
}

/** Fig. 14: superpipelined 77 K critical paths. */
void
runFig14(const Context &ctx, ExperimentResult &r)
{
    const CriticalPathModel &model = ctx.builder().cores().model();
    Superpipeliner sp{model};
    const auto baseline = boomSkylakeStages();
    const auto plan = sp.plan(baseline, constants::ln2Temp);

    r.note("target latency: " + Table::num(plan.targetLatency) +
           " (stage: " + plan.targetStage + ")");
    std::string splits = "splits:";
    for (const auto &s : plan.splits)
        splits += " [" + s.stage + " -> " + std::to_string(s.pieces) +
            "]";
    r.note(splits);
    r.note("");

    Table &t = r.table({"stage", "77K delay", "under target"});
    for (const auto &d :
         model.stageDelays(plan.result, constants::ln2Temp)) {
        t.addRow({d.name, Table::num(d.total()),
                  d.total() <= plan.targetLatency + 1e-9 ? "yes" : "NO"});
    }

    const double max300 = model.maxDelay(baseline, constants::roomTemp);
    const double max77b = model.maxDelay(baseline, constants::ln2Temp);
    const double max77sp =
        model.maxDelay(plan.result, constants::ln2Temp);
    Table &s = r.table({"metric", "paper", "measured"});
    s.addRow({"cycle-time reduction vs 300K", "38.0%",
              Table::pct(1.0 - max77sp / max300)});
    s.addRow({"frequency gain vs 300K baseline", "+61%",
              Table::pct(max300 / max77sp - 1.0).insert(0, 1, '+')});
    s.addRow({"frequency gain vs 77K baseline", "+38%",
              Table::pct(max77b / max77sp - 1.0).insert(0, 1, '+')});
    s.addRow({"frontend stages", "8",
              std::to_string(frontendStageCount(plan.result))});
    s.addRow({"pipeline depth", "17",
              std::to_string(kBaselineDepth + plan.addedStages)});

    r.anchored("cycle-time-reduction-vs-300k", 1.0 - max77sp / max300,
               0.38, 0.05, "frac");
    r.anchored("freq-gain-vs-300k", max300 / max77sp - 1.0, 0.61, 0.07,
               "frac");
    r.anchored("freq-gain-vs-77k", max77b / max77sp - 1.0, 0.38, 0.06,
               "frac");
    r.anchored("frontend-stages",
               static_cast<double>(frontendStageCount(plan.result)),
               8.0, 0.0);
    r.anchored("pipeline-depth",
               static_cast<double>(kBaselineDepth + plan.addedStages),
               17.0, 0.0);
    r.verdict(
        "77K Observation #2 realized: frontend superpipelining becomes "
        "profitable once the wire-heavy backend collapses.");
}

/** Table 1: floorplan-derived forwarding wire. */
void
runTable1(const Context &ctx, ExperimentResult &r)
{
    const Floorplan &fp = ctx.builder().cores().floorplan();

    Table &t = r.table({"unit", "area (um^2)", "width (um)",
                        "height (um)"});
    t.addRow({"ALU", Table::num(fp.alu().area.value() * 1e12, 0),
              Table::num(fp.alu().width.value() * 1e6, 0),
              Table::num(fp.alu().height().value() * 1e6, 1)});
    t.addRow({"Register file",
              Table::num(fp.regfile().area.value() * 1e12, 0),
              Table::num(fp.regfile().width.value() * 1e6, 0),
              Table::num(fp.regfile().height().value() * 1e6, 1)});
    t.addRule();
    const double fwd_um = fp.forwardingWireLength().value() * 1e6;
    t.addRow({"Forwarding wire (8*ALU + RF)", "paper: 1686 um", "",
              Table::num(fwd_um, 1) + " um"});
    t.addRow({"Writeback wire (8*ALU + RF/2)", "", "",
              Table::num(fp.writebackWireLength().value() * 1e6, 1) +
                  " um"});

    r.anchored("forwarding-wire-um", fwd_um, 1686.0, 0.01, "um");
    r.metric("writeback-wire-um",
             fp.writebackWireLength().value() * 1e6, "um");
    r.verdict("Table 1 reproduced from the unit geometry.");
}

/** Table 3: the core-design ladder. */
void
runTable3(const Context &ctx, ExperimentResult &r)
{
    const CoreDesigner &designer = ctx.builder().cores();
    power::McpatLite mcpat{ctx.technology(), /*iso_activity=*/false};
    const auto base = designer.baseline300();

    Table &t = r.table({"design", "f model", "f paper", "depth",
                        "width", "IPC@4GHz", "Vdd/Vth", "P_core model",
                        "P_core paper", "P_total model",
                        "P_total paper"});
    for (const auto &c : designer.table3Ladder()) {
        const auto p = mcpat.corePower(c, base);
        t.addRow({c.name,
                  Table::num(c.frequency / 1e9, 2) + " GHz",
                  Table::num(c.paperFrequency / 1e9, 2) + " GHz",
                  std::to_string(c.pipelineDepth),
                  std::to_string(c.structures.width),
                  Table::num(c.ipcFactor, 2),
                  Table::num(c.voltage.vdd, 2) + "/" +
                      Table::num(c.voltage.vth, 3),
                  Table::num(p.device(), 3),
                  Table::num(c.paperCorePower, 3),
                  Table::num(p.total(), 2),
                  Table::num(c.paperTotalPower, 2)});
        // Model frequency vs the published Table-3 column, per design.
        r.anchored("f/" + c.name, c.frequency / 1e9,
                   c.paperFrequency / 1e9, 0.06, "GHz");
    }

    r.verdict(
        "Frequencies within ~4% of Table 3. Power follows C*V^2*f "
        "consistently; the paper's CryoSP/CHP rows omit the final "
        "frequency factor (0.093 = 0.3575 x Vdd-ratio^2 exactly), so "
        "our totals for those two rows sit ~20% above its 1.00.");
}

} // namespace

void
registerPipelineExperiments(Registry &reg)
{
    reg.add({"fig02-stage-breakdown",
             "Fig. 2 - forwarding-stage delay breakdown",
             "The intra-core wire share of the three longest backend "
             "stages at 300 K.",
             {"figure", "pipeline", "smoke"},
             runFig02});
    reg.add({"fig12-critical-path-300k",
             "Fig. 12 - 300 K critical-path delays",
             "All 13 representative BOOM/Skylake stages; backend "
             "forwarding stages are the frequency bottleneck.",
             {"figure", "pipeline", "smoke"},
             runFig12});
    reg.add({"fig13-critical-path-77k",
             "Fig. 13 - 77 K critical-path delays",
             "Cooling collapses the backend forwarding stages but "
             "barely helps the frontend.",
             {"figure", "pipeline", "smoke"},
             runFig13});
    reg.add({"fig14-superpipelined",
             "Fig. 14 - superpipelined 77 K critical paths",
             "Section 4.4 methodology: split every pipelinable stage "
             "that exceeds the longest un-pipelinable backend stage.",
             {"figure", "pipeline", "smoke"},
             runFig14});
    reg.add({"table1-floorplan",
             "Table 1 - floorplan-derived forwarding wire",
             "Unit areas from BOOM synthesis; the forwarding wire "
             "spans all ALUs plus the register file.",
             {"table", "pipeline", "smoke"},
             runTable1});
    reg.add({"table3-core-configs",
             "Table 3 - pipeline specification ladder",
             "Model-derived frequency and power next to the published "
             "column values.",
             {"table", "pipeline", "power", "smoke"},
             runTable3});
}

} // namespace cryo::exp
