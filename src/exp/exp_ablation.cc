/**
 * @file
 * Ablation experiments beyond the paper's figures: voltage search,
 * repeater redesign, superpipelining sweeps, CryoBus ingredient
 * decomposition, technology-node scaling, floorplan scaling, and the
 * CloudSuite stress test.
 */

#include <algorithm>
#include <string>
#include <vector>

#include "core/voltage_optimizer.hh"
#include "exp/registry.hh"
#include "noc/wire_link.hh"
#include "pipeline/ipc_model.hh"
#include "pipeline/stage_library.hh"
#include "pipeline/superpipeline.hh"
#include "sys/interval_sim.hh"
#include "sys/workload.hh"
#include "tech/repeater.hh"
#include "util/units.hh"

namespace cryo::exp
{

namespace
{

using namespace cryo::units;

/** Vdd/Vth design-space search behind CryoSP (Section 4.5). */
void
runVoltage(const Context &ctx, ExperimentResult &r)
{
    using namespace cryo::core;

    VoltageOptimizer opt{ctx.technology(), ctx.builder().cores().model()};
    const auto base = ctx.builder().cores().baseline300();
    const auto core = ctx.builder().cores().superpipelineCryoCore77();

    Table &t = r.table({"temperature", "budget", "Vdd", "Vth",
                        "frequency", "total power", "note"});
    double f300 = 0.0;
    for (double temp : {77.0, 100.0, 150.0, 200.0, 300.0}) {
        VoltageConstraints c;
        const auto res = opt.optimize(core, base, temp,
                                      VoltageObjective::Frequency, c);
        if (temp >= 299.0 && res.feasible)
            f300 = res.frequency / 1e9;
        t.addRow({Table::num(temp, 0) + " K", "1.0x",
                  res.feasible ? Table::num(res.voltage.vdd, 2) : "-",
                  res.feasible ? Table::num(res.voltage.vth, 3) : "-",
                  res.feasible
                      ? Table::num(res.frequency / 1e9, 2) + " GHz"
                      : "-",
                  res.feasible ? Table::num(res.totalPower, 3) : "-",
                  temp >= 299.0 ? "leakage pins Vth near nominal"
                                : "scaling feasible"});
    }
    t.addRule();
    double paper_f = 0.0, best_f = 0.0;
    {
        VoltageConstraints c;
        c.totalPowerBudget = 1.30;
        const auto paper =
            opt.evaluate(core, base, 77.0, {0.64, 0.25}, c);
        const auto best = opt.optimize(core, base, 77.0,
                                       VoltageObjective::Frequency, c);
        paper_f = paper.frequency / 1e9;
        best_f = best.frequency / 1e9;
        t.addRow({"77 K (paper's point)", "1.3x", "0.64", "0.250",
                  Table::num(paper_f, 2) + " GHz",
                  Table::num(paper.totalPower, 3),
                  "Table 3's hand-picked CryoSP point"});
        t.addRow({"77 K (searched, same budget)", "1.3x",
                  Table::num(best.voltage.vdd, 2),
                  Table::num(best.voltage.vth, 3),
                  Table::num(best_f, 2) + " GHz",
                  Table::num(best.totalPower, 3), "model optimum"});
    }
    {
        VoltageConstraints c;
        const auto eff = opt.optimize(
            core, base, 77.0, VoltageObjective::PerfPerWatt, c);
        t.addRow({"77 K (perf/W objective)", "1.0x",
                  Table::num(eff.voltage.vdd, 2),
                  Table::num(eff.voltage.vth, 3),
                  Table::num(eff.frequency / 1e9, 2) + " GHz",
                  Table::num(eff.totalPower, 3),
                  "efficiency-optimal point"});
    }

    r.anchored("paper-point-freq-ghz", paper_f, 7.84, 0.06, "GHz");
    r.anchored("search-300k-freq-ghz", f300, 4.00, 0.01, "GHz");
    r.metric("search-77k-freq-ghz", best_f, "GHz");
    r.verdict(
        "The search reproduces the paper's method: at 77 K the leakage "
        "collapse opens a wide feasible region around its (0.64, 0.25) "
        "choice; at 300 K the same search finds nothing better than "
        "nominal.");
}

/** Cooling vs redesigning repeatered wires. */
void
runRepeater(const Context &ctx, ExperimentResult &r)
{
    using tech::WireLayer;

    tech::RepeateredWire wire{
        ctx.technology().wire(WireLayer::Global),
        ctx.technology().mosfet()};

    double redesigned_6mm = 0.0, frozen_6mm = 0.0;
    Table &t = r.table({"length", "segments 300K", "segments 77K",
                        "speed-up (frozen)", "speed-up (redesigned)",
                        "left on table"});
    for (Metre len : {2 * mm, 6 * mm, 12 * mm, 20 * mm}) {
        const auto d300 = wire.optimize(len, constants::roomTemp);
        const auto d77 = wire.optimize(len, constants::ln2Temp);
        const double frozen =
            d300.delay /
            wire.delayWithFrozenLayout(len, constants::roomTemp,
                                       constants::ln2Temp);
        const double redesigned = d300.delay / d77.delay;
        if (len.value() > 5e-3 && len.value() < 7e-3) {
            frozen_6mm = frozen;
            redesigned_6mm = redesigned;
        }
        t.addRow({Table::num(len.value() * 1e3, 0) + " mm",
                  std::to_string(d300.segments),
                  std::to_string(d77.segments), Table::mult(frozen),
                  Table::mult(redesigned),
                  Table::pct(1.0 - frozen / redesigned)});
    }

    r.anchored("redesigned-6mm-speedup", redesigned_6mm, 3.05, 0.03,
               "x");
    r.metric("frozen-6mm-speedup", frozen_6mm, "x");
    r.verdict(
        "The 77 K redesign uses fewer, smaller repeaters (the wire "
        "resistance fell ~8x) and recovers the remaining speed-up - "
        "the microarchitectural analogue of the paper's thesis that "
        "cooling alone is not enough.");
}

/** When does frontend superpipelining pay off? */
void
runSuperpipeline(const Context &ctx, ExperimentResult &r)
{
    using namespace cryo::pipeline;

    const CriticalPathModel &model = ctx.builder().cores().model();
    IpcModel ipc;
    const auto baseline = boomSkylakeStages();

    int cuts300 = -1, cuts77 = -1;
    double net77 = 0.0;
    Table &t = r.table({"temperature", "stages cut", "depth",
                        "freq gain", "IPC cost", "net gain",
                        "verdict"});
    for (double temp :
         {300.0, 250.0, 200.0, 150.0, 125.0, 100.0, 77.0}) {
        Superpipeliner sp{model};
        const units::Kelvin t_k{temp};
        const auto plan = sp.plan(baseline, t_k);
        const double f_gain = model.frequency(plan.result, t_k) /
            model.frequency(baseline, t_k);
        const double ipc_factor =
            ipc.frontendDeepeningFactor(plan.addedStages);
        const double net = f_gain * ipc_factor;
        if (temp == 300.0)
            cuts300 = static_cast<int>(plan.splits.size());
        if (temp == 77.0) {
            cuts77 = static_cast<int>(plan.splits.size());
            net77 = net;
        }
        t.addRow({Table::num(temp, 0) + " K",
                  std::to_string(
                      static_cast<int>(plan.splits.size())),
                  std::to_string(kBaselineDepth + plan.addedStages),
                  Table::mult(f_gain), Table::pct(1.0 - ipc_factor),
                  Table::mult(net),
                  net > 1.02 ? "pays off"
                             : (plan.effective() ? "marginal"
                                                 : "no cuts")});
    }

    Table &o = r.table({"latch overhead (norm)", "stages cut",
                        "freq vs 300K", "net gain at 77K"});
    for (double overhead : {0.02, 0.05, 0.08, 0.12, 0.16, 0.22}) {
        Superpipeliner sp{model, overhead};
        const auto plan = sp.plan(baseline, constants::ln2Temp);
        const double f_vs_300 =
            model.frequency(plan.result, constants::ln2Temp) /
            model.frequency(baseline, constants::roomTemp);
        const double net =
            model.frequency(plan.result, constants::ln2Temp) /
            model.frequency(baseline, constants::ln2Temp) *
            ipc.frontendDeepeningFactor(plan.addedStages);
        o.addRow({Table::num(overhead, 2),
                  std::to_string(
                      static_cast<int>(plan.splits.size())),
                  Table::mult(f_vs_300), Table::mult(net)});
    }

    r.anchored("cuts-at-300k", cuts300, 0.0, 0.0);
    r.anchored("cuts-at-77k", cuts77, 3.0, 0.0);
    r.anchored("net-gain-77k", net77, 1.31, 0.05, "x");
    r.verdict(
        "Superpipelining switches on as the wire-heavy backend "
        "collapses with cooling (no cuts at 300 K, full 3-stage cut "
        "by ~150 K) and remains profitable up to realistic latch "
        "overheads - the design window CryoSP sits in.");
}

/** CryoBus ingredient decomposition. */
void
runBusDesign(const Context &ctx, ExperimentResult &r)
{
    const noc::NocDesigner &designer = ctx.builder().nocs();

    int cryobus_broadcast = 0;
    Table &t = r.table({"design", "max hops", "hops/cycle",
                        "broadcast cycles", "bandwidth (tx/node/cyc)",
                        "ingredients"});
    struct Row
    {
        noc::NocConfig cfg;
        const char *ingredients;
    };
    const Row rows[] = {
        {designer.sharedBus300(), "none (baseline)"},
        {designer.sharedBus77(), "cooling only"},
        {designer.hTreeBus300(), "topology only"},
        {designer.cryoBus(), "cooling + topology + dyn links"},
    };
    for (const auto &row : rows) {
        const auto b = row.cfg.busBreakdown();
        if (row.cfg.name() == designer.cryoBus().name())
            cryobus_broadcast = b.broadcast;
        t.addRow(
            {row.cfg.name(),
             std::to_string(row.cfg.topology().maxBroadcastHops()),
             std::to_string(row.cfg.hopsPerCycle()),
             std::to_string(b.broadcast),
             Table::num(sys::IntervalSimulator::saturationTxRate(
                            row.cfg, 1),
                        4),
             row.ingredients});
    }

    // Bandwidth scaling with interleaving ways (Section 7.1).
    double bw1 = 0.0, bw2 = 0.0, bw8 = 0.0;
    Table &w = r.table({"CryoBus ways", "bandwidth (tx/node/cyc)",
                        "covers SPEC band (hi 0.024)?"});
    for (int ways : {1, 2, 4, 8}) {
        const double sat = sys::IntervalSimulator::saturationTxRate(
            designer.cryoBus(), ways);
        if (ways == 1)
            bw1 = sat;
        else if (ways == 2)
            bw2 = sat;
        else if (ways == 8)
            bw8 = sat;
        w.addRow({std::to_string(ways), Table::num(sat, 4),
                  sat > 0.024 ? "yes" : "no"});
    }

    // How the broadcast degrades as the machine warms - the quantized
    // cliff behind the Fig. 27 sweet spot.
    Table &temp = r.table({"temperature", "hops/cycle",
                           "broadcast cycles",
                           "bandwidth (tx/node/cyc)"});
    for (double k :
         {77.0, 100.0, 125.0, 150.0, 200.0, 250.0, 300.0}) {
        const auto cfg = designer.cryoBusAt(k);
        temp.addRow(
            {Table::num(k, 0) + " K",
             std::to_string(cfg.hopsPerCycle()),
             std::to_string(cfg.busBreakdown().broadcast),
             Table::num(sys::IntervalSimulator::saturationTxRate(cfg,
                                                                 1),
                        4)});
    }

    r.anchored("cryobus-broadcast-cycles", cryobus_broadcast, 1.0,
               0.0, "cycles");
    r.anchored("interleaving-scaling-8way", bw8 / bw1, 8.0, 0.02,
               "x");
    r.anchored("2way-covers-spec-band", bw2 > 0.024 ? 1.0 : 0.0, 1.0,
               0.0);
    r.verdict(
        "Neither ingredient suffices alone (3-cycle broadcasts both "
        "ways); their product reaches the 1-cycle target, and "
        "interleaving then scales bandwidth linearly.");
}

/** CryoSP-style frequency gain (superpipelined 77 K vs 300 K). */
double
cryoSpGain(const tech::Technology &technology)
{
    pipeline::CriticalPathModel model{
        technology, pipeline::Floorplan::skylakeLike()};
    pipeline::Superpipeliner sp{model};
    const auto baseline = pipeline::boomSkylakeStages();
    const auto plan = sp.plan(baseline, constants::ln2Temp);
    return model.frequency(plan.result, constants::ln2Temp) /
        model.frequency(baseline, constants::roomTemp);
}

/** Wires in smaller technologies (Section 7.5). */
void
runTechnologyNode(const Context &, ExperimentResult &r)
{
    using tech::WireLayer;

    double local45 = 0.0, local10 = 0.0, global10 = 0.0;
    Table &t = r.table({"node", "local speed-up",
                        "semi-global (fwd wire)", "global link",
                        "CryoBus hops/cyc @77K", "CryoSP freq gain"});
    for (double node : {45.0, 22.0, 10.0}) {
        auto technology = tech::Technology::scaledNode(node);
        noc::WireLink link{technology};
        const double local = technology.wireSpeedup(
            WireLayer::Local, 2 * mm, constants::ln2Temp, 64.0);
        const double global = technology.repeateredWireSpeedup(
            WireLayer::Global, 6 * mm, constants::ln2Temp);
        if (node == 45.0)
            local45 = local;
        if (node == 10.0) {
            local10 = local;
            global10 = global;
        }
        t.addRow({Table::num(node, 0) + " nm", Table::mult(local),
                  Table::mult(technology.wireSpeedup(
                      WireLayer::SemiGlobal, 1686 * um,
                      constants::ln2Temp, 140.0)),
                  Table::mult(global),
                  std::to_string(link.hopsPerCycle(
                      4.0 * GHz, constants::ln2Temp,
                      noc::NocDesigner::kV300)),
                  Table::mult(cryoSpGain(technology))});
    }
    t.addRule();
    double thick_fwd = 0.0;
    {
        auto mitigated = tech::Technology::scaledNode(10.0, true);
        noc::WireLink link{mitigated};
        thick_fwd = mitigated.wireSpeedup(WireLayer::SemiGlobal,
                                          1686 * um,
                                          constants::ln2Temp, 140.0);
        t.addRow({"10 nm + thick fwd wires",
                  Table::mult(mitigated.wireSpeedup(
                      WireLayer::Local, 2 * mm, constants::ln2Temp,
                      64.0)),
                  Table::mult(thick_fwd),
                  Table::mult(mitigated.repeateredWireSpeedup(
                      WireLayer::Global, 6 * mm, constants::ln2Temp)),
                  std::to_string(link.hopsPerCycle(
                      4.0 * GHz, constants::ln2Temp,
                      noc::NocDesigner::kV300)),
                  Table::mult(cryoSpGain(mitigated))});
    }

    r.anchored("global-link-10nm", global10, 3.05, 0.03, "x");
    r.anchored("thick-fwd-wire-10nm", thick_fwd, 2.81, 0.03, "x");
    r.metric("local-erosion-45nm-to-10nm", local10 / local45, "x");
    r.verdict(
        "Section 7.5 reproduced: local wires lose most of their "
        "cryogenic gain at small nodes while the node-independent "
        "global links keep CryoBus fully effective. Drawing the "
        "forwarding wires thicker restores their speed-up, though at "
        "10 nm the eroded *local* (CAM) wires become CryoSP's new "
        "frequency floor - a finding one step beyond the paper's "
        "qualitative argument.");
}

/** Floorplan scaling and the forwarding wires. */
void
runFloorplan(const Context &ctx, ExperimentResult &r)
{
    using namespace cryo::pipeline;

    const auto baseline = boomSkylakeStages();

    Table &t = r.table({"floorplan area", "fwd wire (um)",
                        "target latency @77K", "cuts",
                        "frequency @77K", "vs full-size"});
    double full_freq = 0.0, half_ratio = 0.0;
    int half_cuts = -1;
    for (double area : {2.0, 1.0, 0.5, 0.25}) {
        const Floorplan fp = Floorplan::skylakeLike().scaled(area);
        CriticalPathModel model{ctx.technology(), fp};
        Superpipeliner sp{model};
        const auto plan = sp.plan(baseline, constants::ln2Temp);
        const double freq =
            model.frequency(plan.result, constants::ln2Temp).value();
        if (area == 1.0)
            full_freq = freq;
        if (area == 0.5) {
            half_ratio = freq / full_freq;
            half_cuts = static_cast<int>(plan.splits.size());
        }
        t.addRow(
            {Table::num(area, 2) + "x",
             Table::num(fp.forwardingWireLength().value() * 1e6, 0),
             Table::num(plan.targetLatency, 3),
             std::to_string(static_cast<int>(plan.splits.size())),
             Table::num(freq / 1e9, 2) + " GHz",
             full_freq > 0.0 ? Table::mult(freq / full_freq) : "-"});
    }

    r.anchored("halved-floorplan-freq-ratio", half_ratio, 0.97, 0.02,
               "x");
    r.anchored("halved-floorplan-cuts", half_cuts, 3.0, 0.0);
    r.verdict(
        "Shorter forwarding wires benefit less from 77 K (they are "
        "driver-limited), so the halved CryoCore floorplan clocks ~3% "
        "below the full-size derivation - consistent with Table 3 "
        "keeping 6.4 GHz for the down-sized machine. Physically "
        "larger execution clusters gain the most from CryoSP.");
}

/** CloudSuite-style scale-out services on the Table-4 systems. */
void
runCloudSuite(const Context &ctx, ExperimentResult &r)
{
    using namespace cryo::sys;

    const IntervalSimulator &sim = ctx.simulator();
    const auto suite = cloudSuite();

    std::vector<SystemDesign> designs = {
        ctx.builder().baseline300Mesh(),
        ctx.builder().chpMesh77(),
        ctx.builder().cryoSpCryoBus77(1),
        ctx.builder().cryoSpCryoBus77(2),
        ctx.builder().cryoSpCryoBus77(4),
    };
    const auto res = sim.speedups(designs, suite, 0);

    int saturated = 0;
    Table &t = r.table({"workload", "300K base", "CHP Mesh",
                        "CryoBus 1-way", "2-way", "4-way",
                        "1-way state"});
    for (std::size_t wi = 0; wi < suite.size(); ++wi) {
        std::vector<std::string> row{suite[wi].name};
        for (double p : res.perf[wi])
            row.push_back(Table::num(p));
        const bool sat = sim.run(designs[2], suite[wi]).saturated;
        saturated += sat ? 1 : 0;
        row.push_back(sat ? "saturated" : "ok");
        t.addRow(row);
    }
    t.addRule();
    {
        std::vector<std::string> row{"MEAN"};
        for (double m : res.mean)
            row.push_back(Table::num(m));
        row.push_back("");
        t.addRow(row);
    }

    // The Fig.-18 band endpoints recomputed from these workloads: the
    // unthrottled demand each service would offer on an ideal NoC.
    const auto ideal = ctx.builder().idealNoc77();
    double lo = 1.0, hi = 0.0;
    for (const auto &w : suite) {
        const auto run = sim.run(ideal, w);
        const double rate =
            w.l3Apki / 1000.0 / (run.timePerInstr * 4.0e9);
        lo = std::min(lo, rate);
        hi = std::max(hi, rate);
    }
    r.note("measured CloudSuite injection band: " +
           Table::num(lo, 4) + " - " + Table::num(hi, 4) +
           " req/node/cycle (Fig. 18 band: 0.0080 - 0.0300)");

    r.anchored("saturated-1way-workloads", saturated, 4.0, 0.0);
    // The recomputed band must stay inside the Fig. 18 drawn band.
    r.anchored("band-inside-fig18",
               (lo >= 0.008 && hi <= 0.030) ? 1.0 : 0.0, 1.0, 0.0);
    r.metric("band-lo", lo, "req/node/cyc");
    r.metric("band-hi", hi, "req/node/cyc");
    r.verdict(
        "Scale-out services stress the snooping bus harder than "
        "SPEC - most saturate the 1-way CryoBus, and the interleaving "
        "the paper proposes for SPEC (Section 7.1) is what makes the "
        "design hold for servers too.");
}

} // namespace

void
registerAblationExperiments(Registry &reg)
{
    reg.add({"ablation-voltage",
             "Ablation - Vdd/Vth design space (CryoSP derivation)",
             "Grid search maximizing frequency s.t. leakage <= 300K "
             "baseline, total power budget, SRAM Vmin, noise margins.",
             {"ablation", "pipeline", "power", "slow"},
             runVoltage});
    reg.add({"ablation-repeater",
             "Ablation - cooling vs redesigning repeatered wires",
             "Frozen 300 K repeater layout at 77 K vs a layout "
             "re-optimized for 77 K (global layer).",
             {"ablation", "wire", "smoke"},
             runRepeater});
    reg.add({"ablation-superpipeline",
             "Ablation - superpipelining across temperature and "
             "overhead",
             "Net single-thread gain = frequency gain x IPC factor "
             "from the misprediction model.",
             {"ablation", "pipeline", "smoke"},
             runSuperpipeline});
    reg.add({"ablation-bus-design",
             "Ablation - CryoBus ingredient decomposition",
             "Broadcast cycles and bus bandwidth for every "
             "(topology x temperature) combination.",
             {"ablation", "noc", "smoke"},
             runBusDesign});
    reg.add({"ablation-technology-node",
             "Ablation - technology-node scaling (Section 7.5)",
             "Cryogenic wire gains as the node shrinks, and the "
             "thick-forwarding-wire mitigation.",
             {"ablation", "wire", "smoke"},
             runTechnologyNode});
    reg.add({"ablation-floorplan",
             "Ablation - floorplan scale vs superpipelined frequency",
             "The forwarding-wire length tracks the execution "
             "cluster's area; the un-pipelinable bypass target tracks "
             "the wire.",
             {"ablation", "pipeline", "smoke"},
             runFloorplan});
    reg.add({"ablation-cloudsuite",
             "Ablation - CloudSuite-style scale-out services",
             "64-core runs on the five evaluated systems, normalized "
             "to the 300 K baseline; plus the band check behind "
             "Fig. 18.",
             {"ablation", "system", "smoke"},
             runCloudSuite});
}

} // namespace cryo::exp
