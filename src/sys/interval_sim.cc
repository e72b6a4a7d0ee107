#include "interval_sim.hh"

#include <algorithm>
#include <cmath>

#include "util/diag.hh"
#include "util/validate.hh"

namespace cryo::sys
{

namespace
{

/** Coherence/NoC transactions overlap less than DRAM misses. */
constexpr double kNocMlp = 1.5;

/** Wormhole/allocation efficiency against the bisection bound. */
constexpr double kBisectionEfficiency = 0.7;

/** Flits per coherence transaction (request + data response). */
constexpr int kTxFlits =
    mem::MemorySystem::kRequestFlits + mem::MemorySystem::kDataFlits;

} // namespace

void
SystemDesign::validate() const
{
    CRYO_CONTEXT("validate SystemDesign " + name);
    core.validate();
    mem.validate();
    Validator v{"SystemDesign", name};
    v.atLeast("busWays", busWays, 1).done();
}

double
IntervalSimulator::saturationTxRate(const noc::NocConfig &noc,
                                    int bus_ways)
{
    const auto &topo = noc.topology();
    if (topo.isBus()) {
        // One grant per cycle per way, each holding the medium for the
        // broadcast occupancy.
        const double per_way =
            1.0 / noc.busOccupancyCycles(mem::MemorySystem::kRequestFlits);
        return per_way * bus_ways / topo.cores();
    }
    // Bisection bound: a k x k router grid has k channels crossing the
    // cut in each direction; uniform traffic sends half its flits
    // across.
    const int rk = static_cast<int>(std::lround(
        std::sqrt(static_cast<double>(topo.routerCount()))));
    const double capacity_flits = 2.0 * rk * kBisectionEfficiency;
    double crossing_links = capacity_flits;
    if (topo.kind() == noc::TopologyKind::FlattenedButterfly) {
        // Express links multiply the cut width: with rk routers per
        // row, (rk/2)^2 row links cross the cut in each row.
        const double per_row = (rk / 2.0) * (rk / 2.0);
        crossing_links = 2.0 * per_row * rk / (rk - 1.0)
            * kBisectionEfficiency;
    }
    return crossing_links /
        (topo.cores() * 0.5 * kTxFlits);
}

double
IntervalSimulator::syncOpCost(const SystemDesign &design)
{
    const double cycle = 1.0 / design.noc.clockFreq();
    if (design.idealNoc)
        return cycle; // an ideal ordered medium still serializes ops
    if (design.noc.topology().isBus()) {
        // Back-to-back grants: each op holds the ordering point for
        // one broadcast occupancy. Interleaving does not help here -
        // a contended lock/barrier variable lives on one way.
        return design.noc.busOccupancyCycles(
                   mem::MemorySystem::kRequestFlits) * cycle;
    }
    // Directory: each op is a serialized round trip through the home
    // node (request + forwarded response) plus the directory access.
    mem::MemorySystem ms{design.mem, design.noc};
    return ms.nocTransactionLatency() + design.mem.l3;
}

namespace
{

/**
 * Design-only inputs to the per-workload fixed point, derived once
 * per design (run()) or once per suite (runSuite()).  Every field is
 * computed by the same expressions the per-call path used, so hoisting
 * them does not change a single bit of the results.
 */
struct DesignInvariants
{
    bool snooping;
    double nocZeroLoad;
    double sat;
    double opCost0;
    double service; ///< M/D/1 service time of the interconnect [s]
};

DesignInvariants
deriveInvariants(const SystemDesign &design)
{
    mem::MemorySystem ms{design.mem, design.noc};
    DesignInvariants inv;
    inv.snooping = design.idealNoc ||
        design.noc.protocol() == noc::Protocol::SnoopBased;
    inv.nocZeroLoad =
        design.idealNoc ? 0.0 : ms.nocTransactionLatency();
    inv.sat = design.idealNoc
        ? 1.0
        : IntervalSimulator::saturationTxRate(design.noc,
                                              design.busWays);
    inv.opCost0 = IntervalSimulator::syncOpCost(design);
    // M/D/1-shaped wait. For the bus the service time is the
    // broadcast occupancy; for a distributed router network the
    // queueing delay accumulates hop by hop, so the wait scales
    // with the traversal itself (the standard load-latency curve).
    if (design.idealNoc) {
        inv.service = 0.0;
    } else if (design.noc.topology().isBus()) {
        inv.service = design.noc.busOccupancyCycles(
                          mem::MemorySystem::kRequestFlits)
            / design.noc.clockFreq();
    } else {
        inv.service = inv.nocZeroLoad;
    }
    return inv;
}

SimResult
simulateOne(const SystemDesign &design, const Workload &w,
            const DesignInvariants &inv)
{
    CRYO_CONTEXT("interval_sim: design=" + design.name +
                 " workload=" + w.name);
    w.validate();
    const auto &core = design.core;

    // Interconnect transactions per kilo-instruction: data plus (for
    // directories) explicit coherence, plus prefetch traffic; sync ops
    // ride the same medium.
    const double tx_pki = w.l3Apki + w.prefetchApki + w.syncPki
        + (inv.snooping ? 0.0 : w.cohPki);
    // Latency-critical interconnect transactions (prefetches excluded).
    const double critical_pki =
        w.l3Apki + (inv.snooping ? 0.0 : w.cohPki);

    const double noc_zero_load = inv.nocZeroLoad;

    CpiStack s;
    s.core = w.cpiCore / core.ipcFactor / core.frequency;
    s.l2 = w.l2Apki / 1000.0 * design.mem.l2 / w.mlp;
    s.l3Cache = w.l3Apki / 1000.0 * design.mem.l3 / kNocMlp;
    s.dram = w.dramApki / 1000.0 * design.mem.dram / w.mlp;

    const double sat = inv.sat;
    const double op_cost0 = inv.opCost0;

    // Misses traverse the interconnect twice (home slice + memory
    // controller); the extra leg counts toward the NoC portion.
    const double mc_pki = w.dramApki;

    double t = s.core + s.l2 + s.l3Cache + s.dram
        + (critical_pki + mc_pki) / 1000.0 * noc_zero_load / kNocMlp
        + w.syncPki / 1000.0 * design.noc.topology().cores() * op_cost0;
    double rho = 0.0;

    // The wait curve is evaluated below a stability cap; offered load
    // beyond the saturation bandwidth is handled by the explicit
    // throughput bound after convergence.
    constexpr double rho_cap = 0.90;

    bool converged = false;
    for (int it = 0; it < IntervalSimulator::kMaxIterations; ++it) {
        const double instr_rate = 1.0 / t; // per second, per core
        const double tx_per_node_cycle = tx_pki / 1000.0 * instr_rate
            / design.noc.clockFreq();
        rho = design.idealNoc ? 0.0 : tx_per_node_cycle / sat;
        const double rho_eff = std::min(rho, rho_cap);

        const double wait =
            inv.service * rho_eff / (2.0 * (1.0 - rho_eff));

        s.l3Noc = (critical_pki + mc_pki) / 1000.0 * noc_zero_load
            / kNocMlp;
        s.queue = critical_pki / 1000.0 * wait / kNocMlp;
        const double op_cost = op_cost0 + wait;
        s.sync = w.syncPki / 1000.0
            * design.noc.topology().cores() * op_cost;

        const double t_new = s.core + s.l2 + s.l3Noc + s.l3Cache
            + s.dram + s.sync + s.queue;
        const double t_next = 0.5 * t + 0.5 * t_new;
        if (std::abs(t_next - t) / t < 1e-9) {
            t = t_next;
            converged = true;
            break;
        }
        t = CRYO_CHECK_FINITE(t_next);
    }
    if (!converged) {
        warn("interval_sim fixed point did not converge within " +
             std::to_string(IntervalSimulator::kMaxIterations) +
             " iterations (design=" +
             design.name + " workload=" + w.name +
             "); using last damped iterate");
    }

    // Throughput bound: the interconnect cannot accept transactions
    // faster than its saturation bandwidth, so execution time is at
    // least tx-per-instruction / bandwidth. Offered load above the
    // bound pins the system there (the Fig. 24 contention victims).
    SimResult r;
    bool saturated = false;
    if (!design.idealNoc) {
        const double t_bound = tx_pki / 1000.0
            / (sat * design.noc.clockFreq());
        if (t < t_bound) {
            s.queue += t_bound - t;
            t = t_bound;
            saturated = true;
            rho = 1.0;
        }
    }
    r.timePerInstr = CRYO_CHECK_FINITE(t);
    r.stack = s;
    r.utilization = std::min(rho, 1.0);
    r.saturated = saturated || rho >= IntervalSimulator::kRhoMax;
    r.converged = converged;
    return r;
}

} // namespace

SimResult
IntervalSimulator::run(const SystemDesign &design, const Workload &w) const
{
    design.validate();
    return simulateOne(design, w, deriveInvariants(design));
}

std::vector<SimResult>
IntervalSimulator::runSuite(const SystemDesign &design,
                            const std::vector<Workload> &suite) const
{
    CRYO_CONTEXT("interval_sim suite: design=" + design.name);
    design.validate();
    const DesignInvariants inv = deriveInvariants(design);
    std::vector<SimResult> out;
    out.reserve(suite.size());
    for (const Workload &w : suite)
        out.push_back(simulateOne(design, w, inv));
    return out;
}

double
IntervalSimulator::speedup(const SystemDesign &design,
                           const SystemDesign &baseline,
                           const Workload &w) const
{
    return run(baseline, w).timePerInstr / run(design, w).timePerInstr;
}

Speedups
IntervalSimulator::speedups(const std::vector<SystemDesign> &designs,
                            const std::vector<Workload> &suite,
                            std::size_t baseline) const
{
    fatalIf(suite.empty(), "suite has no workloads");
    fatalIf(baseline >= designs.size(), "baseline index out of range");

    // One runSuite per design validates it and derives its
    // interconnect invariants once for the whole suite.
    std::vector<std::vector<SimResult>> runs;
    runs.reserve(designs.size());
    for (const SystemDesign &d : designs)
        runs.push_back(runSuite(d, suite));

    Speedups out;
    out.perf.assign(suite.size(), std::vector<double>(designs.size()));
    for (std::size_t wi = 0; wi < suite.size(); ++wi) {
        const double base_time = runs[baseline][wi].timePerInstr;
        for (std::size_t di = 0; di < designs.size(); ++di)
            out.perf[wi][di] = base_time / runs[di][wi].timePerInstr;
    }
    out.mean.assign(designs.size(), 0.0);
    for (std::size_t di = 0; di < designs.size(); ++di) {
        double sum = 0.0;
        for (std::size_t wi = 0; wi < suite.size(); ++wi)
            sum += out.perf[wi][di];
        out.mean[di] = sum / static_cast<double>(suite.size());
    }
    return out;
}

double
IntervalSimulator::meanSpeedup(const SystemDesign &design,
                               const SystemDesign &baseline,
                               const std::vector<Workload> &suite) const
{
    return speedups({baseline, design}, suite, 0).mean[1];
}

} // namespace cryo::sys
