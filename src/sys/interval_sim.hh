/**
 * @file
 * System-level interval simulator (the gem5 full-system substitute).
 *
 * Execution time per instruction composes:
 *  - core time: CPI / (IPC factor) / frequency;
 *  - the cache ladder: per-level accesses x latency / MLP;
 *  - interconnect transactions at the protocol-dependent count
 *    (directory protocols also pay the coherence transactions a
 *    snooping bus folds into its broadcast);
 *  - synchronization: each barrier/lock op serializes one coherence
 *    operation per core at the interconnect ordering point;
 *  - queueing: an M/D/1 wait on the interconnect's saturation
 *    bandwidth, solved to a fixed point with the instruction rate.
 */

#ifndef CRYOWIRE_SYS_INTERVAL_SIM_HH
#define CRYOWIRE_SYS_INTERVAL_SIM_HH

#include <cstddef>
#include <string>
#include <vector>

#include "mem/memory_system.hh"
#include "noc/noc_config.hh"
#include "pipeline/core_config.hh"
#include "sys/workload.hh"

namespace cryo::sys
{

/** One complete system design point (a Table-4 row). */
struct SystemDesign
{
    std::string name;
    pipeline::CoreConfig core;
    noc::NocConfig noc;
    mem::MemTiming mem;
    bool idealNoc = false; ///< Fig. 17's zero-latency snooping NoC
    int busWays = 1;       ///< address-interleaving ways (Section 7.1)

    /**
     * Validates the composed design: delegates to the core/memory
     * validators and checks busWays >= 1. Throws cryo::FatalError
     * naming every offence. Called at the top of
     * IntervalSimulator::run().
     */
    void validate() const;
};

/** Time-per-instruction decomposition [s] (the Fig. 3 CPI stack). */
struct CpiStack
{
    double core = 0.0;
    double l2 = 0.0;
    double l3Noc = 0.0;   ///< interconnect zero-load portion
    double l3Cache = 0.0;
    double dram = 0.0;
    double sync = 0.0;    ///< serialized coherence ops at barriers
    double queue = 0.0;   ///< interconnect contention wait

    double total() const
    {
        return core + l2 + l3Noc + l3Cache + dram + sync + queue;
    }

    /** The paper's Fig.-3 "NoC" portion: traversal + contention +
     * synchronization, all interconnect-borne. */
    double
    nocShare() const
    {
        const double t = total();
        return t > 0.0 ? (l3Noc + sync + queue) / t : 0.0;
    }
};

/** Simulation outcome for one (design, workload) pair. */
struct SimResult
{
    double timePerInstr = 0.0; ///< [s]
    CpiStack stack;
    double utilization = 0.0;  ///< interconnect rho
    bool saturated = false;

    /**
     * False when the fixed-point iteration exhausted kMaxIterations
     * without meeting the relative tolerance. The result is still the
     * last (damped) iterate and remains finite; callers that need
     * converged numbers can branch on this flag.
     */
    bool converged = true;

    /** Performance = inverse execution time. */
    double perf() const { return 1.0 / timePerInstr; }
};

/** Per-workload speed-ups of a set of designs over one of them. */
struct Speedups
{
    /** perf[w][d]: the baseline's time over design d's on workload w. */
    std::vector<std::vector<double>> perf;
    /** Arithmetic mean of perf[.][d] over the suite, per design. */
    std::vector<double> mean;
};

/**
 * The interval simulator.
 */
class IntervalSimulator
{
  public:
    IntervalSimulator() = default;

    /** Simulate one workload on one design. */
    SimResult run(const SystemDesign &design, const Workload &w) const;

    /**
     * Simulate a whole workload suite on one design, on the calling
     * thread.  Validates the design and derives its interconnect
     * invariants (memory-system latency, saturation bandwidth, sync-op
     * cost, queueing service time) once instead of once per workload.
     * Results are index-aligned with @p suite and bit-identical to
     * per-workload run() calls.
     */
    std::vector<SimResult> runSuite(const SystemDesign &design,
                                    const std::vector<Workload> &suite)
        const;

    /** Speed-up of @p design over @p baseline on @p w. */
    double speedup(const SystemDesign &design,
                   const SystemDesign &baseline, const Workload &w) const;

    /**
     * The speed-up table of Figs. 17, 23 and 24: every design in
     * @p designs over designs[@p baseline], on each workload of
     * @p suite, plus each design's mean over the suite. One runSuite
     * per design, all on the calling thread.
     */
    Speedups speedups(const std::vector<SystemDesign> &designs,
                      const std::vector<Workload> &suite,
                      std::size_t baseline) const;

    /** Mean speed-up of @p design over @p baseline on @p suite:
     * speedups({baseline, design}, suite, 0).mean[1]. */
    double meanSpeedup(const SystemDesign &design,
                       const SystemDesign &baseline,
                       const std::vector<Workload> &suite) const;

    /**
     * Interconnect saturation bandwidth [transactions/node/cycle]:
     * grant-rate/occupancy bound for buses, bisection bound for router
     * networks (cross-checked against the netsim in the test suite).
     */
    static double saturationTxRate(const noc::NocConfig &noc,
                                   int bus_ways);

    /** NoC-ordering-point cost of one serialized coherence op [s]. */
    static double syncOpCost(const SystemDesign &design);

    /** Fixed-point iterations (converges well before this). */
    static constexpr int kMaxIterations = 120;

    /** Utilization clamp treated as saturation. */
    static constexpr double kRhoMax = 0.995;
};

} // namespace cryo::sys

#endif // CRYOWIRE_SYS_INTERVAL_SIM_HH
