/**
 * @file
 * The experiment runner: selects experiments from the registry,
 * simulates all their netsim cells in one pool, then runs their hooks
 * (both phases optionally in parallel on the shared thread pool, with
 * deterministic registry-order results). bench/cryowire_bench.cc is
 * the command line on top; it feeds every sink and applies the anchor
 * gate.
 */

#ifndef CRYOWIRE_EXP_RUNNER_HH
#define CRYOWIRE_EXP_RUNNER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "exp/registry.hh"
#include "exp/sinks.hh"

namespace cryo::exp
{

/** Parsed CLI options (also usable programmatically / from tests). */
struct RunOptions
{
    std::vector<std::string> filters; ///< tags or name globs; empty=all
    std::uint64_t seed = 1;           ///< base seed for stochastic sims
    int jobs = 1;          ///< concurrent cells/hooks (1 = one thread)
    std::string jsonPath;  ///< write results JSON here when non-empty
    std::string csvDir;    ///< write per-experiment CSVs when non-empty
    bool list = false;     ///< print the selection and exit
    bool quiet = false;    ///< suppress per-experiment text

    /**
     * Wall-clock budget [s] for each unit of work: one pooled netsim
     * cell or one experiment hook. An experiment with a unit still
     * running past it is flagged on stderr (once) but not killed, so
     * hangs are diagnosable without perturbing the deterministic
     * sinks. 0 disables the watchdog. The default sits far above the
     * slowest unit (fig26's 256-node saturation searches take ~10 s
     * each) so it only fires on genuine hangs.
     */
    double watchdogSeconds = 600.0;
};

/**
 * Run the experiments of @p registry that match opts.filters, in two
 * phases, each with up to opts.jobs units in flight:
 *  1. every selected experiment's cells (Experiment::cells), each
 *     once, in one pool, longest first by Cell::cost, ties in
 *     declaration order;
 *  2. every hook, reading those results through its Context.
 * Records always come back in registration order, independent of the
 * job count.
 *
 * Each experiment is isolated: one that throws is captured in its
 * RunRecord (failed / error / errorContext) and the remaining
 * experiments still run. A cell that throws in the pool stays out of
 * the table; its hook recomputes it and fails as it would alone.
 * Watchdog flags go to stderr only - never into the records - so
 * JSON/CSV output stays byte-identical across job counts and machine
 * speeds.
 */
std::vector<RunRecord> runExperiments(const Registry &registry,
                                      const RunOptions &opts);

} // namespace cryo::exp

#endif // CRYOWIRE_EXP_RUNNER_HH
