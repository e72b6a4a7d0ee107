/**
 * @file
 * The experiment runner: selects experiments from the registry, runs
 * them (optionally in parallel on the shared thread pool, with
 * deterministic registry-order results), feeds every sink, and applies
 * the anchor gate. bench/cryowire_bench.cc is the command line on top.
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
    int jobs = 1;          ///< concurrent experiments (1 = one thread)
    std::string jsonPath;  ///< write results JSON here when non-empty
    std::string csvDir;    ///< write per-experiment CSVs when non-empty
    bool list = false;     ///< print the selection and exit
    bool quiet = false;    ///< suppress per-experiment text

    /**
     * Per-experiment wall-clock budget [s]; an experiment still
     * running past it is flagged on stderr (once) but not killed, so
     * hangs are diagnosable without perturbing the deterministic
     * sinks. 0 disables the watchdog. The default sits well above the
     * slowest registered experiment (the cycle-accurate netsim sweeps
     * take a few minutes each) so it only fires on genuine hangs.
     */
    double watchdogSeconds = 600.0;
};

/**
 * Run @p selection against @p registry. Experiments are dispatched
 * with up to opts.jobs in flight; records always come back in
 * registration order, independent of the job count.
 *
 * Each experiment is isolated: one that throws is captured in its
 * RunRecord (failed / error / errorContext) and the remaining
 * experiments still run. Watchdog flags go to stderr only - never
 * into the records - so JSON/CSV output stays byte-identical across
 * job counts and machine speeds.
 */
std::vector<RunRecord> runExperiments(const Registry &registry,
                                      const RunOptions &opts);

} // namespace cryo::exp

#endif // CRYOWIRE_EXP_RUNNER_HH
