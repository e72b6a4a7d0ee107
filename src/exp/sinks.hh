/**
 * @file
 * Result sinks: render every ExperimentResult three ways from the same
 * data - the classic terminal/EXPERIMENTS.md Table text, a
 * machine-readable JSON document, and per-experiment CSV files - plus
 * the anchor-gate summary that turns a run into a pass/fail check.
 */

#ifndef CRYOWIRE_EXP_SINKS_HH
#define CRYOWIRE_EXP_SINKS_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "exp/experiment.hh"

namespace cryo::exp
{

/**
 * A finished (experiment, result) pair, in registry order. A record
 * whose run threw carries failed = true plus the error message and the
 * CRYO_CONTEXT chain captured at the throw; its result holds whatever
 * the experiment recorded before dying.
 */
struct RunRecord
{
    const Experiment *experiment = nullptr;
    ExperimentResult result;
    bool failed = false;
    std::string error;
    std::vector<std::string> errorContext;
};

/**
 * The classic per-figure text: banner, tables and notes in emission
 * order, one-line verdict. Byte-for-byte the format the old bench_*
 * binaries printed, so EXPERIMENTS.md snippets stay valid.
 */
std::string renderText(const Experiment &e, const ExperimentResult &r);

/**
 * Failure-aware rendering: the classic text for a healthy record, or
 * the banner plus an EXPERIMENT FAILED block (error + context chain)
 * for a failed one.
 */
std::string renderText(const RunRecord &rec);

/**
 * Results document ("cryowire-results-v2"): run seed, then one entry
 * per experiment with tags, a status ("ok" or "failed", failed entries
 * also carry error + context), and all metrics (value / unit / anchor /
 * rel_tol / pass), then the aggregate anchor counts and the failed-
 * experiment count. Metrics of failed experiments are whatever was
 * recorded before the failure and are excluded from the anchor tally.
 * Output is deterministic - no timestamps, no job-count dependence -
 * so two runs of the same build and seed are byte-identical.
 */
void writeJson(std::ostream &out, const std::vector<RunRecord> &records,
               std::uint64_t seed);

/**
 * CSV rendering into @p dir (created if missing): a
 * <name>.metrics.csv, one <name>.tableK.csv per table, and for a
 * failed record a <name>.error.csv (error + context chain). Numbers
 * print through formatDouble, so every value round-trips. Each file
 * goes through writeFile; a directory or file that cannot be written
 * is fatal().
 */
void writeCsv(const std::string &dir, const RunRecord &rec);

/**
 * Print the gate verdict: one line per failed experiment (error +
 * context chain) and per anchored metric outside tolerance, then a
 * one-line tally. Returns failed anchors + failed experiments; the
 * anchors of a failed experiment are excluded from the tally.
 */
std::size_t renderAnchorSummary(std::ostream &out,
                                const std::vector<RunRecord> &records);

} // namespace cryo::exp

#endif // CRYOWIRE_EXP_SINKS_HH
