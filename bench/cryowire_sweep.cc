/**
 * @file
 * cryowire_sweep: the design-space exploration driver. Loads a JSON
 * sweep spec, evaluates one shard of its cross-product through the
 * model stack (hash-keyed result cache, checkpointed JSONL output),
 * merges shard outputs byte-identically, and extracts the
 * perf-vs-total-power Pareto frontier. See `cryowire_sweep --help`.
 */

#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "dse/pareto.hh"
#include "dse/point_eval.hh"
#include "dse/sweep_runner.hh"
#include "dse/sweep_spec.hh"
#include "util/cli.hh"
#include "util/diag.hh"
#include "util/failpoint.hh"
#include "util/output.hh"
#include "util/thread_pool.hh"

namespace
{

using namespace cryo;
using namespace cryo::dse;

struct CliOptions
{
    std::string spec;
    std::string out = "-";
    std::string pareto;
    std::vector<std::string> mergeFiles; ///< [out, in...]
    SweepOptions sweep;
    bool quiet = false;
};

/** --shard I/N: two strict integers with 0 <= I < N. */
void
parseShard(const std::string &arg, SweepOptions *sweep)
{
    const std::size_t slash = arg.find('/');
    const auto index = cli::parseNumber<int>(arg.substr(0, slash));
    const auto count = cli::parseNumber<int>(
        slash == std::string::npos ? "" : arg.substr(slash + 1));
    fatalIf(!index || !count || *index < 0 || *index >= *count,
            "want I/N with 0 <= I < N");
    sweep->shardIndex = *index;
    sweep->shardCount = *count;
}

void
writePareto(const std::string &path,
            const std::vector<EvaluatedPoint> &points)
{
    std::ostringstream csv;
    writeParetoCsv(csv, points, paretoFrontier(points));
    writeFile(path, csv.view());
}

int
runMerge(const CliOptions &cli)
{
    std::ostringstream merged;
    mergeShards({cli.mergeFiles.begin() + 1, cli.mergeFiles.end()},
                merged);
    writeFile(cli.mergeFiles.front(), merged.view());
    if (!cli.pareto.empty()) {
        std::istringstream in{merged.str()};
        writePareto(cli.pareto,
                    readResults(in, cli.mergeFiles.front()));
    }
    if (!cli.quiet)
        std::fputs(("cryowire_sweep: merged " +
                    std::to_string(cli.mergeFiles.size() - 1) +
                    " shard file(s) into \"" + cli.mergeFiles.front() +
                    "\"\n")
                       .c_str(),
                   stderr);
    return 0;
}

int
runSpec(const CliOptions &cli)
{
    const SweepSpec spec = SweepSpec::load(cli.spec);
    const PointEvaluator evaluator;
    SweepStats stats;

    std::ostringstream lines;
    const auto points =
        runSweep(spec, evaluator, lines, cli.sweep, &stats);

    if (cli.out == "-")
        std::cout << lines.view();
    else
        writeFile(cli.out, lines.view());
    if (!cli.pareto.empty())
        writePareto(cli.pareto, points);

    if (!cli.quiet) {
        // The quarantine count appends *after* the base stats so
        // log greps for "N cache hit(s), M evaluated" keep matching.
        std::string line =
            "cryowire_sweep: " + std::to_string(stats.shardPoints) +
            " of " + std::to_string(stats.totalPoints) +
            " points (shard " + std::to_string(cli.sweep.shardIndex) +
            "/" + std::to_string(cli.sweep.shardCount) + "), " +
            std::to_string(stats.cacheHits) + " cache hit(s), " +
            std::to_string(stats.evaluated) + " evaluated";
        if (stats.quarantined > 0)
            line += ", " + std::to_string(stats.quarantined) +
                    " quarantined";
        std::fputs((line + "\n").c_str(), stderr);
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    CliOptions opts;
    const cli::Spec spec{
        "cryowire_sweep",
        "usage: cryowire_sweep --spec FILE [options]\n"
        "       cryowire_sweep --merge OUT SHARD.jsonl... [options]\n"
        "\n"
        "Evaluate a design-space sweep described by a JSON spec (see\n"
        "EXPERIMENTS.md for the schema). Results stream as JSONL, one\n"
        "point per line, in sweep-index order.\n"
        "\n"
        "exit status: 0 = success, 1 = failure, 2 = usage error.\n",
        {
            cli::text("--spec", "FILE", &opts.spec,
                      "sweep specification (JSON)"),
            cli::text("--out", "FILE", &opts.out,
                      "result JSONL; \"-\" = stdout"),
            cli::text("--cache", "FILE", &opts.sweep.cachePath,
                      "hash-keyed result cache; appended as points\n"
                      "complete, so a killed run resumes and a re-run\n"
                      "only evaluates missing points"),
            {"--shard", "I/N", "I/N with 0 <= I < N", "0/1",
             "evaluate indices with i % N == I; shard outputs\n"
             "merge byte-identically",
             [&](const std::string &v) { parseShard(v, &opts.sweep); }},
            cli::number("--jobs", "N", &opts.sweep.jobs, 1,
                        ThreadPool::kMaxJobs, "worker threads")
                .defaultsTo("CRYOWIRE_JOBS, else hardware"),
            cli::text("--pareto", "FILE", &opts.pareto,
                      "write the perf-vs-total-power Pareto frontier\n"
                      "CSV (of this run's points; combine with --merge\n"
                      "for the full sweep)"),
            cli::operands("--merge", "OUT IN...", &opts.mergeFiles, 2,
                          "merge shard result files into OUT (verbatim\n"
                          "lines, index order, gaps/duplicates fatal)"),
            cli::toggle("--fsync", &opts.sweep.fsyncCache,
                        "fsync the cache after every stored record\n"
                        "(power-loss durability; slower)"),
            {"--failpoint", "L", "site=spec;...", "none",
             "arm failpoints (grammar in util/failpoint.hh)",
             &failpoint::armFromList},
            cli::toggle("--quiet", &opts.quiet, "suppress the stats line"),
        },
        [&] {
            fatalIf(opts.spec.empty() && opts.mergeFiles.empty(),
                    "need --spec or --merge");
        }};
    return cli::runDriver(spec, argc, argv, [&] {
        return opts.mergeFiles.empty() ? runSpec(opts) : runMerge(opts);
    });
}
