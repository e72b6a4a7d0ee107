/**
 * @file
 * cryowire_bench: the unified experiment driver. Runs the registered
 * figure/table reproductions, renders the classic text report, emits
 * machine-readable JSON/CSV, and gates every paper anchor (non-zero
 * exit on a miss). See `cryowire_bench --help`.
 */

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "exp/runner.hh"
#include "util/cli.hh"
#include "util/output.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"

namespace
{

using namespace cryo;
using namespace cryo::exp;

void
printList(const std::vector<const Experiment *> &selection)
{
    Table t({"name", "tags", "title"});
    for (const Experiment *e : selection) {
        std::string tags;
        for (const std::string &tag : e->tags) {
            if (!tags.empty())
                tags += ',';
            tags += tag;
        }
        t.addRow({e->name, tags, e->title});
    }
    t.print();
    std::printf("%zu experiment(s)\n", selection.size());
}

int
run(const RunOptions &opts)
{
    const Registry &registry = Registry::builtins();
    const std::vector<const Experiment *> selection =
        registry.match(opts.filters);
    if (selection.empty()) {
        std::fprintf(stderr,
                     "cryowire_bench: no experiment matches the "
                     "filter; try --list\n");
        return 2;
    }
    if (opts.list) {
        printList(selection);
        return 0;
    }

    const std::vector<RunRecord> records =
        runExperiments(registry, opts);

    if (!opts.quiet) {
        for (const RunRecord &rec : records)
            std::fputs(renderText(rec).c_str(), stdout);
        std::fputs("\n", stdout);
    }

    if (!opts.jsonPath.empty()) {
        std::ostringstream json;
        writeJson(json, records, opts.seed);
        writeFile(opts.jsonPath, json.view());
    }
    if (!opts.csvDir.empty()) {
        for (const RunRecord &rec : records)
            writeCsv(opts.csvDir, rec);
    }

    const std::size_t failed = renderAnchorSummary(std::cout, records);
    return failed == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions opts;
    const cli::Spec spec{
        "cryowire_bench",
        "usage: cryowire_bench [options]\n"
        "\n"
        "Run the registered figure/table experiments and gate their paper\n"
        "anchors. Exit 0 = every anchor within tolerance, 1 = anchor miss,\n"
        "failed experiment or an output that cannot be written, 2 = usage\n"
        "error.\n",
        {
            cli::toggle("--list", &opts.list,
                        "print the selected experiments and exit"),
            cli::list("--filter", "F", &opts.filters,
                      "select by tag or name glob")
                .defaultsTo("all experiments"),
            cli::text("--json", "PATH", &opts.jsonPath,
                      "write the machine-readable results JSON"),
            cli::text("--csv", "DIR", &opts.csvDir,
                      "write per-experiment CSVs into DIR"),
            cli::number("--seed", "N", &opts.seed, 0, UINT64_MAX,
                        "base seed for stochastic simulations"),
            cli::number("--jobs", "N", &opts.jobs, 1, ThreadPool::kMaxJobs,
                        "netsim cells, then experiments, run\n"
                        "concurrently, each on one thread; 1 runs\n"
                        "everything on one thread.\n"
                        "Results are byte-identical at any job count"),
            cli::number("--watchdog", "S", &opts.watchdogSeconds, 0.0, 1e6,
                        "flag an experiment whose netsim cell or hook "
                        "runs past S seconds on stderr; 0 disables"),
            cli::toggle("--quiet", &opts.quiet,
                        "suppress the per-experiment text report"),
        }};
    return cli::runDriver(spec, argc, argv, [&] { return run(opts); });
}
