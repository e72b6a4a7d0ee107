/**
 * @file
 * Pipeline advisor: apply the paper's superpipelining methodology at
 * any operating temperature and report whether it pays off.
 *
 *   ./pipeline_advisor [temperature_K]   (default 77)
 *
 * Shows the per-stage critical paths, which stages the methodology
 * cuts, the resulting frequency, and the IPC cost - i.e. everything an
 * architect needs to decide whether to superpipeline at that
 * temperature.
 */

#include <cstdio>

#include "pipeline/ipc_model.hh"
#include "pipeline/stage_library.hh"
#include "pipeline/superpipeline.hh"
#include "tech/technology.hh"
#include "util/cli.hh"
#include "util/table.hh"

int
main(int argc, char **argv)
{
    using namespace cryo;
    using namespace cryo::pipeline;

    double temp_k = 77.0;
    // A malformed number becomes -1, which the range check rejects.
    if (argc > 1)
        temp_k = cli::parseFinite(argv[1]).value_or(-1.0);
    if (temp_k < 40.0 || temp_k > 400.0) {
        std::fprintf(stderr, "temperature must be in [40, 400] K\n");
        return 1;
    }

    auto technology = tech::Technology::freePdk45();
    CriticalPathModel model{technology, Floorplan::skylakeLike()};
    Superpipeliner planner{model};
    IpcModel ipc;
    const auto baseline = boomSkylakeStages();

    std::printf("Superpipelining advisor at %.0f K\n", temp_k);
    const cryo::units::Kelvin temp{temp_k};

    Table t({"stage", "delay", "pipelinable"});
    for (const auto &d : model.stageDelays(baseline, temp)) {
        t.addRow({d.name, Table::num(d.total()),
                  d.pipelinable ? "yes" : "no"});
    }
    t.print();

    const auto plan = planner.plan(baseline, temp);
    if (!plan.effective()) {
        std::printf("\nNo stage exceeds the un-pipelinable target "
                    "(%.3f, %s): further pipelining is pointless at "
                    "%.0f K - exactly the paper's 300 K conclusion.\n",
                    plan.targetLatency, plan.targetStage.c_str(),
                    temp_k);
        return 0;
    }

    std::printf("\nTarget latency %.3f (%s). Recommended cuts:\n",
                plan.targetLatency, plan.targetStage.c_str());
    for (const auto &s : plan.splits) {
        std::printf("  %-18s -> %d stages:", s.stage.c_str(), s.pieces);
        for (const auto &sub : s.substages)
            std::printf("  [%s]", sub.c_str());
        std::printf("\n");
    }

    const double f_before = model.frequency(baseline, temp).value();
    const double f_after = model.frequency(plan.result, temp).value();
    const double ipc_factor =
        ipc.frontendDeepeningFactor(plan.addedStages);
    std::printf("\nfrequency: %.2f -> %.2f GHz (+%.1f%%)\n",
                f_before / 1e9, f_after / 1e9,
                100.0 * (f_after / f_before - 1.0));
    std::printf("IPC cost of %d extra frontend stages: -%.1f%%\n",
                plan.addedStages, 100.0 * (1.0 - ipc_factor));
    const double net = f_after / f_before * ipc_factor;
    std::printf("net single-thread gain: %+.1f%% -> superpipelining "
                "%s at %.0f K\n",
                100.0 * (net - 1.0),
                net > 1.0 ? "PAYS OFF" : "does not pay off", temp_k);
    return 0;
}
