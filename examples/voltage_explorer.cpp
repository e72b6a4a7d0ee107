/**
 * @file
 * Voltage explorer: interactively re-derive a CryoSP-style operating
 * point with the constrained Vdd/Vth optimizer.
 *
 *   ./voltage_explorer [temperature_K] [power_budget]
 *
 * Prints a coarse map of the feasible (Vdd, Vth) plane at the chosen
 * temperature plus the frequency- and efficiency-optimal points, so
 * the leakage wall the paper builds on is visible at a glance.
 */

#include <cstdio>

#include "core/system_builder.hh"
#include "core/voltage_optimizer.hh"
#include "tech/technology.hh"
#include "util/cli.hh"
#include "util/table.hh"

int
main(int argc, char **argv)
{
    using namespace cryo;
    using namespace cryo::core;

    double temp_k = 77.0;
    double budget = 1.0;
    // A malformed number becomes -1, which the range check rejects.
    if (argc > 1)
        temp_k = cli::parseFinite(argv[1]).value_or(-1.0);
    if (argc > 2)
        budget = cli::parseFinite(argv[2]).value_or(-1.0);
    if (temp_k < 40.0 || temp_k > 400.0 || budget <= 0.0) {
        std::fprintf(stderr,
                     "usage: voltage_explorer [40..400 K] [budget>0]\n");
        return 1;
    }

    auto technology = tech::Technology::freePdk45();
    SystemBuilder builder{technology};
    pipeline::CriticalPathModel model{technology,
                                      pipeline::Floorplan::skylakeLike()};
    VoltageOptimizer optimizer{technology, model};
    const auto base = builder.cores().baseline300();
    const auto core = builder.cores().superpipelineCryoCore77();

    VoltageConstraints constraints;
    constraints.totalPowerBudget = budget;

    std::printf("Vdd/Vth plane at %.0f K (budget %.2fx baseline "
                "total power)\n\n", temp_k, budget);
    std::printf("legend: '.' infeasible (margins)  'L' leaks  "
                "'P' over budget  '#' feasible\n\n      ");
    for (double vth = 0.15; vth <= 0.45; vth += 0.05)
        std::printf(" Vth=%.2f", vth);
    std::printf("\n");
    for (double vdd = 1.25; vdd >= 0.55 - 1e-9; vdd -= 0.10) {
        std::printf("Vdd=%.2f", vdd);
        for (double vth = 0.15; vth <= 0.45; vth += 0.05) {
            char mark = '.';
            if (vdd > vth && vdd >= constraints.minVdd &&
                vdd >= constraints.minVddVthRatio * vth) {
                const auto p = optimizer.evaluate(
                    core, base, temp_k, {vdd, vth}, constraints);
                if (p.feasible) {
                    mark = '#';
                } else if (p.leakageFactor > 1.0) {
                    mark = 'L';
                } else {
                    mark = 'P';
                }
            }
            std::printf("    %c   ", mark);
        }
        std::printf("\n");
    }

    const auto fast = optimizer.optimize(
        core, base, temp_k, VoltageObjective::Frequency, constraints);
    const auto efficient = optimizer.optimize(
        core, base, temp_k, VoltageObjective::PerfPerWatt, constraints);

    Table t({"objective", "Vdd", "Vth", "frequency", "total power"});
    auto row = [&](const char *label, const VoltagePlanPoint &p) {
        if (p.feasible) {
            t.addRow({label, Table::num(p.voltage.vdd, 2),
                      Table::num(p.voltage.vth, 3),
                      Table::num(p.frequency / 1e9, 2) + " GHz",
                      Table::num(p.totalPower, 3)});
        } else {
            t.addRow({label, "-", "-", "infeasible", "-"});
        }
    };
    row("max frequency", fast);
    row("max perf/watt", efficient);
    t.print();

    std::printf("\nAt 300 K the 'L' wall pins the whole plane near "
                "nominal voltages; at 77 K it retreats and the budget "
                "('P') becomes the binding constraint - the paper's "
                "Section-4.5 argument, drawn.\n");
    return 0;
}
