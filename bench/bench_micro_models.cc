/**
 * @file
 * Microbenchmarks of the analytic model kernels: drive delay factors,
 * distributed-RC wire delay, the repeater search, the critical path
 * over a voltage grid, and conductor resistivity, plus a full
 * interval-simulation run for scale.  Each model kernel has one
 * (scalar) implementation; only the interval suite, whose runSuite
 * is the one batch entry point, is timed both ways.  Emits the
 * cryowire-bench/1 JSON consumed by tools/bench_gate.py.
 */

#include <vector>

#include "core/system_builder.hh"
#include "pipeline/stage_library.hh"
#include "sys/interval_sim.hh"
#include "sys/workload.hh"
#include "tech/material.hh"
#include "tech/repeater.hh"
#include "tech/technology.hh"
#include "tech/wire_rc.hh"
#include "util/units.hh"

#include "micro_common.hh"

namespace
{

using namespace cryo;
using micro::keep;

const tech::Technology &
technology()
{
    static tech::Technology t = tech::Technology::freePdk45();
    return t;
}

/** A margin-feasible (vdd, vth) grid, the voltage-optimizer shape. */
std::vector<tech::VoltagePoint>
voltageGrid(std::size_t n)
{
    std::vector<tech::VoltagePoint> vs(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double u =
            static_cast<double>(i) / static_cast<double>(n - 1);
        vs[i].vdd = 0.65 + 0.65 * u;
        vs[i].vth = 0.15 + 0.30 * static_cast<double>(i % 16) / 15.0;
    }
    return vs;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace units;
    micro::Harness h{"micro_models", argc, argv};
    const Kelvin temp = constants::ln2Temp;
    const auto &mosfet = technology().mosfet();

    {
        const auto vs = voltageGrid(512);
        std::vector<double> out(vs.size());
        const double scalar = h.time(vs.size(), [&] {
            for (std::size_t i = 0; i < vs.size(); ++i)
                out[i] = mosfet.delayFactor(temp, vs[i]);
            keep(out);
        });
        h.record("mosfet_delay_factor", vs.size(), scalar);
    }

    {
        tech::WireRC rc{technology().wire(tech::WireLayer::SemiGlobal),
                        mosfet};
        const tech::VoltagePoint v = mosfet.params().nominal;
        std::vector<Metre> lengths(512);
        for (std::size_t i = 0; i < lengths.size(); ++i)
            lengths[i] = (50.0 + 10.0 * static_cast<double>(i)) * um;
        std::vector<Second> out(lengths.size());
        const double scalar = h.time(lengths.size(), [&] {
            for (std::size_t i = 0; i < lengths.size(); ++i)
                out[i] = rc.delay(lengths[i], temp, v);
            keep(out);
        });
        h.record("wire_rc_delay", lengths.size(), scalar);
    }

    {
        tech::RepeateredWire rep{technology().wire(tech::WireLayer::Global),
                                 mosfet};
        const tech::VoltagePoint v = mosfet.params().nominal;
        std::vector<Metre> lengths(64);
        for (std::size_t i = 0; i < lengths.size(); ++i)
            lengths[i] = (1.0 + 0.3 * static_cast<double>(i)) * mm;
        std::vector<tech::RepeaterDesign> out(lengths.size());
        const double scalar = h.time(lengths.size(), [&] {
            for (std::size_t i = 0; i < lengths.size(); ++i)
                out[i] = rep.optimize(lengths[i], temp, v);
            keep(out);
        });
        h.record("repeater_optimize", lengths.size(), scalar);
    }

    {
        pipeline::CriticalPathModel model{
            technology(), pipeline::Floorplan::skylakeLike()};
        const auto stages = pipeline::boomSkylakeStages();
        const auto vs = voltageGrid(256);
        std::vector<double> out(vs.size());
        const double scalar = h.time(vs.size(), [&] {
            for (std::size_t i = 0; i < vs.size(); ++i)
                out[i] = model.maxDelay(stages, temp, vs[i]);
            keep(out);
        });
        h.record("critical_path_max_delay", vs.size(), scalar);
    }

    {
        tech::Conductor cu(OhmMetre{2.8e-8}, OhmMetre{0.759e-8},
                           Kelvin{343.0});
        std::vector<Kelvin> temps(512);
        for (std::size_t i = 0; i < temps.size(); ++i)
            temps[i] =
                Kelvin{4.0 + 0.7 * static_cast<double>(i)};
        std::vector<OhmMetre> out(temps.size());
        const double scalar = h.time(temps.size(), [&] {
            for (std::size_t i = 0; i < temps.size(); ++i)
                out[i] = cu.resistivity(temps[i]);
            keep(out);
        });
        h.record("conductor_resistivity", temps.size(), scalar);
    }

    {
        core::SystemBuilder builder{technology()};
        sys::IntervalSimulator sim;
        const auto design = builder.cryoSpCryoBus77();
        const auto suite = sys::parsec21();
        const double scalar = h.time(suite.size(), [&] {
            for (const auto &w : suite)
                keep(sim.run(design, w));
        });
        const double batch = h.time(suite.size(), [&] {
            keep(sim.runSuite(design, suite));
        });
        h.record("interval_sim_parsec", suite.size(), scalar, batch);
    }

    return h.finish();
}
