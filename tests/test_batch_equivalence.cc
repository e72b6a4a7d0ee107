/**
 * @file
 * Bitwise scalar/batch equivalence of every batched kernel.
 *
 * The batch entry points are pure invariant hoists: each shares its
 * per-element formula with the scalar call, so the results must match
 * EXACTLY (EXPECT_EQ on the raw doubles, no tolerance).  Any
 * divergence means a batch kernel reordered or refactored
 * floating-point math and silently forked the model.
 *
 * Inputs are randomized with the repo's deterministic Rng so failures
 * reproduce byte-for-byte.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/system_builder.hh"
#include "core/voltage_optimizer.hh"
#include "pipeline/critical_path.hh"
#include "pipeline/stage_library.hh"
#include "sys/interval_sim.hh"
#include "sys/workload.hh"
#include "tech/technology.hh"
#include "tech/wire_rc.hh"
#include "util/rng.hh"
#include "util/units.hh"

namespace
{

using namespace cryo;
using units::Kelvin;
using units::Metre;
using units::Second;

const tech::Technology &
technology()
{
    static tech::Technology t = tech::Technology::freePdk45();
    return t;
}

/**
 * The temperatures the batched kernels run at: ablation-voltage's
 * 77-300 K, plus the model window's ends, where driveGain clamps.
 */
const Kelvin kTemps[] = {Kelvin{4.0},   Kelvin{77.0},  Kelvin{100.0},
                         Kelvin{150.0}, Kelvin{200.0}, Kelvin{300.0},
                         Kelvin{400.0}};

/** Margin-safe random voltage point (vdd comfortably above vth). */
tech::VoltagePoint
randomVoltage(Rng &rng)
{
    tech::VoltagePoint v;
    v.vth = 0.10 + 0.35 * rng.uniform();
    v.vdd = v.vth + 0.20 + (1.30 - v.vth - 0.20) * rng.uniform();
    return v;
}

TEST(BatchEquivalence, DelayFactorBroadcastTemperature)
{
    Rng rng{0xb17e5u};
    const auto &mosfet = technology().mosfet();
    std::vector<tech::VoltagePoint> vs(257);
    for (auto &v : vs)
        v = randomVoltage(rng);
    std::vector<double> out(vs.size());
    for (const Kelvin temp : kTemps) {
        mosfet.delayFactorBatch(temp, vs, out);
        for (std::size_t i = 0; i < vs.size(); ++i) {
            EXPECT_EQ(out[i], mosfet.delayFactor(temp, vs[i]))
                << temp.value() << " K, " << i;
        }
    }
}

TEST(BatchEquivalence, WireDelayOverVoltages)
{
    Rng rng{0x77abcu};
    const auto &mosfet = technology().mosfet();
    tech::WireRC rc{technology().wire(tech::WireLayer::Local), mosfet};
    const Metre length{300e-6};
    std::vector<tech::VoltagePoint> vs(129);
    for (auto &v : vs)
        v = randomVoltage(rng);
    std::vector<double> dfs(vs.size());
    std::vector<Second> out(vs.size());
    for (const Kelvin temp : kTemps) {
        mosfet.delayFactorBatch(temp, vs, dfs);
        rc.delayBatchV(length, temp, vs, dfs, out);
        for (std::size_t i = 0; i < vs.size(); ++i) {
            EXPECT_EQ(out[i].value(),
                      rc.delay(length, temp, vs[i]).value())
                << temp.value() << " K, " << i;
        }
    }
}

TEST(BatchEquivalence, CriticalPathMaxDelayAndFrequency)
{
    Rng rng{0x5eedu};
    pipeline::CriticalPathModel model{technology(),
                                     pipeline::Floorplan::skylakeLike()};
    const auto stages = pipeline::boomSkylakeStages();
    std::vector<tech::VoltagePoint> vs(83);
    for (auto &v : vs)
        v = randomVoltage(rng);
    std::vector<double> md(vs.size());
    std::vector<units::Hertz> fr(vs.size());
    for (const Kelvin temp : kTemps) {
        model.maxDelayBatch(stages, temp, vs, md);
        model.frequencyBatch(stages, temp, vs, fr);
        for (std::size_t i = 0; i < vs.size(); ++i) {
            EXPECT_EQ(md[i], model.maxDelay(stages, temp, vs[i]))
                << temp.value() << " K, " << i;
            EXPECT_EQ(fr[i].value(),
                      model.frequency(stages, temp, vs[i]).value())
                << temp.value() << " K, " << i;
        }
    }
}

TEST(BatchEquivalence, IntervalSuiteMatchesPerWorkloadRuns)
{
    core::SystemBuilder builder{technology()};
    sys::IntervalSimulator sim;
    const auto design = builder.cryoSpCryoBus77();
    const auto suite = sys::parsec21();
    const auto results = sim.runSuite(design, suite);
    ASSERT_EQ(results.size(), suite.size());
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const auto scalar = sim.run(design, suite[i]);
        EXPECT_EQ(results[i].timePerInstr, scalar.timePerInstr) << i;
        EXPECT_EQ(results[i].utilization, scalar.utilization) << i;
        EXPECT_EQ(results[i].saturated, scalar.saturated) << i;
        EXPECT_EQ(results[i].converged, scalar.converged) << i;
        EXPECT_EQ(results[i].stack.total(), scalar.stack.total()) << i;
    }
}

TEST(BatchEquivalence, VoltageOptimizerMatchesExplicitGridScan)
{
    // The optimizer precomputes the frequency plane with the batched
    // kernel; the winning point must be bit-identical to a plain
    // serial argmax over the public scalar evaluate().
    core::SystemBuilder builder{technology()};
    pipeline::CriticalPathModel model{technology(),
                                     pipeline::Floorplan::skylakeLike()};
    core::VoltageOptimizer opt{technology(), model};
    const auto core77 = builder.cryoSpCryoBus77().core;
    const auto base = builder.baseline300Mesh().core;

    core::VoltageConstraints c;
    c.vddStep = 0.05; // coarse grid keeps the scalar rescan fast
    c.vthStep = 0.025;
    // ablation-voltage's temperatures; 4 K and 400 K have no feasible
    // point on this coarse grid.
    for (const double temp : {77.0, 100.0, 150.0, 200.0, 300.0}) {
        SCOPED_TRACE(temp);
        const auto best = opt.optimize(
            core77, base, temp, core::VoltageObjective::Frequency, c);
        ASSERT_TRUE(best.feasible);

        core::VoltagePlanPoint expect;
        double best_score = -1.0;
        // Integer-indexed grid points (min + i*step), matching the
        // optimizer's own grid exactly - repeated addition would drift
        // by ulps and probe different voltages.
        for (int i = 0; c.minVdd + i * c.vddStep <= c.vddMax + 1e-12;
             ++i) {
            const double vdd = c.minVdd + i * c.vddStep;
            for (int j = 0; c.vthMin + j * c.vthStep <= c.vthMax + 1e-12;
                 ++j) {
                const double vth = c.vthMin + j * c.vthStep;
                const auto p =
                    opt.evaluate(core77, base, temp, {vdd, vth}, c);
                if (p.feasible && p.frequency > best_score) {
                    best_score = p.frequency;
                    expect = p;
                }
            }
        }
        EXPECT_EQ(best.voltage.vdd, expect.voltage.vdd);
        EXPECT_EQ(best.voltage.vth, expect.voltage.vth);
        EXPECT_EQ(best.frequency, expect.frequency);
        EXPECT_EQ(best.totalPower, expect.totalPower);
        EXPECT_EQ(best.leakageFactor, expect.leakageFactor);
    }
}

} // namespace
