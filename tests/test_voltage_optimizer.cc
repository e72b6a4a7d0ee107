/**
 * @file
 * Tests for the Vdd/Vth design-space optimizer (the CHP-core/CryoSP
 * derivation method).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "core/system_builder.hh"
#include "core/voltage_optimizer.hh"
#include "tech/technology.hh"
#include "util/diag.hh"
#include "util/hash.hh"

namespace
{

using namespace cryo;
using namespace cryo::core;

class VoltageOptimizerTest : public ::testing::Test
{
  protected:
    tech::Technology techno = tech::Technology::freePdk45();
    SystemBuilder builder{techno};
    pipeline::CriticalPathModel model{techno,
                                      pipeline::Floorplan::skylakeLike()};
    VoltageOptimizer opt{techno, model};
    pipeline::CoreConfig base = builder.cores().baseline300();
    pipeline::CoreConfig core = builder.cores().superpipelineCryoCore77();
};

/** Feeds every field of @p p to @p digest. */
void
digestPlan(cryo::Fnv1a &digest, const VoltagePlanPoint &p)
{
    digest.f64(p.voltage.vdd)
        .f64(p.voltage.vth)
        .f64(p.frequency)
        .f64(p.totalPower)
        .f64(p.leakageFactor)
        .b(p.feasible);
}

std::string
hexDigest(const cryo::Fnv1a &digest)
{
    char hex[32];
    std::snprintf(hex, sizeof hex, "0x%016llx",
                  static_cast<unsigned long long>(digest.digest()));
    return hex;
}

TEST_F(VoltageOptimizerTest, FindsAFeasiblePointAt77K)
{
    const auto r = opt.optimize(core, base, 77.0);
    ASSERT_TRUE(r.feasible);
    EXPECT_LE(r.totalPower, 1.0 + 1e-9);
    EXPECT_LE(r.leakageFactor, 1.0 + 1e-9);
    EXPECT_GT(r.frequency, 6.5e9);
}

TEST_F(VoltageOptimizerTest, BeatsOrMatchesThePaperPoint)
{
    // The optimizer searches the space the paper's authors picked
    // (0.64, 0.25) from by hand; it must do at least as well at the
    // same power.
    VoltageConstraints c;
    c.totalPowerBudget = 1.30; // the paper point's cost in our model
    const auto best = opt.optimize(core, base, 77.0,
                                   VoltageObjective::Frequency, c);
    const auto paper = opt.evaluate(core, base, 77.0, {0.64, 0.25}, c);
    ASSERT_TRUE(paper.feasible);
    EXPECT_GE(best.frequency, paper.frequency);
}

TEST_F(VoltageOptimizerTest, ScalingBlockedAt300K)
{
    // At 300 K the leakage rule pins the optimizer near the nominal
    // point - the paper's core feasibility argument.
    const auto r = opt.optimize(core, base, 300.0);
    ASSERT_TRUE(r.feasible);
    EXPECT_GT(r.voltage.vth, 0.44);
    EXPECT_GT(r.voltage.vdd, 1.1);
    // And no frequency gain is available from voltage alone.
    EXPECT_LT(r.frequency, 4.1e9);
}

TEST_F(VoltageOptimizerTest, BiggerBudgetNeverSlower)
{
    VoltageConstraints tight;
    tight.totalPowerBudget = 0.95;
    VoltageConstraints loose;
    loose.totalPowerBudget = 1.5;
    const auto a = opt.optimize(core, base, 77.0,
                                VoltageObjective::Frequency, tight);
    const auto b = opt.optimize(core, base, 77.0,
                                VoltageObjective::Frequency, loose);
    ASSERT_TRUE(a.feasible);
    ASSERT_TRUE(b.feasible);
    EXPECT_GE(b.frequency, a.frequency);
}

TEST_F(VoltageOptimizerTest, PerfPerWattPrefersLowerPower)
{
    const auto f = opt.optimize(core, base, 77.0,
                                VoltageObjective::Frequency);
    const auto e = opt.optimize(core, base, 77.0,
                                VoltageObjective::PerfPerWatt);
    ASSERT_TRUE(f.feasible);
    ASSERT_TRUE(e.feasible);
    EXPECT_LE(e.totalPower, f.totalPower + 1e-9);
    EXPECT_GE(e.frequency / e.totalPower,
              f.frequency / f.totalPower - 1e-6);
}

TEST_F(VoltageOptimizerTest, EvaluateFlagsMarginViolations)
{
    VoltageConstraints c;
    // Below the SRAM Vmin.
    EXPECT_FALSE(opt.evaluate(core, base, 77.0, {0.45, 0.15}, c)
                     .feasible);
    // Violates the noise-margin ratio.
    EXPECT_FALSE(opt.evaluate(core, base, 77.0, {0.60, 0.30}, c)
                     .feasible);
    // Leaks at 300 K.
    EXPECT_FALSE(opt.evaluate(core, base, 300.0, {0.64, 0.25}, c)
                     .feasible);
}

TEST_F(VoltageOptimizerTest, GridIncludesTheMaxEndpoints)
{
    // vddMax = minVdd + 75 * 0.01, but a loop accumulating the step in
    // floating point overshoots 1.30 by an ulp after 75 additions and
    // silently drops the final column. Constrain the noise-margin
    // ratio so only the vddMax column is feasible: finding a feasible
    // point at all proves the endpoint is on the grid.
    VoltageConstraints c;
    c.totalPowerBudget = 100.0;
    c.vthMin = 0.25;
    c.vthMax = 0.25;
    c.minVddVthRatio = 5.18; // only vdd >= 1.295 passes margins
    const auto r = opt.optimize(core, base, 77.0,
                                VoltageObjective::Frequency, c);
    ASSERT_TRUE(r.feasible);
    EXPECT_NEAR(r.voltage.vdd, c.vddMax, 1e-9);
    EXPECT_NEAR(r.voltage.vth, 0.25, 1e-9);
}

TEST_F(VoltageOptimizerTest, GridSurvivesNonDividingStep)
{
    // A step that doesn't divide the range: [0.60, 0.70] at 0.03 has
    // points {0.60, 0.63, 0.66, 0.69}; the traversal must neither skip
    // past 0.69 nor invent a point beyond vddMax.
    VoltageConstraints c;
    c.totalPowerBudget = 10.0;
    c.minVdd = 0.60;
    c.vddMax = 0.70;
    c.vddStep = 0.03;
    c.vthMin = 0.25;
    c.vthMax = 0.25;
    c.minVddVthRatio = 2.75; // only vdd >= 0.6875 passes margins
    const auto r = opt.optimize(core, base, 77.0,
                                VoltageObjective::Frequency, c);
    ASSERT_TRUE(r.feasible);
    EXPECT_NEAR(r.voltage.vdd, 0.69, 1e-9);
}

TEST_F(VoltageOptimizerTest, RejectsDegenerateGrid)
{
    VoltageConstraints c;
    c.vddStep = 0.0;
    EXPECT_THROW(opt.optimize(core, base, 77.0,
                              VoltageObjective::Frequency, c),
                 FatalError);
}

TEST_F(VoltageOptimizerTest, FrequencyObjectiveRespectsConstraintSet)
{
    const auto r = opt.optimize(core, base, 77.0);
    ASSERT_TRUE(r.feasible);
    VoltageConstraints c;
    EXPECT_GE(r.voltage.vdd, c.minVdd - 1e-9);
    EXPECT_GE(r.voltage.vdd, c.minVddVthRatio * r.voltage.vth - 1e-9);
}

TEST_F(VoltageOptimizerTest, OptimizeMatchesExplicitGridScan)
{
    // The winning point must be bit-identical to a plain serial argmax
    // over the public evaluate(): the same integer-indexed grid
    // (min + i*step; repeated addition would drift by ulps and probe
    // different voltages) and the same first-wins tie rule.
    VoltageConstraints c;
    c.vddStep = 0.05; // coarse grid keeps the rescan fast
    c.vthStep = 0.025;
    // ablation-voltage's temperatures; 4 K and 400 K have no feasible
    // point on this coarse grid.
    for (const double temp : {77.0, 100.0, 150.0, 200.0, 300.0}) {
        SCOPED_TRACE(temp);
        const auto best =
            opt.optimize(core, base, temp, VoltageObjective::Frequency, c);
        ASSERT_TRUE(best.feasible);

        VoltagePlanPoint expect;
        double best_score = -1.0;
        for (int i = 0; c.minVdd + i * c.vddStep <= c.vddMax + 1e-12;
             ++i) {
            const double vdd = c.minVdd + i * c.vddStep;
            for (int j = 0; c.vthMin + j * c.vthStep <= c.vthMax + 1e-12;
                 ++j) {
                const double vth = c.vthMin + j * c.vthStep;
                const auto p = opt.evaluate(core, base, temp, {vdd, vth}, c);
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

TEST_F(VoltageOptimizerTest, PlansArePinned)
{
    // The exact bits of the search, one FNV-1a digest each.  `plans`
    // covers every field of ablation-voltage's results: optimize() at
    // 77-300 K with the default budget, at 77 K with a 1.3x budget and
    // with the perf/W objective, and the paper's point at 1.3x.
    // `grid` covers evaluate() over a coarse grid at five
    // temperatures, the model window's ends included.  Recorded while
    // the search still priced its frequency plane with batched
    // kernels; any change to the arithmetic behind a plan moves a
    // digest.
    cryo::Fnv1a plans;
    for (const double t : {77.0, 100.0, 150.0, 200.0, 300.0})
        digestPlan(plans, opt.optimize(core, base, t));
    VoltageConstraints budget;
    budget.totalPowerBudget = 1.30;
    digestPlan(plans, opt.optimize(core, base, 77.0,
                                   VoltageObjective::Frequency, budget));
    digestPlan(plans, opt.evaluate(core, base, 77.0, {0.64, 0.25}, budget));
    digestPlan(plans, opt.optimize(core, base, 77.0,
                                   VoltageObjective::PerfPerWatt));

    VoltageConstraints c;
    c.vddStep = 0.05; // 0.55-1.30 V: 16 columns
    c.vthStep = 0.025; // 0.10-0.50 V: 17 rows
    cryo::Fnv1a grid;
    for (const double t : {4.0, 77.0, 150.0, 300.0, 400.0})
        for (int i = 0; i <= 15; ++i)
            for (int j = 0; j <= 16; ++j)
                digestPlan(grid, opt.evaluate(core, base, t,
                                              {c.minVdd + i * c.vddStep,
                                               c.vthMin + j * c.vthStep},
                                              c));
    EXPECT_EQ(plans.digest(), 0x8ab5a1615247e02full) << hexDigest(plans);
    EXPECT_EQ(grid.digest(), 0xc46f21b94e02ba82ull) << hexDigest(grid);
}

} // namespace
