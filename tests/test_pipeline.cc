/**
 * @file
 * Tests for the stage library and the critical-path model: the Fig. 2
 * and Fig. 12/13 properties.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>

#include "pipeline/core_config.hh"
#include "pipeline/critical_path.hh"
#include "pipeline/stage_library.hh"
#include "pipeline/superpipeline.hh"
#include "tech/technology.hh"
#include "util/hash.hh"

namespace
{

using namespace cryo::pipeline;
using cryo::tech::Technology;
using cryo::tech::VoltagePoint;
using namespace cryo::units::literals;
using cryo::units::Kelvin;

class PipelineTest : public ::testing::Test
{
  protected:
    Technology tech = Technology::freePdk45();
    Floorplan fp = Floorplan::skylakeLike();
    CriticalPathModel model{tech, fp};
    StageList stages = boomSkylakeStages();
};

TEST_F(PipelineTest, ThirteenRepresentativeStages)
{
    EXPECT_EQ(stages.size(), 13u);
    EXPECT_EQ(frontendStageCount(stages), 5);
}

TEST_F(PipelineTest, NormalizedToExecuteBypass)
{
    // Fig. 12's normalization: the 300 K max is execute bypass at 1.0.
    double max_delay = 0.0;
    for (const auto &s : stages)
        max_delay = std::max(max_delay, s.delay300);
    EXPECT_DOUBLE_EQ(max_delay, 1.0);
    EXPECT_EQ(model.criticalStage(stages, 300.0_K,
                                  tech.mosfet().params().nominal),
              "execute bypass");
}

TEST_F(PipelineTest, Fig12WireFractions)
{
    // Frontend ~19% wire, backend ~45% on average (300K Obs. #1).
    EXPECT_NEAR(averageWireFraction(stages, StageKind::Frontend), 0.19,
                0.02);
    EXPECT_NEAR(averageWireFraction(stages, StageKind::Backend), 0.45,
                0.04);
}

TEST_F(PipelineTest, Fig2ForwardingStagesWirePortion)
{
    // The three forwarding stages average 57.6% wire at 300 K.
    double sum = 0.0;
    int n = 0;
    for (const auto &s : stages) {
        for (const char *name : kFig2Stages) {
            if (s.name == name) {
                sum += s.wireFraction;
                ++n;
            }
        }
    }
    ASSERT_EQ(n, 3);
    EXPECT_NEAR(sum / 3.0, 0.576, 0.01);
}

TEST_F(PipelineTest, UnpipelinableStagesAreTheBypassLoops)
{
    for (const auto &s : stages) {
        const bool loop_stage = s.name == "execute bypass" ||
            s.name == "data read from bypass" ||
            s.name == "wakeup & select" || s.name == "FP issue select";
        EXPECT_EQ(!s.pipelinable, loop_stage) << s.name;
    }
}

TEST_F(PipelineTest, StageDelayDecomposition)
{
    for (const auto &s : stages) {
        const auto d = model.stageDelay(s, 300.0_K);
        EXPECT_NEAR(d.total(), s.delay300, 1e-12) << s.name;
        EXPECT_NEAR(d.wireFraction(), s.wireFraction, 1e-12) << s.name;
    }
}

TEST_F(PipelineTest, Obs77K1FrontendBecomesCritical)
{
    // 77K Observation #1: the critical stage moves to the frontend and
    // the max delay shrinks only modestly (paper: 19%, model: ~16%).
    const auto nominal = tech.mosfet().params().nominal;
    EXPECT_EQ(model.criticalStage(stages, 77.0_K, nominal), "fetch1");
    const double reduction = 1.0 - model.maxDelay(stages, 77.0_K)
        / model.maxDelay(stages, 300.0_K);
    EXPECT_GT(reduction, 0.12);
    EXPECT_LT(reduction, 0.22);
}

TEST_F(PipelineTest, Obs77K2BackendCollapses)
{
    // The forwarding stages fall to ~0.6 at 77 K while the frontend
    // stays near 0.8 - the opportunity for superpipelining.
    for (const auto &d : model.stageDelays(stages, 77.0_K)) {
        if (d.name == "execute bypass") {
            EXPECT_NEAR(d.total(), 0.61, 0.03);
        }
        if (d.name == "fetch1") {
            EXPECT_NEAR(d.total(), 0.84, 0.03);
        }
    }
}

TEST_F(PipelineTest, BackendShrinksMoreThanFrontend)
{
    const auto d300 = model.stageDelays(stages, 300.0_K);
    const auto d77 = model.stageDelays(stages, 77.0_K);
    double fe300 = 0, fe77 = 0, be300 = 0, be77 = 0;
    for (std::size_t i = 0; i < stages.size(); ++i) {
        if (stages[i].kind == StageKind::Frontend) {
            fe300 += d300[i].total();
            fe77 += d77[i].total();
        } else {
            be300 += d300[i].total();
            be77 += d77[i].total();
        }
    }
    EXPECT_LT(be77 / be300, fe77 / fe300);
}

TEST_F(PipelineTest, FrequencyAnchors)
{
    // 4 GHz at 300 K by construction; cooling alone buys ~15-22%.
    EXPECT_NEAR(model.frequency(stages, 300.0_K).value(), 4.0e9, 1e3);
    const double f77 = model.frequency(stages, 77.0_K).value();
    EXPECT_GT(f77, 4.55e9);
    EXPECT_LT(f77, 4.95e9);
}

TEST_F(PipelineTest, Fig9ValidationWindow)
{
    // At the 135 K validation point the model predicts a speed-up in
    // the band the paper reports (model 15.0%, measured 12.1%).
    const double s = model.frequency(stages, 135.0_K)
        / model.frequency(stages, 300.0_K);
    EXPECT_GT(s, 1.10);
    EXPECT_LT(s, 1.20);
}

TEST_F(PipelineTest, VoltageScalingSpeedsEveryStage)
{
    const cryo::tech::VoltagePoint sp{0.64, 0.25};
    const auto nominal = tech.mosfet().params().nominal;
    for (const auto &s : stages) {
        EXPECT_LT(model.stageDelay(s, 77.0_K, sp).total(),
                  model.stageDelay(s, 77.0_K, nominal).total())
            << s.name;
    }
}

TEST_F(PipelineTest, WireScaleAnchors)
{
    const auto nominal = tech.mosfet().params().nominal;
    // Forwarding wires speed up ~2.8x at 77 K...
    EXPECT_NEAR(1.0 / model.wireScale(WireClass::ForwardingWire, 77.0_K,
                                      nominal),
                2.81, 0.1);
    // ...while short local wires barely improve.
    EXPECT_LT(1.0 / model.wireScale(WireClass::ShortLocal, 77.0_K,
                                    nominal),
              1.6);
    EXPECT_DOUBLE_EQ(model.wireScale(WireClass::None, 77.0_K, nominal),
                     1.0);
}

TEST(CriticalPathTest, DelayDigestsArePinned)
{
    // The exact bits of the critical-path kernels, one FNV-1a digest
    // per (stage list, floorplan scale) over 6 temperatures x 4
    // voltage points: maxDelay, frequency, criticalStage, every field
    // of stageDelays and of the per-stage stageDelay, and the
    // Superpipeliner plan (target, splits, result stages).  The stage
    // lists are the baseline's and CryoSP's; CHP-core runs the
    // baseline list, at 0.75/0.25 V, which is one of the voltage
    // points.  The fourth voltage is SystemBuilder::atTemperature's
    // interpolation between the 300 K nominal and the CryoSP point.
    // Recorded before the per-call hoist of the delay factor and the
    // wire scales; any change to the arithmetic of these kernels moves
    // a digest.
    const Technology tech = Technology::freePdk45();
    const double temps[] = {77.0, 100.0, 150.0, 200.0, 250.0, 300.0};
    struct Case
    {
        bool cryoSP;
        double scale;
        std::uint64_t digest;
    };
    const Case cases[] = {
        {false, 0.8, 0xbf272dd9ee4c9a7aull},
        {false, 1.0, 0x33208f586848d275ull},
        {false, 1.3, 0x6b12c4600fbf3e28ull},
        {true, 0.8, 0x3b968319d55dfbb2ull},
        {true, 1.0, 0xcfa487a1fe83b0ffull},
        {true, 1.3, 0x38374807505a40a1ull},
    };
    for (const Case &c : cases) {
        const CoreDesigner designer{
            tech, Floorplan::skylakeLike().scaled(c.scale)};
        const CriticalPathModel &model = designer.model();
        const Superpipeliner sp{model};
        const StageList stages = c.cryoSP ? designer.cryoSP().stages
                                          : designer.baseline300().stages;
        cryo::Fnv1a digest;
        for (const double t : temps) {
            const Kelvin temp{t};
            const double f = (300.0 - t) / (300.0 - 77.0);
            const VoltagePoint voltages[] = {
                tech.mosfet().params().nominal,
                {0.64, 0.25},
                {0.75, 0.25},
                {1.25 + f * (0.64 - 1.25), 0.47 + f * (0.25 - 0.47)}};
            for (const VoltagePoint &v : voltages) {
                digest.f64(model.maxDelay(stages, temp, v))
                    .f64(model.frequency(stages, temp, v).value())
                    .str(model.criticalStage(stages, temp, v));
                for (const StageDelay &d :
                     model.stageDelays(stages, temp, v))
                    digest.str(d.name)
                        .i64(static_cast<int>(d.kind))
                        .b(d.pipelinable)
                        .f64(d.logic)
                        .f64(d.wire);
                for (const PipelineStage &s : stages) {
                    const StageDelay d = model.stageDelay(s, temp, v);
                    digest.f64(d.logic).f64(d.wire);
                }
                const SuperpipelinePlan plan = sp.plan(stages, temp, v);
                digest.f64(plan.targetLatency)
                    .str(plan.targetStage)
                    .i64(plan.addedStages);
                for (const StageSplit &split : plan.splits) {
                    digest.str(split.stage).i64(split.pieces);
                    for (const std::string &name : split.substages)
                        digest.str(name);
                }
                for (const PipelineStage &s : plan.result)
                    digest.str(s.name).f64(s.delay300).f64(s.wireFraction);
            }
        }
        char hex[32];
        std::snprintf(hex, sizeof hex, "0x%016llx",
                      static_cast<unsigned long long>(digest.digest()));
        EXPECT_EQ(digest.digest(), c.digest)
            << (c.cryoSP ? "CryoSP" : "baseline") << " at floorplan x"
            << c.scale << ": " << hex;
    }
}

/** Parameterized over stages: cooling never slows any stage. */
class StageSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(StageSweep, MonotoneInTemperature)
{
    Technology tech = Technology::freePdk45();
    CriticalPathModel model{tech, Floorplan::skylakeLike()};
    const auto stages = boomSkylakeStages();
    const auto &stage = stages[static_cast<std::size_t>(GetParam())];
    double prev = 0.0;
    for (double t = 50.0; t <= 300.0; t += 25.0) {
        const double d = model.stageDelay(stage, Kelvin{t}).total();
        EXPECT_GE(d, prev) << stage.name << " at " << t;
        prev = d;
    }
}

INSTANTIATE_TEST_SUITE_P(AllStages, StageSweep, ::testing::Range(0, 13));

} // namespace
