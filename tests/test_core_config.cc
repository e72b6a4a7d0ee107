/**
 * @file
 * Tests for the Table-3 core-design ladder.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <type_traits>
#include <vector>

#include "design_equality.hh"
#include "pipeline/core_config.hh"
#include "tech/technology.hh"
#include "util/diag.hh"
#include "util/units.hh"

namespace
{

using namespace cryo::pipeline;
using namespace cryo::units;
using cryo::tech::Technology;

class CoreConfigTest : public ::testing::Test
{
  protected:
    Technology tech = Technology::freePdk45();
    CoreDesigner designer{tech};
};

TEST_F(CoreConfigTest, BaselineMatchesSkylakeSpec)
{
    const auto c = designer.baseline300();
    EXPECT_NEAR(c.frequency, (4.0 * GHz).value(), 1e3);
    EXPECT_EQ(c.pipelineDepth, 14);
    EXPECT_EQ(c.structures.width, 8);
    EXPECT_EQ(c.structures.loadQueue, 72);
    EXPECT_EQ(c.structures.storeQueue, 56);
    EXPECT_EQ(c.structures.issueQueue, 97);
    EXPECT_EQ(c.structures.reorderBuffer, 224);
    EXPECT_EQ(c.structures.intRegisters, 180);
    EXPECT_EQ(c.structures.fpRegisters, 168);
    EXPECT_DOUBLE_EQ(c.ipcFactor, 1.0);
}

TEST_F(CoreConfigTest, SuperpipelineFrequencyNearPaper)
{
    const auto c = designer.superpipeline77();
    // Paper: 6.4 GHz; model within 3%.
    EXPECT_NEAR(c.frequency, (6.4 * GHz).value(),
                (0.03 * 6.4 * GHz).value());
    EXPECT_EQ(c.pipelineDepth, 17);
    EXPECT_DOUBLE_EQ(c.ipcFactor, 0.96);
}

TEST_F(CoreConfigTest, CryoCoreKeepsFrequencyShrinksMachine)
{
    const auto sp = designer.superpipeline77();
    const auto cc = designer.superpipelineCryoCore77();
    EXPECT_DOUBLE_EQ(cc.frequency, sp.frequency);
    EXPECT_EQ(cc.structures.width, 4);
    EXPECT_EQ(cc.structures.reorderBuffer, 96);
    EXPECT_EQ(cc.structures.loadQueue, 24);
    EXPECT_DOUBLE_EQ(cc.ipcFactor, 0.90);
}

TEST_F(CoreConfigTest, CryoSpFrequencyNearPaper)
{
    const auto c = designer.cryoSP();
    // Paper: 7.84 GHz; model within 4%.
    EXPECT_NEAR(c.frequency, (7.84 * GHz).value(),
                (0.04 * 7.84 * GHz).value());
    EXPECT_DOUBLE_EQ(c.voltage.vdd, 0.64);
    EXPECT_DOUBLE_EQ(c.voltage.vth, 0.25);
    EXPECT_EQ(c.pipelineDepth, 17);
}

TEST_F(CoreConfigTest, ChpCoreFrequencyNearPaper)
{
    const auto c = designer.chpCore();
    // Paper: 6.1 GHz; model within 5%.
    EXPECT_NEAR(c.frequency, (6.1 * GHz).value(),
                (0.05 * 6.1 * GHz).value());
    EXPECT_EQ(c.pipelineDepth, 14); // no superpipelining in prior work
    EXPECT_DOUBLE_EQ(c.ipcFactor, 0.93);
}

TEST_F(CoreConfigTest, CryoSpBeatsChpBy28Percent)
{
    // The headline core claim: CryoSP clocks ~28% above CHP-core.
    const double ratio =
        designer.cryoSP().frequency / designer.chpCore().frequency;
    EXPECT_NEAR(ratio, 1.285, 0.06);
}

TEST_F(CoreConfigTest, CoolingAloneGainsLittle)
{
    // The motivating observation [16]: cooling without redesign buys
    // only ~15-20%, far below the 3x wire potential.
    const auto c = designer.baseline77();
    const double gain = c.frequency / designer.baseline300().frequency;
    EXPECT_GT(gain, 1.12);
    EXPECT_LT(gain, 1.25);
}

TEST_F(CoreConfigTest, LadderOrdering)
{
    const auto ladder = designer.table3Ladder();
    ASSERT_EQ(ladder.size(), 5u);
    EXPECT_EQ(ladder[0].name, "300K Baseline");
    EXPECT_EQ(ladder[3].name, "77K CryoSP");
    // CryoSP is the fastest design in the ladder.
    for (const auto &c : ladder)
        EXPECT_LE(c.frequency, ladder[3].frequency + 1.0);
}

TEST_F(CoreConfigTest, PaperValuesCarried)
{
    for (const auto &c : designer.table3Ladder()) {
        EXPECT_GT(c.paperFrequency, 0.0) << c.name;
        EXPECT_GT(c.paperTotalPower, 0.0) << c.name;
        // Model frequency tracks the published one within 5%.
        EXPECT_NEAR(c.frequency / c.paperFrequency, 1.0, 0.05)
            << c.name;
    }
}

TEST_F(CoreConfigTest, VoltagePointsAreLeakageFeasibleAt77K)
{
    for (const auto &c : designer.table3Ladder()) {
        if (c.tempK <= 77.0) {
            EXPECT_TRUE(tech.mosfet().voltageScalingFeasible(
                            cryo::units::Kelvin{c.tempK}, c.voltage))
                << c.name;
        }
    }
}

TEST(CoreDesignerMemo, RacingFirstCallsMatchASerialDesigner)
{
    // Four threads race the first cryoSP() and baseline300() calls on
    // one fresh designer, half of them asking for each design first.
    // Every thread must get exactly what a serial designer builds;
    // under the TSAN preset this is the memo's race check.
    const Technology tech = Technology::freePdk45();
    const CoreDesigner serial{tech};
    const CoreConfig wantSp = serial.cryoSP();
    const CoreConfig wantBase = serial.baseline300();

    constexpr int kThreads = 4;
    const CoreDesigner shared{tech};
    std::vector<CoreConfig> sp(kThreads);
    std::vector<CoreConfig> base(kThreads);
    std::atomic<int> arrived{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            arrived.fetch_add(1);
            while (arrived.load() < kThreads)
                std::this_thread::yield();
            const auto i = static_cast<std::size_t>(t);
            if (t % 2 == 0) {
                sp[i] = shared.cryoSP();
                base[i] = shared.baseline300();
            } else {
                base[i] = shared.baseline300();
                sp[i] = shared.cryoSP();
            }
        });
    }
    for (std::thread &th : threads)
        th.join();
    for (std::size_t i = 0; i < sp.size(); ++i) {
        const std::string who = "thread " + std::to_string(i);
        cryo::test::expectSameCore(sp[i], wantSp, who + ", cryoSP");
        cryo::test::expectSameCore(base[i], wantBase,
                                   who + ", baseline300");
    }

    // Consumers share a designer's designs by reference; a designer
    // cannot be copied, so none restarts with empty memos.
    static_assert(!std::is_copy_constructible_v<CoreDesigner>);
}

TEST(CoreDesignerMemo, AFailedBuildThrowsOnEveryCall)
{
    // A device whose DIBL makes the CryoSP point leak more than the
    // 300 K baseline: the feasibility check throws, nothing is kept,
    // and the next call throws again instead of returning a design.
    cryo::tech::MosfetParams leaky;
    leaky.dibl = 0.45;
    const Technology tech = Technology::freePdk45(leaky);
    ASSERT_FALSE(tech.mosfet().voltageScalingFeasible(
        Kelvin{77.0}, cryo::tech::VoltagePoint{0.64, 0.25}));
    const CoreDesigner designer{tech};
    EXPECT_THROW(designer.cryoSP(), cryo::FatalError);
    EXPECT_THROW(designer.cryoSP(), cryo::FatalError);
    EXPECT_NO_THROW(designer.baseline300());
}

} // namespace
