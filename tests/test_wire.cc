/**
 * @file
 * Tests for wire geometry, unrepeated RC delay, and repeater insertion
 * - including the paper's Fig. 5 / Fig. 10 anchors.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>

#include "tech/repeater.hh"
#include "tech/technology.hh"
#include "tech/wire_rc.hh"
#include "util/diag.hh"
#include "util/hash.hh"
#include "util/units.hh"

namespace
{

using namespace cryo::tech;
using namespace cryo::units;
using cryo::FatalError;
using namespace cryo::units::literals;

class WireTest : public ::testing::Test
{
  protected:
    Technology tech = Technology::freePdk45();
};

TEST_F(WireTest, LayerResistanceOrdering)
{
    // Thinner wires have higher resistance per length.
    const double local = tech.wire(WireLayer::Local).resistancePerM(300.0_K).value();
    const double semi =
        tech.wire(WireLayer::SemiGlobal).resistancePerM(300.0_K).value();
    const double global =
        tech.wire(WireLayer::Global).resistancePerM(300.0_K).value();
    EXPECT_GT(local, semi);
    EXPECT_GT(semi, global);
}

TEST_F(WireTest, Fig5aResistanceRatios)
{
    // Long-wire asymptotes of Fig. 5(a): local 2.95x, semi-global
    // 3.69x at 77 K.
    EXPECT_NEAR(1.0 / tech.wire(WireLayer::Local).resistanceRatio(77.0_K),
                2.95, 0.05);
    EXPECT_NEAR(
        1.0 / tech.wire(WireLayer::SemiGlobal).resistanceRatio(77.0_K),
        3.69, 0.05);
}

TEST_F(WireTest, UnrepeatedDelayGrowsSuperlinearly)
{
    WireRC rc{tech.wire(WireLayer::SemiGlobal), tech.mosfet(), 64.0};
    const double d1 = rc.delay(1 * mm, 300.0_K).value();
    const double d2 = rc.delay(2 * mm, 300.0_K).value();
    EXPECT_GT(d2, 2.0 * d1); // quadratic wire term dominates
}

TEST_F(WireTest, SpeedupApproachesAsymptote)
{
    WireRC rc{tech.wire(WireLayer::SemiGlobal), tech.mosfet(), 256.0};
    const double asym = rc.asymptoticSpeedup(77.0_K);
    EXPECT_NEAR(asym, 3.69, 0.05);
    // Speed-up grows with length toward (but below) the asymptote.
    double prev = 0.0;
    for (Metre len : {0.2 * mm, 1 * mm, 5 * mm, 20 * mm}) {
        const double s = rc.speedup(len, 77.0_K);
        EXPECT_GT(s, prev);
        EXPECT_LT(s, asym);
        prev = s;
    }
    EXPECT_GT(prev, 0.9 * asym);
}

TEST_F(WireTest, ShortWiresAreDriverLimited)
{
    // A short wire's speed-up approaches the transistor gain, not the
    // wire's (Fig. 5's length dependence).
    WireRC rc{tech.wire(WireLayer::Local), tech.mosfet(), 16.0};
    const double s = rc.speedup(5 * um, 77.0_K);
    EXPECT_LT(s, 1.3);
    EXPECT_GT(s, 1.0);
}

TEST_F(WireTest, ForwardingWireAnchor)
{
    // The 1686 um semi-global forwarding wire speeds up ~2.8x at 77 K
    // (the paper's "wires get 2.81x" in the pipeline analysis).
    const double s =
        tech.wireSpeedup(WireLayer::SemiGlobal, 1686 * um, 77.0_K, 140.0);
    EXPECT_NEAR(s, 2.81, 0.1);
}

TEST_F(WireTest, RepeaterCountGrowsWithLength)
{
    RepeateredWire rep{tech.wire(WireLayer::Global), tech.mosfet()};
    int prev = 0;
    for (Metre len : {0.5 * mm, 2 * mm, 6 * mm, 12 * mm}) {
        const auto d = rep.optimize(len, 300.0_K);
        EXPECT_GE(d.segments, prev);
        prev = d.segments;
    }
    EXPECT_GT(prev, 1);
}

TEST_F(WireTest, RepeatedDelayNearlyLinearInLength)
{
    RepeateredWire rep{tech.wire(WireLayer::Global), tech.mosfet()};
    const double d6 = rep.delay(6 * mm, 300.0_K).value();
    const double d12 = rep.delay(12 * mm, 300.0_K).value();
    EXPECT_NEAR(d12 / d6, 2.0, 0.15);
}

TEST_F(WireTest, RepeatersBeatRawWireWhenLong)
{
    WireRC raw{tech.wire(WireLayer::Global), tech.mosfet(), 64.0};
    RepeateredWire rep{tech.wire(WireLayer::Global), tech.mosfet()};
    EXPECT_LT(rep.delay(6 * mm, 300.0_K).value(),
              raw.delay(6 * mm, 300.0_K).value());
}

TEST_F(WireTest, FrozenLayoutIsNeverFaster)
{
    // Cooling silicon designed for 300 K cannot beat a 77 K redesign.
    RepeateredWire rep{tech.wire(WireLayer::Global), tech.mosfet()};
    const double frozen =
        rep.delayWithFrozenLayout(6 * mm, 300.0_K, 77.0_K).value();
    const double redesigned = rep.delay(6 * mm, 77.0_K).value();
    EXPECT_GE(frozen, redesigned - 1e-15);
}

TEST_F(WireTest, Fig10WireLinkAnchor)
{
    // The 6 mm CryoBus link speeds up 3.05x at 77 K; the paper's model
    // itself carries 1.6% error vs Hspice, so a 3% tolerance.
    const double s = tech.repeateredWireSpeedup(WireLayer::Global,
                                                6 * mm, 77.0_K);
    EXPECT_NEAR(s, 3.05, 0.09);
}

TEST_F(WireTest, Fig5bRepeatedSpeedupsBelowRawOnes)
{
    // Fig. 5(b): repeatered wires gain less than raw RC wires because
    // the repeater (transistor) share barely improves.
    const double raw =
        tech.wireSpeedup(WireLayer::SemiGlobal, 10 * mm, 77.0_K, 256.0);
    const double rep =
        tech.repeateredWireSpeedup(WireLayer::SemiGlobal, 10 * mm,
                                   77.0_K);
    EXPECT_LT(rep, raw);
    EXPECT_GT(rep, 1.5);
}

TEST_F(WireTest, RepeaterSpeedupNearSqrtLaw)
{
    // Latency-optimal repeatered speed-up ~ sqrt(R gain x device gain).
    const double r_gain =
        1.0 / tech.wire(WireLayer::Global).resistanceRatio(77.0_K);
    const double dev_gain = tech.transistorSpeedup(77.0_K);
    const double predicted = std::sqrt(r_gain * dev_gain);
    const double actual =
        tech.repeateredWireSpeedup(WireLayer::Global, 20 * mm, 77.0_K);
    EXPECT_NEAR(actual, predicted, 0.12 * predicted);
}

TEST_F(WireTest, DelayDigestsArePinned)
{
    // The exact bits of the wire kernels, one FNV-1a digest per layer
    // over 7 temperatures x 4 voltage points x a 50-step length ladder
    // (1 um to 56 mm): every field of RepeateredWire::optimize, at the
    // default segment cap and at a cap of 3, plus WireRC::delay for
    // two driver/load sizes and delayWithFrozenLayout from 300 K and
    // 77 K designs.  Recorded before the repeater search was hoisted;
    // any change to the arithmetic of these kernels moves a digest.
    const VoltagePoint voltages[] = {
        {1.25, 0.47}, {1.0, 0.468}, {0.9, 0.25}, {0.75, 0.2}};
    const double temps[] = {4.0, 77.0, 100.0, 150.0, 200.0, 300.0, 400.0};
    struct Case
    {
        WireLayer layer;
        std::uint64_t digest;
    };
    const Case cases[] = {
        {WireLayer::Local, 0x9c02a2c9d29afce2ull},
        {WireLayer::SemiGlobal, 0x593af7ad30f25916ull},
        {WireLayer::Global, 0x86e26a6fae1ea23eull},
    };
    for (const Case &c : cases) {
        const RepeateredWire rep{tech.wire(c.layer), tech.mosfet()};
        const WireRC rc{tech.wire(c.layer), tech.mosfet()};
        const WireRC small{tech.wire(c.layer), tech.mosfet(), 8.0, 2.0};
        cryo::Fnv1a digest;
        for (const double t : temps) {
            const Kelvin temp{t};
            double len = 1e-6;
            for (int i = 0; i < 50; ++i, len *= 1.25) {
                const Metre length{len};
                digest.f64(rep.delayWithFrozenLayout(length, 300.0_K, temp)
                               .value())
                    .f64(rep.delayWithFrozenLayout(length, 77.0_K, temp)
                             .value());
                for (const VoltagePoint &v : voltages) {
                    for (const int cap : {256, 3}) {
                        const RepeaterDesign d =
                            rep.optimize(length, temp, v, cap);
                        digest.i64(d.segments)
                            .f64(d.size)
                            .f64(d.delay.value())
                            .f64(d.segmentLen.value());
                    }
                    digest.f64(rc.delay(length, temp, v).value())
                        .f64(small.delay(length, temp, v).value());
                }
            }
        }
        char hex[32];
        std::snprintf(hex, sizeof hex, "0x%016llx",
                      static_cast<unsigned long long>(digest.digest()));
        EXPECT_EQ(digest.digest(), c.digest)
            << wireLayerName(c.layer) << ": " << hex;
    }
}

TEST_F(WireTest, BadArgumentsRejected)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    RepeateredWire rep{tech.wire(WireLayer::Global), tech.mosfet()};
    WireRC rc{tech.wire(WireLayer::Local), tech.mosfet(), 8.0};
    for (const double bad : {-1.0, nan, inf}) {
        SCOPED_TRACE(bad);
        EXPECT_THROW(rep.optimize(Metre{bad}, 300.0_K), FatalError);
        EXPECT_THROW(tech.repeateredWireSpeedup(WireLayer::Global,
                                                Metre{bad}, 77.0_K),
                     FatalError);
        EXPECT_THROW(rc.delay(Metre{bad}, 300.0_K), FatalError);
    }
    for (const double bad : {0.0, nan, inf}) {
        SCOPED_TRACE(bad);
        EXPECT_THROW(
            (WireRC{tech.wire(WireLayer::Local), tech.mosfet(), bad}),
            FatalError);
        EXPECT_THROW(
            (WireRC{tech.wire(WireLayer::Local), tech.mosfet(), 8.0, bad}),
            FatalError);
    }
}

TEST_F(WireTest, TransistorSpeedupAnchor)
{
    EXPECT_NEAR(tech.transistorSpeedup(77.0_K), 1.08, 1e-6);
    EXPECT_NEAR(tech.transistorSpeedup(300.0_K), 1.0, 1e-9);
}

/** Parameterized: every layer's delay falls monotonically on cooling. */
class LayerSweep : public ::testing::TestWithParam<WireLayer>
{
};

TEST_P(LayerSweep, DelayMonotoneInTemperature)
{
    Technology tech = Technology::freePdk45();
    WireRC rc{tech.wire(GetParam()), tech.mosfet(), 32.0};
    double prev = 0.0;
    for (double t = 40.0; t <= 300.0; t += 20.0) {
        const double d = rc.delay(1 * mm, Kelvin{t}).value();
        EXPECT_GT(d, prev);
        prev = d;
    }
}

TEST_P(LayerSweep, RepeaterOptimizationDeterministic)
{
    Technology tech = Technology::freePdk45();
    RepeateredWire rep{tech.wire(GetParam()), tech.mosfet()};
    const auto a = rep.optimize(3 * mm, 77.0_K);
    const auto b = rep.optimize(3 * mm, 77.0_K);
    EXPECT_EQ(a.segments, b.segments);
    EXPECT_DOUBLE_EQ(a.delay.value(), b.delay.value());
    EXPECT_DOUBLE_EQ(a.size, b.size);
    EXPECT_GE(a.size, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Layers, LayerSweep,
                         ::testing::Values(WireLayer::Local,
                                           WireLayer::SemiGlobal,
                                           WireLayer::Global));

} // namespace
