/**
 * @file
 * Tests for the cryo-MOSFET model: drive gain, voltage scaling,
 * leakage collapse, and the feasibility rule.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>

#include "tech/mosfet.hh"
#include "util/diag.hh"
#include "util/hash.hh"
#include "util/rng.hh"
#include "util/units.hh"

namespace
{

using namespace cryo::tech;
using cryo::FatalError;
using namespace cryo::units::literals;
using cryo::units::Kelvin;

class MosfetTest : public ::testing::Test
{
  protected:
    Mosfet m;
};

TEST_F(MosfetTest, DriveGainAnchors)
{
    // The paper's model card: +8% Ion at 77 K, near-saturated by 135 K.
    EXPECT_NEAR(m.driveGain(300.0_K), 1.0, 1e-12);
    EXPECT_NEAR(m.driveGain(77.0_K), 1.08, 1e-9);
    EXPECT_NEAR(m.driveGain(135.0_K), 1.075, 1e-9);
}

TEST_F(MosfetTest, DriveGainMonotoneOnCooling)
{
    double prev = 0.0;
    for (double t = 310.0; t >= 4.0; t -= 5.0) {
        const double g = m.driveGain(Kelvin{t});
        EXPECT_GE(g, prev);
        prev = g;
    }
}

TEST_F(MosfetTest, DriveGainClampedAboveAnchorsWithinDomain)
{
    // Above the 300 K anchor the gain clamps at 1.0 up to the model
    // validity ceiling; outside the calibrated window [4, 400] K the
    // query is a domain error, not an extrapolation.
    EXPECT_DOUBLE_EQ(m.driveGain(400.0_K), 1.0);
    EXPECT_DOUBLE_EQ(m.driveGain(4.0_K), m.driveGain(4.0_K));
    EXPECT_THROW(m.driveGain(1.0_K), cryo::FatalError);
    EXPECT_THROW(m.driveGain(450.0_K), cryo::FatalError);
}

TEST_F(MosfetTest, NominalDelayIsInverseGain)
{
    for (double t : {77.0, 135.0, 300.0})
        EXPECT_NEAR(m.delayFactor(Kelvin{t}), 1.0 / m.driveGain(Kelvin{t}),
                    1e-12);
}

TEST_F(MosfetTest, CryoSpVoltageGain)
{
    // Table 3: 6.4 -> 7.84 GHz from Vdd/Vth scaling at 77 K (+22.5%).
    const VoltagePoint sp{0.64, 0.25};
    const double gain = m.delayFactor(77.0_K) / m.delayFactor(77.0_K, sp);
    EXPECT_NEAR(gain, 1.225, 0.01);
}

TEST_F(MosfetTest, ChpVoltageGain)
{
    const VoltagePoint chp{0.75, 0.25};
    const double gain = m.delayFactor(77.0_K) / m.delayFactor(77.0_K, chp);
    EXPECT_NEAR(gain, 1.235, 0.01);
}

TEST_F(MosfetTest, DelayRejectsSubthresholdSupply)
{
    EXPECT_THROW(m.delayFactor(300.0_K, VoltagePoint{0.3, 0.4}),
                 FatalError);
}

TEST_F(MosfetTest, SubthresholdSwingScalesWithT)
{
    // S = n kT/q ln10: ~89 mV/dec at 300 K for n = 1.5.
    EXPECT_NEAR(m.subthresholdSwing(300.0_K).value(), 89.3e-3, 2e-3);
    EXPECT_NEAR(m.subthresholdSwing(77.0_K).value(),
                m.subthresholdSwing(300.0_K).value() * 77.0 / 300.0, 1e-6);
}

TEST_F(MosfetTest, LeakageCollapsesAtCryo)
{
    // Cooling at the nominal voltage point kills subthreshold leakage
    // by many orders of magnitude.
    const double f = m.leakageFactor(77.0_K, m.params().nominal);
    EXPECT_LT(f, 1e-10);
}

TEST_F(MosfetTest, LeakageExplodesWithLowVthAt300K)
{
    const VoltagePoint scaled{0.64, 0.25};
    EXPECT_GT(m.leakageFactor(300.0_K, scaled), 10.0);
}

TEST_F(MosfetTest, ScalingFeasibilityRule)
{
    // The paper's core argument: Vdd/Vth scaling is only possible at
    // cryogenic temperatures.
    const VoltagePoint sp{0.64, 0.25};
    const VoltagePoint chp{0.75, 0.25};
    EXPECT_TRUE(m.voltageScalingFeasible(77.0_K, sp));
    EXPECT_TRUE(m.voltageScalingFeasible(77.0_K, chp));
    EXPECT_FALSE(m.voltageScalingFeasible(300.0_K, sp));
    EXPECT_FALSE(m.voltageScalingFeasible(300.0_K, chp));
}

TEST_F(MosfetTest, DriverResistanceScalesInversely)
{
    const auto v = m.params().nominal;
    const double r1 = m.driverResistance(300.0_K, v, 1.0).value();
    const double r8 = m.driverResistance(300.0_K, v, 8.0).value();
    EXPECT_NEAR(r1 / r8, 8.0, 1e-9);
    EXPECT_THROW(m.driverResistance(300.0_K, v, 0.0), FatalError);
}

TEST_F(MosfetTest, CapsScaleLinearly)
{
    EXPECT_DOUBLE_EQ(m.gateCap(4.0).value(), 4.0 * m.gateCap(1.0).value());
    EXPECT_DOUBLE_EQ(m.parasiticCap(4.0).value(),
                     4.0 * m.parasiticCap(1.0).value());
}

TEST_F(MosfetTest, Fo4InRealisticRange)
{
    // 45 nm FO4 is ~15-20 ps.
    const double fo4 = m.fo4Delay(300.0_K, m.params().nominal).value();
    EXPECT_GT(fo4, 10e-12);
    EXPECT_LT(fo4, 25e-12);
    // Slightly faster when cooled.
    EXPECT_LT(m.fo4Delay(77.0_K, m.params().nominal).value(), fo4);
}

TEST_F(MosfetTest, DelayFactorDigestIsPinned)
{
    // The exact bits of the delay-factor kernel and the two calls built
    // on it, in one FNV-1a digest over 7 temperatures (the model
    // window's ends, where driveGain clamps, and ablation-voltage's
    // 77-300 K) x 257 random margin-safe voltage points: delayFactor,
    // driverResistance at two driver sizes, fo4Delay, and the
    // nominal-voltage delayFactor.  Recorded before the delay factor's
    // shared helper was folded into delayFactor(T, V); any change to
    // its arithmetic moves the digest.
    cryo::Rng rng{0xb17e5u};
    VoltagePoint vs[257];
    for (VoltagePoint &v : vs) {
        v.vth = 0.10 + 0.35 * rng.uniform();
        v.vdd = v.vth + 0.20 + (1.30 - v.vth - 0.20) * rng.uniform();
    }
    cryo::Fnv1a digest;
    for (const double t : {4.0, 77.0, 100.0, 150.0, 200.0, 300.0, 400.0}) {
        const Kelvin temp{t};
        digest.f64(m.delayFactor(temp));
        for (const VoltagePoint &v : vs)
            digest.f64(m.delayFactor(temp, v))
                .f64(m.driverResistance(temp, v).value())
                .f64(m.driverResistance(temp, v, 64.0).value())
                .f64(m.fo4Delay(temp, v).value());
    }
    char hex[32];
    std::snprintf(hex, sizeof hex, "0x%016llx",
                  static_cast<unsigned long long>(digest.digest()));
    EXPECT_EQ(digest.digest(), 0x68493e1d7bb9527dull) << hex;
}

TEST(MosfetParamsTest, RejectsBadNominal)
{
    MosfetParams p;
    p.nominal = {0.4, 0.5};
    EXPECT_THROW(Mosfet{p}, FatalError);
}

TEST(MosfetParamsTest, RejectsUnsortedAnchors)
{
    MosfetParams p;
    p.driveGainAnchors = {{300.0, 1.0}, {77.0, 1.08}};
    EXPECT_THROW(Mosfet{p}, FatalError);
}

TEST(MosfetParamsTest, RejectsDuplicateAnchorTemperatures)
{
    // Regression: merely "sorted" validation accepted two anchors at
    // the same temperature, leaving the interpolant ambiguous (which
    // gain applies at 77 K?) with a zero-width segment next to it.
    MosfetParams p;
    p.driveGainAnchors = {{4.0, 1.10}, {77.0, 1.08}, {77.0, 1.02},
                          {300.0, 1.0}};
    EXPECT_THROW(Mosfet{p}, FatalError);
}

TEST_F(MosfetTest, BoundaryClampAtModelWindowEdges)
{
    // The anchor span is [4, 300] K but the model window admits
    // [4, 400] K; outside the span the curve clamps to the boundary
    // anchors exactly - no extrapolation in either direction.
    const auto &a = m.params().driveGainAnchors;
    EXPECT_DOUBLE_EQ(m.driveGain(4.0_K), a.front().second);   // 1.100
    EXPECT_DOUBLE_EQ(m.driveGain(300.0_K), a.back().second);  // 1.000
    EXPECT_DOUBLE_EQ(m.driveGain(350.0_K), a.back().second);
    EXPECT_DOUBLE_EQ(m.driveGain(400.0_K), a.back().second);
    // delayFactor at nominal voltage is the inverse gain at the edges
    // too, so above 300 K it is exactly 1 (clamped, not > 1).
    EXPECT_NEAR(m.delayFactor(400.0_K), 1.0, 1e-12);
    EXPECT_NEAR(m.delayFactor(4.0_K), 1.0 / a.front().second, 1e-12);
}

/** Parameterized sweep: delay factor never exceeds 1 below 300 K. */
class MosfetSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(MosfetSweep, CoolingNeverSlowsNominalLogic)
{
    Mosfet m;
    EXPECT_LE(m.delayFactor(Kelvin{GetParam()}), 1.0 + 1e-12);
}

TEST_P(MosfetSweep, LeakageMonotoneWithVth)
{
    Mosfet m;
    const double t = GetParam();
    double prev = 1e300;
    for (double vth = 0.2; vth <= 0.5; vth += 0.05) {
        const double f = m.leakageFactor(Kelvin{t}, VoltagePoint{1.0, vth});
        EXPECT_LT(f, prev);
        prev = f;
    }
}

INSTANTIATE_TEST_SUITE_P(Temperatures, MosfetSweep,
                         ::testing::Values(40.0, 77.0, 100.0, 135.0,
                                           200.0, 300.0));

} // namespace
