/**
 * @file
 * Cross-module property and fuzz tests: invariants that must hold for
 * every design point, temperature, and random stimulus - the guard
 * rails behind the calibrated anchors.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <tuple>

#include "core/cryowire.hh"
#include "pipeline/stage_library.hh"
#include "util/rng.hh"

namespace
{

using namespace cryo;
using namespace cryo::netsim;
using cryo::units::Kelvin;
using cryo::units::Metre;

tech::Technology &
technology()
{
    static tech::Technology t = tech::Technology::freePdk45();
    return t;
}

/* ------------------------------------------------------------------ */
/* Analytic models: monotonicity across the temperature axis.          */

class TemperatureGrid : public ::testing::TestWithParam<double>
{
};

TEST_P(TemperatureGrid, EveryLayerFasterWhenColder)
{
    const double t = GetParam();
    for (auto layer : {tech::WireLayer::Local,
                       tech::WireLayer::SemiGlobal,
                       tech::WireLayer::Global}) {
        EXPECT_LE(technology().wire(layer).resistanceRatio(Kelvin{t}),
                  technology().wire(layer).resistanceRatio(Kelvin{t + 20.0}));
    }
}

TEST_P(TemperatureGrid, PipelineFrequencyMonotone)
{
    const double t = GetParam();
    pipeline::CriticalPathModel model{technology(),
                                      pipeline::Floorplan::skylakeLike()};
    const auto stages = pipeline::boomSkylakeStages();
    EXPECT_GE(model.frequency(stages, Kelvin{t}).value(),
              model.frequency(stages, Kelvin{t + 20.0}).value());
}

TEST_P(TemperatureGrid, SuperpipelinePlanNeverHurts)
{
    const double t = GetParam();
    pipeline::CriticalPathModel model{technology(),
                                      pipeline::Floorplan::skylakeLike()};
    pipeline::Superpipeliner sp{model};
    const auto baseline = pipeline::boomSkylakeStages();
    const auto plan = sp.plan(baseline, Kelvin{t});
    // The methodology only cuts when it helps, so the planned pipeline
    // is never slower than the baseline at its design point.
    EXPECT_GE(model.frequency(plan.result, Kelvin{t}).value() + 1.0,
              model.frequency(baseline, Kelvin{t}).value());
}

TEST_P(TemperatureGrid, BusOccupancyNeverImprovesWhenWarmer)
{
    const double t = GetParam();
    noc::NocDesigner designer{technology()};
    EXPECT_LE(designer.cryoBusAt(t).busOccupancyCycles(1),
              designer.cryoBusAt(std::min(t + 40.0, 300.0))
                  .busOccupancyCycles(1));
}

TEST_P(TemperatureGrid, CoolingOverheadConsistent)
{
    const double t = GetParam();
    power::CoolingModel cooling;
    EXPECT_GE(cooling.overhead(Kelvin{t}), cooling.overhead(Kelvin{t + 20.0}));
    EXPECT_NEAR(cooling.totalPowerFactor(Kelvin{t}),
                1.0 + cooling.overhead(Kelvin{t}), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Grid, TemperatureGrid,
                         ::testing::Values(77.0, 90.0, 110.0, 135.0,
                                           160.0, 200.0, 240.0, 280.0));

/* ------------------------------------------------------------------ */
/* Interval simulator: physical sanity for every design x workload.    */

class DesignWorkloadGrid
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(DesignWorkloadGrid, ResultIsPhysical)
{
    core::SystemBuilder builder{technology()};
    sys::IntervalSimulator sim;
    const auto designs = builder.table4Systems();
    const auto suite = sys::parsec21();
    const auto &design =
        designs[static_cast<std::size_t>(std::get<0>(GetParam()))];
    const auto &w =
        suite[static_cast<std::size_t>(std::get<1>(GetParam()))];

    const auto r = sim.run(design, w);
    EXPECT_GT(r.timePerInstr, 0.0);
    EXPECT_GE(r.utilization, 0.0);
    EXPECT_LE(r.utilization, 1.0 + 1e-9);
    EXPECT_NEAR(r.stack.total(), r.timePerInstr,
                1e-9 * r.timePerInstr);
    // Core time can never exceed total time.
    EXPECT_LE(r.stack.core, r.timePerInstr);
    // The run is deterministic.
    EXPECT_DOUBLE_EQ(sim.run(design, w).timePerInstr, r.timePerInstr);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DesignWorkloadGrid,
    ::testing::Combine(::testing::Range(0, 5),
                       ::testing::Values(0, 4, 9, 12)));

/* ------------------------------------------------------------------ */
/* Netsim fuzz: conservation and ordering under random stimulus.       */

class NetsimFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(NetsimFuzz, BusConservesPackets)
{
    noc::NocDesigner designer{technology()};
    Rng rng(GetParam());
    const int ways = 1 + static_cast<int>(rng.below(3));
    BusNetwork net(64, BusTiming::fromConfig(designer.cryoBus(), ways));

    std::map<std::uint64_t, Packet> sent;
    std::uint64_t id = 1;
    for (int c = 0; c < 1200; ++c) {
        if (rng.chance(0.4)) {
            Packet p;
            p.id = id++;
            p.src = static_cast<int>(rng.below(64));
            p.dst = static_cast<int>(rng.below(64));
            p.flits = 1 + static_cast<int>(rng.below(5));
            sent[p.id] = p;
            net.inject(p);
        }
        net.step();
        for (const auto &d : net.drainDelivered()) {
            auto it = sent.find(d.id);
            ASSERT_NE(it, sent.end());
            EXPECT_EQ(d.src, it->second.src);
            EXPECT_EQ(d.flits, it->second.flits);
            sent.erase(it);
        }
    }
    for (int c = 0; c < 30000 && net.inFlight() > 0; ++c) {
        net.step();
        for (const auto &d : net.drainDelivered())
            sent.erase(d.id);
    }
    EXPECT_TRUE(sent.empty());
    EXPECT_EQ(net.inFlight(), 0u);
}

TEST_P(NetsimFuzz, RouterNetConservesPackets)
{
    noc::NocDesigner designer{technology()};
    Rng rng(GetParam() * 7919 + 13);
    const int kind = static_cast<int>(rng.below(3));
    const auto cfg = kind == 0 ? designer.mesh(77.0, 1)
        : kind == 1 ? designer.cmesh(77.0, 3)
                    : designer.flattenedButterfly(77.0, 1);
    RouterNetwork net(RouterNetConfig::fromConfig(cfg));

    std::map<std::uint64_t, Packet> sent;
    std::uint64_t id = 1;
    for (int c = 0; c < 800; ++c) {
        for (int n = 0; n < 64; ++n) {
            if (rng.chance(0.08)) {
                int dst = static_cast<int>(rng.below(63));
                if (dst >= n)
                    ++dst;
                Packet p;
                p.id = id++;
                p.src = n;
                p.dst = dst;
                p.flits = 1 + static_cast<int>(rng.below(5));
                sent[p.id] = p;
                net.inject(p);
            }
        }
        net.step();
        for (const auto &d : net.drainDelivered()) {
            auto it = sent.find(d.id);
            ASSERT_NE(it, sent.end());
            EXPECT_EQ(d.dst, it->second.dst);
            sent.erase(it);
        }
    }
    for (int c = 0; c < 60000 && net.inFlight() > 0; ++c) {
        net.step();
        for (const auto &d : net.drainDelivered())
            sent.erase(d.id);
    }
    EXPECT_TRUE(sent.empty()) << sent.size() << " packets lost";
    EXPECT_EQ(net.inFlight(), 0u);
}

TEST_P(NetsimFuzz, SameFlowOrderPreservedUnderLoad)
{
    noc::NocDesigner designer{technology()};
    Rng rng(GetParam() * 31 + 5);
    RouterNetwork net(
        RouterNetConfig::fromConfig(designer.mesh(77.0, 1)));

    // Background noise plus a monitored flow 5 -> 58. Monitored ids
    // stay below kNoiseBase so noise packets that happen to share the
    // (src, dst) pair cannot be mistaken for the flow.
    constexpr std::uint64_t kNoiseBase = 1u << 20;
    std::uint64_t flow_id = 1;
    std::uint64_t noise_id = kNoiseBase;
    std::vector<std::uint64_t> flow_ids;
    std::size_t expect_idx = 0;
    for (int c = 0; c < 2500; ++c) {
        if (c % 9 == 0) {
            Packet p;
            p.id = flow_id++;
            p.src = 5;
            p.dst = 58;
            p.flits = 3;
            flow_ids.push_back(p.id);
            net.inject(p);
        }
        if (rng.chance(0.8)) {
            Packet noise;
            noise.id = noise_id++;
            noise.src = static_cast<int>(rng.below(64));
            noise.dst = static_cast<int>(rng.below(64));
            if (noise.dst == noise.src)
                noise.dst = (noise.dst + 1) % 64;
            noise.flits = 2;
            net.inject(noise);
        }
        net.step();
        for (const auto &d : net.drainDelivered()) {
            if (d.id < kNoiseBase) {
                ASSERT_LT(expect_idx, flow_ids.size());
                EXPECT_EQ(d.id, flow_ids[expect_idx++]);
            }
        }
    }
}

TEST_P(NetsimFuzz, MatrixArbiterAlwaysPicksARequester)
{
    Rng rng(GetParam() + 99);
    MatrixArbiter arb(16);
    for (int round = 0; round < 500; ++round) {
        std::vector<bool> req(16);
        bool any = false;
        for (int i = 0; i < 16; ++i) {
            req[static_cast<std::size_t>(i)] = rng.chance(0.3);
            any = any || req[static_cast<std::size_t>(i)];
        }
        const int winner = arb.arbitrate(req);
        if (!any) {
            EXPECT_EQ(winner, -1);
        } else {
            ASSERT_GE(winner, 0);
            EXPECT_TRUE(req[static_cast<std::size_t>(winner)]);
        }
    }
}

TEST_P(NetsimFuzz, MatrixArbiterStarvationFree)
{
    // A requester that asks continuously is served within n grants.
    Rng rng(GetParam() + 7);
    MatrixArbiter arb(8);
    int since_served = 0;
    for (int round = 0; round < 400; ++round) {
        std::vector<bool> req(8);
        req[3] = true; // the monitored requester
        for (int i = 0; i < 8; ++i) {
            if (i != 3)
                req[static_cast<std::size_t>(i)] = rng.chance(0.7);
        }
        const int winner = arb.arbitrate(req);
        if (winner == 3) {
            since_served = 0;
        } else {
            ++since_served;
            ASSERT_LT(since_served, 8) << "requester 3 starved";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetsimFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

/* ------------------------------------------------------------------ */
/* Numerical guards on the calibrated facade.                          */

TEST(Properties, RepeaterDelayContinuousInLength)
{
    // Integer repeater counts must not introduce delay jumps larger
    // than a few percent (the optimizer smooths the k transitions).
    tech::RepeateredWire rep{
        technology().wire(tech::WireLayer::Global),
        technology().mosfet()};
    double prev = rep.delay(Metre{1e-3}, constants::ln2Temp).value();
    for (double len = 1.05e-3; len < 10e-3; len *= 1.05) {
        const double d =
            rep.delay(Metre{len}, constants::ln2Temp).value();
        EXPECT_GT(d, prev * 0.99);
        EXPECT_LT(d, prev * 1.25);
        prev = d;
    }
}

TEST(Properties, SpeedupsBaselineInvariance)
{
    // Normalizing to a different column rescales but preserves ratios.
    const core::SystemBuilder builder{technology()};
    const sys::IntervalSimulator sim;
    const auto designs = builder.table4Systems();
    const auto suite = sys::parsec21();
    const auto a = sim.speedups(designs, suite, 0);
    const auto b = sim.speedups(designs, suite, 1);
    for (std::size_t wi = 0; wi < suite.size(); ++wi) {
        const double ratio_a = a.perf[wi][4] / a.perf[wi][2];
        const double ratio_b = b.perf[wi][4] / b.perf[wi][2];
        EXPECT_NEAR(ratio_a, ratio_b, 1e-9);
    }
}

TEST(Properties, WorkloadSaturationImpliesLowerPerf)
{
    // A saturated run can never be faster than the same workload with
    // its interconnect traffic halved.
    core::SystemBuilder builder{technology()};
    sys::IntervalSimulator sim;
    const auto design = builder.cryoSpCryoBus77(1);
    auto w = sys::findWorkload(sys::specRateAggressivePrefetch(),
                               "libquantum");
    const auto heavy = sim.run(design, w);
    ASSERT_TRUE(heavy.saturated);
    w.prefetchApki *= 0.25;
    w.l3Apki *= 0.5;
    const auto light = sim.run(design, w);
    EXPECT_LT(light.timePerInstr, heavy.timePerInstr);
}

} // namespace
