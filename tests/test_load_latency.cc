/**
 * @file
 * Tests for the load-latency driver and the hybrid 256-core network.
 */

#include <gtest/gtest.h>

#include <limits>
#include <memory>

#include "netsim/bus_net.hh"
#include "netsim/hybrid_net.hh"
#include "netsim/load_latency.hh"
#include "netsim/router_net.hh"
#include "noc/noc_config.hh"
#include "util/diag.hh"

namespace
{

using namespace cryo::netsim;
using cryo::FatalError;
using cryo::tech::Technology;

NetworkFactory
cryoBusFactory(int ways = 1)
{
    static Technology tech = Technology::freePdk45();
    cryo::noc::NocDesigner designer{tech};
    const BusTiming t = BusTiming::fromConfig(designer.cryoBus(), ways);
    return [t]() -> std::unique_ptr<Network> {
        return std::make_unique<BusNetwork>(64, t);
    };
}

MeasureOpts
fastOpts()
{
    MeasureOpts o;
    o.warmupCycles = 1000;
    o.measureCycles = 4000;
    return o;
}

TEST(LoadLatency, ZeroLoadMatchesAnalytic)
{
    TrafficSpec tr;
    const double zl = zeroLoadLatency(cryoBusFactory(), tr, fastOpts());
    EXPECT_NEAR(zl, 5.0, 0.3); // the Fig.-20 CryoBus total
}

TEST(LoadLatency, CurveIsMonotone)
{
    TrafficSpec tr;
    const auto curve = sweepLoadLatency(
        cryoBusFactory(), tr, {0.001, 0.004, 0.008, 0.012, 0.015},
        fastOpts());
    ASSERT_EQ(curve.size(), 5u);
    for (std::size_t i = 1; i < curve.size(); ++i)
        EXPECT_GE(curve[i].avgLatency, curve[i - 1].avgLatency - 0.4);
    EXPECT_FALSE(curve.front().saturated);
}

TEST(LoadLatency, DetectsSaturation)
{
    TrafficSpec tr;
    tr.injectionRate = 0.03; // ~2x the 1/64 capacity
    const auto pt = measureLoadPoint(cryoBusFactory(), tr, fastOpts());
    EXPECT_TRUE(pt.saturated);
    // Throughput pins at the grant rate.
    EXPECT_NEAR(pt.throughput, 1.0 / 64.0, 0.002);
}

TEST(LoadLatency, SaturationRateMatchesOccupancy)
{
    TrafficSpec tr;
    const double sat =
        saturationRate(cryoBusFactory(), tr, 0.05, 0.002, fastOpts());
    EXPECT_NEAR(sat, 1.0 / 64.0, 0.003);
}

TEST(LoadLatency, SaturationRateRejectsBadBracketOrTolerance)
{
    TrafficSpec tr;
    // hi must be a valid injection rate: finite, positive, below 1.
    EXPECT_THROW(
        saturationRate(cryoBusFactory(), tr, -0.1, 0.002, fastOpts()),
        FatalError);
    EXPECT_THROW(
        saturationRate(cryoBusFactory(), tr, 0.0, 0.002, fastOpts()),
        FatalError);
    EXPECT_THROW(
        saturationRate(cryoBusFactory(), tr, 1.0, 0.002, fastOpts()),
        FatalError);
    EXPECT_THROW(
        saturationRate(cryoBusFactory(), tr, 0.05, 0.0, fastOpts()),
        FatalError);
    EXPECT_THROW(
        saturationRate(cryoBusFactory(), tr, 0.05, -0.01, fastOpts()),
        FatalError);
}

TEST(LoadLatency, SaturationRateReturnsHiWhenBracketNeverSaturates)
{
    // hi = 0.005 is well below the 1/64 grant bound: the bracket holds
    // no saturation crossing, so the bisection reports hi itself
    // instead of bisecting toward a fiction.
    TrafficSpec tr;
    const double sat = saturationRate(cryoBusFactory(), tr, 0.005,
                                      0.002, fastOpts());
    EXPECT_DOUBLE_EQ(sat, 0.005);
}

TEST(LoadLatency, SaturationRateAlwaysSaturatedReturnsZero)
{
    // A bus whose broadcast occupies the medium for 10^5 cycles
    // delivers essentially nothing inside the window, so every probed
    // rate starves; the bisection must degrade to 0, not hang or
    // return a tolerance-sized artifact as a real bandwidth.
    BusTiming t;
    t.broadcastCycles = 100000;
    auto factory = [t]() -> std::unique_ptr<Network> {
        return std::make_unique<BusNetwork>(64, t);
    };
    TrafficSpec tr;
    const double sat = saturationRate(factory, tr, 0.5, 0.01,
                                      fastOpts());
    EXPECT_DOUBLE_EQ(sat, 0.0);
}

TEST(LoadLatency, SweepRejectsInvalidRates)
{
    TrafficSpec tr;
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(
        sweepLoadLatency(cryoBusFactory(), tr, {0.001, nan}, fastOpts()),
        FatalError);
    EXPECT_THROW(
        sweepLoadLatency(cryoBusFactory(), tr, {-0.2}, fastOpts()),
        FatalError);
    EXPECT_THROW(
        sweepLoadLatency(cryoBusFactory(), tr, {1.0}, fastOpts()),
        FatalError);
}

TEST(LoadLatency, InterleavingDoublesSaturation)
{
    TrafficSpec tr;
    const double one =
        saturationRate(cryoBusFactory(1), tr, 0.08, 0.002, fastOpts());
    const double two =
        saturationRate(cryoBusFactory(2), tr, 0.08, 0.002, fastOpts());
    EXPECT_NEAR(two / one, 2.0, 0.25);
}

TEST(LoadLatency, ThroughputTracksOfferedBelowSaturation)
{
    TrafficSpec tr;
    tr.injectionRate = 0.005;
    const auto pt = measureLoadPoint(cryoBusFactory(), tr, fastOpts());
    EXPECT_NEAR(pt.throughput, 0.005, 0.001);
    EXPECT_FALSE(pt.saturated);
}

TEST(LoadLatency, RequestResponseRoundTrip)
{
    static Technology tech = Technology::freePdk45();
    cryo::noc::NocDesigner designer{tech};
    const auto cfg = designer.mesh(77.0, 1);
    auto factory = [cfg]() -> std::unique_ptr<Network> {
        return std::make_unique<RouterNetwork>(
            RouterNetConfig::fromConfig(cfg));
    };
    TrafficSpec tr;
    tr.responseFlits = 5;
    tr.injectionRate = 0.002;
    const auto rr = measureLoadPoint(factory, tr, fastOpts());
    TrafficSpec one_way;
    one_way.injectionRate = 0.002;
    const auto ow = measureLoadPoint(factory, one_way, fastOpts());
    // A round trip costs roughly twice a one-way traversal.
    EXPECT_GT(rr.avgLatency, 1.6 * ow.avgLatency);
}

TEST(Hybrid, IntraClusterActsLikeCryoBus)
{
    static Technology tech = Technology::freePdk45();
    cryo::noc::NocDesigner designer{tech};
    HybridConfig hc;
    hc.busTiming = BusTiming::fromConfig(designer.cryoBus(), 1);
    HybridNetwork net(hc);
    Packet p;
    p.id = 1;
    p.src = 3;
    p.dst = 40; // same cluster (0-63)
    net.inject(p);
    for (int c = 0; c < 30 && net.delivered().empty(); ++c)
        net.step();
    ASSERT_EQ(net.delivered().size(), 1u);
    EXPECT_EQ(net.delivered()[0].latency(), 5u);
}

TEST(Hybrid, InterClusterPaysTwoBusesPlusMesh)
{
    static Technology tech = Technology::freePdk45();
    cryo::noc::NocDesigner designer{tech};
    HybridConfig hc;
    hc.busTiming = BusTiming::fromConfig(designer.cryoBus(), 1);
    HybridNetwork net(hc);
    Packet p;
    p.id = 1;
    p.src = 3;
    p.dst = 3 * 64 + 11; // diagonal cluster
    net.inject(p);
    for (int c = 0; c < 80 && net.delivered().empty(); ++c)
        net.step();
    ASSERT_EQ(net.delivered().size(), 1u);
    const auto lat = net.delivered()[0].latency();
    const int mesh = net.meshLatency(0, 3);
    EXPECT_NEAR(static_cast<double>(lat),
                5.0 + mesh + 5.0, 3.0);
}

TEST(Hybrid, MeshLatencySymmetric)
{
    static Technology tech = Technology::freePdk45();
    cryo::noc::NocDesigner designer{tech};
    HybridConfig hc;
    hc.busTiming = BusTiming::fromConfig(designer.cryoBus(), 1);
    HybridNetwork net(hc);
    for (int a = 0; a < 4; ++a) {
        for (int b = 0; b < 4; ++b)
            EXPECT_EQ(net.meshLatency(a, b), net.meshLatency(b, a));
    }
    EXPECT_LT(net.meshLatency(0, 0), net.meshLatency(0, 3));
}

TEST(Hybrid, RejectsBadPackets)
{
    static Technology tech = Technology::freePdk45();
    cryo::noc::NocDesigner designer{tech};
    HybridConfig hc;
    hc.busTiming = BusTiming::fromConfig(designer.cryoBus(), 1);
    HybridNetwork net(hc);
    Packet p;
    p.id = 1;
    p.src = 3;
    p.dst = 200;
    p.flits = 0;
    EXPECT_THROW(net.inject(p), FatalError);
    EXPECT_EQ(net.inFlight(), 0u);
    p.flits = 1;
    net.inject(p);
    // A second packet under an id still in flight is refused.
    Packet dup = p;
    dup.src = 70;
    dup.dst = 9;
    EXPECT_THROW(net.inject(dup), FatalError);
    EXPECT_EQ(net.inFlight(), 1u);
    for (int c = 0; c < 200 && net.delivered().empty(); ++c)
        net.step();
    ASSERT_EQ(net.delivered().size(), 1u);
    EXPECT_EQ(net.delivered()[0].src, 3);
    EXPECT_EQ(net.delivered()[0].dst, 200);
}

TEST(Hybrid, SustainsParallelClusterTraffic)
{
    // Four clusters with local traffic saturate at ~4 grants/cycle.
    static Technology tech = Technology::freePdk45();
    cryo::noc::NocDesigner designer{tech};
    HybridConfig hc;
    hc.busTiming = BusTiming::fromConfig(designer.cryoBus(), 1);
    HybridNetwork net(hc);
    std::uint64_t id = 1, delivered = 0;
    for (int c = 0; c < 2000; ++c) {
        for (int cl = 0; cl < 4; ++cl) {
            Packet p;
            p.id = id++;
            p.src = cl * 64 + static_cast<int>(id % 64);
            p.dst = cl * 64 + static_cast<int>((id + 9) % 64);
            if (p.src != p.dst)
                net.inject(p);
        }
        net.step();
        if (c >= 1000)
            delivered += net.delivered().size();
        net.delivered().clear();
    }
    EXPECT_GT(static_cast<double>(delivered) / 1000.0, 3.5);
}

TEST(Hybrid, RejectsNonSquareClusterCount)
{
    HybridConfig hc;
    hc.clusters = 3;
    EXPECT_THROW(HybridNetwork{hc}, FatalError);
}

} // namespace
