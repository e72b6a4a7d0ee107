/**
 * @file
 * Tests for the load-latency driver and the hybrid 256-core network.
 */

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <vector>

#include "netsim/bus_net.hh"
#include "netsim/cell.hh"
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
    // A tolerance at or above hi ends the search before it probes
    // below hi, so it would report 0 for a bus that carries 0.0156.
    EXPECT_THROW(
        saturationRate(cryoBusFactory(), tr, 0.05, 0.05, fastOpts()),
        FatalError);
    EXPECT_THROW(
        saturationRate(cryoBusFactory(), tr, 0.05, 0.06, fastOpts()),
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

// --- Cell identity ----------------------------------------------------

Cell
busSatCell()
{
    BusSpec bus;
    bus.timing.grantCycles = 2;
    bus.timing.broadcastCycles = 3;
    return Cell::saturation(bus, TrafficSpec{}, 0.05, 0.001, fastOpts());
}

Cell
routerPointCell()
{
    RouterNetConfig rc;
    rc.kind = cryo::noc::TopologyKind::FlattenedButterfly;
    rc.concentration = 4;
    TrafficSpec tr;
    tr.responseFlits = 5;
    tr.injectionRate = 0.02;
    return Cell::loadPoint(rc, tr, fastOpts());
}

Cell
hybridZeroLoadCell()
{
    return Cell::zeroLoad(HybridConfig{}, TrafficSpec{}, fastOpts());
}

TEST(Cell, EqualContentHashesEqual)
{
    for (const Cell &c :
         {busSatCell(), routerPointCell(), hybridZeroLoadCell()}) {
        const Cell copy = c;
        EXPECT_TRUE(copy == c);
        EXPECT_EQ(copy.hash(), c.hash());
    }
    // -0.0 and +0.0 are the same content.
    Cell neg = routerPointCell();
    Cell pos = neg;
    neg.traffic.hotspotFraction = -0.0;
    pos.traffic.hotspotFraction = 0.0;
    EXPECT_TRUE(neg == pos);
    EXPECT_EQ(neg.hash(), pos.hash());
}

TEST(Cell, PinnedDigests)
{
    // The encoding is a contract: a change here needs a kCellSchema
    // bump (which changes both anyway).
    EXPECT_EQ(cryo::hashHex(busSatCell().hash()), "9ba8b2b55d80d0a5");
    EXPECT_EQ(cryo::hashHex(routerPointCell().hash()), "4dd4ac4401a56019");
}

TEST(Cell, EverySingleFieldPerturbationChangesTheHash)
{
    std::vector<std::pair<Cell, Cell>> cases; // (base, perturbed)
    auto bus = [&](auto edit) {
        Cell c = busSatCell();
        edit(c, std::get<BusSpec>(c.network));
        cases.emplace_back(busSatCell(), c);
    };
    bus([](Cell &, BusSpec &b) { b.nodes = 32; });
    bus([](Cell &, BusSpec &b) { b.timing.requestCycles = 2; });
    bus([](Cell &, BusSpec &b) { b.timing.grantCycles = 3; });
    bus([](Cell &, BusSpec &b) { b.timing.broadcastCycles = 4; });
    bus([](Cell &, BusSpec &b) { b.timing.ways = 2; });

    auto router = [&](auto edit) {
        Cell c = routerPointCell();
        edit(std::get<RouterNetConfig>(c.network));
        cases.emplace_back(routerPointCell(), c);
    };
    router([](RouterNetConfig &r) {
        r.kind = cryo::noc::TopologyKind::Mesh;
    });
    router([](RouterNetConfig &r) { r.cores = 256; });
    router([](RouterNetConfig &r) { r.concentration = 1; });
    router([](RouterNetConfig &r) { r.routerCycles = 3; });
    router([](RouterNetConfig &r) { r.virtualChannels = 8; });
    router([](RouterNetConfig &r) { r.vcBufferFlits = 4; });
    router([](RouterNetConfig &r) { r.hopsPerCycle = 2; });

    auto hybrid = [&](auto edit) {
        Cell c = hybridZeroLoadCell();
        edit(std::get<HybridConfig>(c.network));
        cases.emplace_back(hybridZeroLoadCell(), c);
    };
    hybrid([](HybridConfig &h) { h.clusters = 16; });
    hybrid([](HybridConfig &h) { h.coresPerCluster = 16; });
    hybrid([](HybridConfig &h) { h.busTiming.requestCycles = 2; });
    hybrid([](HybridConfig &h) { h.busTiming.grantCycles = 2; });
    hybrid([](HybridConfig &h) { h.busTiming.broadcastCycles = 2; });
    hybrid([](HybridConfig &h) { h.busTiming.ways = 2; });
    hybrid([](HybridConfig &h) { h.meshRouterCycles = 2; });
    hybrid([](HybridConfig &h) { h.meshLinkCycles = 3; });
    hybrid([](HybridConfig &h) { h.gatewayBandwidth = 2; });

    // The same timing on another network kind is another cell.
    {
        Cell c = hybridZeroLoadCell();
        c.network = BusSpec{256, HybridConfig{}.busTiming};
        cases.emplace_back(hybridZeroLoadCell(), c);
    }

    auto any = [&](auto edit) {
        Cell c = busSatCell();
        edit(c);
        cases.emplace_back(busSatCell(), c);
    };
    any([](Cell &c) { c.traffic.pattern = TrafficPattern::Hotspot; });
    any([](Cell &c) { c.traffic.injectionRate = 0.02; });
    any([](Cell &c) { c.traffic.flitsPerPacket = 2; });
    any([](Cell &c) { c.traffic.responseFlits = 5; });
    any([](Cell &c) { c.traffic.hotspotNode = 3; });
    any([](Cell &c) { c.traffic.hotspotFraction = 0.3; });
    any([](Cell &c) { c.traffic.burstOnProb = 0.5; });
    any([](Cell &c) { c.traffic.burstOffProb = 0.5; });
    any([](Cell &c) { c.traffic.seed = 2; });
    any([](Cell &c) { c.opts.warmupCycles = 1500; });
    any([](Cell &c) { c.opts.measureCycles = 5000; });
    any([](Cell &c) { c.opts.saturationLatency = 500.0; });
    any([](Cell &c) { c.opts.backlogFactor = 3.0; });
    any([](Cell &c) { c.hi = 0.06; });
    any([](Cell &c) { c.tolerance = 0.002; });
    any([](Cell &c) { c.probe = ProbeKind::LoadPoint; });
    any([](Cell &c) { c.probe = ProbeKind::ZeroLoad; });

    for (std::size_t i = 0; i < cases.size(); ++i) {
        const auto &[base, changed] = cases[i];
        EXPECT_FALSE(changed == base) << "case " << i;
        EXPECT_NE(changed.hash(), base.hash()) << "case " << i;
    }
}

TEST(Cell, SaturationCellValidatesItsBracket)
{
    EXPECT_THROW(Cell::saturation(BusSpec{}, TrafficSpec{}, 0.05, 0.05,
                                  fastOpts()),
                 FatalError);
    EXPECT_THROW(Cell::saturation(BusSpec{}, TrafficSpec{}, 1.0, 0.01,
                                  fastOpts()),
                 FatalError);
}

TEST(Cell, RunCallsTheProbeItNames)
{
    // Each cell names the same bus as the factory the direct calls use.
    TrafficSpec tr;
    const NetworkFactory bus = [] {
        return std::make_unique<BusNetwork>(64, BusTiming{});
    };
    const Cell sat =
        Cell::saturation(BusSpec{}, tr, 0.05, 0.001, fastOpts());
    EXPECT_EQ(runCell(sat).value,
              saturationRate(bus, tr, 0.05, 0.001, fastOpts()));
    const Cell zl = Cell::zeroLoad(BusSpec{}, tr, fastOpts());
    EXPECT_EQ(runCell(zl).value, zeroLoadLatency(bus, tr, fastOpts()));
    tr.injectionRate = 0.01;
    const Cell pt = Cell::loadPoint(BusSpec{}, tr, fastOpts());
    const LoadPoint direct = measureLoadPoint(bus, tr, fastOpts());
    const CellResult r = runCell(pt);
    EXPECT_EQ(r.value, direct.avgLatency);
    EXPECT_EQ(r.point.p99Latency, direct.p99Latency);
    EXPECT_EQ(r.point.throughput, direct.throughput);
    EXPECT_EQ(r.point.saturated, direct.saturated);
}

} // namespace
