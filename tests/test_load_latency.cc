/**
 * @file
 * Tests for the load-latency driver and the hybrid 256-core network.
 */

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "delivery_trace.hh"
#include "netsim/bus_net.hh"
#include "netsim/cell.hh"
#include "netsim/hybrid_net.hh"
#include "netsim/load_latency.hh"
#include "netsim/router_net.hh"
#include "noc/noc_config.hh"
#include "util/diag.hh"
#include "util/parallel.hh"
#include "util/rng.hh"

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

/**
 * The probe order saturationRate had before it climbed, kept as the
 * reference its answers must equal: probe hi, then bisect [0, hi]
 * from the top (its warnings and iteration cap left out).
 */
double
topDownSaturationRate(const NetworkFactory &factory, TrafficSpec traffic,
                      double hi, double tolerance, MeasureOpts opts)
{
    auto saturatedAt = [&](double rate) {
        traffic.injectionRate = rate;
        return measureLoadPoint(factory, traffic, opts).saturated;
    };
    if (!saturatedAt(hi))
        return hi;
    double lo = 0.0;
    while (hi - lo > tolerance) {
        const double mid = 0.5 * (lo + hi);
        if (saturatedAt(mid))
            hi = mid;
        else
            lo = mid;
    }
    return lo;
}

/** Packets injected into, and cycles stepped by, one network. */
struct OfferedLoad
{
    std::uint64_t packets = 0;
    Cycle cycles = 0;
    int nodes = 0;

    /** Offered load [packets/node/cycle]. */
    double
    rate() const
    {
        return static_cast<double>(packets) /
            (static_cast<double>(cycles) * nodes);
    }
};

/** Forwards to a network and counts what it is offered. */
class CountingNetwork : public Network
{
  public:
    CountingNetwork(std::unique_ptr<Network> inner, OfferedLoad &load)
        : inner_(std::move(inner)), load_(load)
    {
        load_.nodes = inner_->nodes();
    }

    void
    inject(const Packet &p) override
    {
        ++load_.packets;
        inner_->inject(p);
    }

    void
    step() override
    {
        ++load_.cycles;
        inner_->step();
        std::vector<Packet> &in = inner_->delivered();
        delivered_.insert(delivered_.end(), in.begin(), in.end());
        in.clear();
    }

    Cycle now() const override { return inner_->now(); }
    int nodes() const override { return inner_->nodes(); }
    std::size_t inFlight() const override { return inner_->inFlight(); }

  private:
    std::unique_ptr<Network> inner_;
    OfferedLoad &load_;
};

/** @p factory, recording one OfferedLoad per network it builds. */
NetworkFactory
countingFactory(NetworkFactory factory, std::deque<OfferedLoad> &loads)
{
    return [factory = std::move(factory),
            &loads]() -> std::unique_ptr<Network> {
        return std::make_unique<CountingNetwork>(factory(),
                                                 loads.emplace_back());
    };
}

TEST(LoadLatency, ZeroLoadMatchesAnalytic)
{
    TrafficSpec tr;
    const double zl = zeroLoadLatency(cryoBusFactory(), tr, fastOpts());
    EXPECT_NEAR(zl, 5.0, 0.3); // the Fig.-20 CryoBus total
}

TEST(LoadLatency, CurveIsMonotone)
{
    const TrafficSpec tr;
    const std::vector<double> rates = {0.001, 0.004, 0.008, 0.012, 0.015};
    std::vector<LoadPoint> curve;
    for (std::size_t i = 0; i < rates.size(); ++i) {
        TrafficSpec spec = tr;
        spec.injectionRate = rates[i];
        spec.seed = cryo::Rng::deriveSeed(tr.seed, i);
        curve.push_back(measureLoadPoint(cryoBusFactory(), spec, fastOpts()));
    }
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

TEST(LoadLatency, InterleavingDoublesSaturation)
{
    TrafficSpec tr;
    const double one =
        saturationRate(cryoBusFactory(1), tr, 0.08, 0.002, fastOpts());
    const double two =
        saturationRate(cryoBusFactory(2), tr, 0.08, 0.002, fastOpts());
    EXPECT_NEAR(two / one, 2.0, 0.25);
}

TEST(LoadLatency, SaturationSearchMatchesTopDownBisection)
{
    // fig21/25's bracket: hi 0.6 halves to the first grid rate at or
    // below the tolerance in k = 9 steps at 0.002 (odd) and k = 8 at
    // 0.003 (even); either way the search starts at 0.6 / 16 = 0.0375.
    constexpr double kHi = 0.6;
    constexpr double kStart = kHi / 16.0;
    struct Case
    {
        std::string name;
        NetworkFactory factory;
        TrafficSpec traffic;
        double tolerance;
    };
    std::vector<Case> cases;
    // Router networks saturate above the start, so the search climbs;
    // they are the slowest cases, so they go first.
    static Technology tech = Technology::freePdk45();
    const cryo::noc::NocDesigner designer{tech, 16};
    TrafficSpec directory;
    directory.responseFlits = 5;
    auto router = [](const cryo::noc::NocConfig &cfg) -> NetworkFactory {
        const RouterNetConfig rc = RouterNetConfig::fromConfig(cfg);
        return [rc]() -> std::unique_ptr<Network> {
            return std::make_unique<RouterNetwork>(rc);
        };
    };
    cases.push_back({"mesh16", router(designer.mesh(77.0, 1)), directory,
                     0.003});
    cases.push_back({"fb16", router(designer.flattenedButterfly(77.0, 3)),
                     directory, 0.002});
    // The buses saturate below the start, so the search bisects down.
    for (int ways : {1, 2}) {
        for (TrafficPattern pattern :
             {TrafficPattern::UniformRandom, TrafficPattern::Transpose,
              TrafficPattern::BitReverse, TrafficPattern::Hotspot,
              TrafficPattern::Burst}) {
            for (std::uint64_t seed : {1, 2, 3}) {
                TrafficSpec tr;
                tr.pattern = pattern;
                tr.seed = seed;
                cases.push_back({"cryobus " + std::to_string(ways) +
                                     "-way " + trafficPatternName(pattern) +
                                     " seed " + std::to_string(seed),
                                 cryoBusFactory(ways), tr,
                                 ways == 1 ? 0.002 : 0.003});
            }
        }
    }

    // The cases are independent, deterministic simulations, so they
    // run concurrently; the checks below run in case order.
    const auto answers = cryo::parallelMap(
        cases.size(),
        [&cases](std::size_t i) {
            const Case &c = cases[i];
            return std::pair{
                saturationRate(c.factory, c.traffic, kHi, c.tolerance,
                               fastOpts()),
                topDownSaturationRate(c.factory, c.traffic, kHi,
                                      c.tolerance, fastOpts())};
        },
        cryo::ParallelOptions{0, 1});
    int above = 0;
    int below = 0;
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const auto [sat, reference] = answers[i];
        EXPECT_EQ(sat, reference) << cases[i].name;
        if (sat > kStart)
            ++above;
        else
            ++below;
    }
    // Both branches of the search ran.
    EXPECT_GT(above, 0);
    EXPECT_GT(below, 0);
}

TEST(LoadLatency, SaturationSearchNeverProbesFarPastSaturation)
{
    // CryoBus under uniform traffic saturates at ~1/64 = 0.0156.
    std::deque<OfferedLoad> loads;
    const NetworkFactory bus = countingFactory(cryoBusFactory(), loads);
    const TrafficSpec tr;
    const double sat = saturationRate(bus, tr, 0.6, 0.003, fastOpts());
    EXPECT_NEAR(sat, 0.0164, 0.003);
    // Every probe stays within a few times the crossing; probing hi
    // first would offer 0.6.
    for (std::size_t i = 0; i < loads.size(); ++i)
        EXPECT_LT(loads[i].rate(), 0.1) << "network " << i;
    // 0.0375, then bisect [0, 0.0375] to the 0.003 tolerance.
    const std::size_t built = loads.size();
    EXPECT_EQ(built, 5u);

    loads.clear();
    EXPECT_EQ(topDownSaturationRate(bus, tr, 0.6, 0.003, fastOpts()), sat);
    EXPECT_LT(built, loads.size());
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

TEST(Hybrid, DeliveryTraceDigestsArePinned)
{
    // Fig. 26's 4 x 64 hybrid (1-way CryoBus clusters), below and past
    // saturation: the exact schedule of both bus legs, the gateway
    // queues and the mesh crossings. Any change to the hybrid's or the
    // bus's cycle-level behaviour moves a digest.
    static Technology tech = Technology::freePdk45();
    cryo::noc::NocDesigner designer{tech};
    HybridConfig hc;
    hc.busTiming = BusTiming::fromConfig(designer.cryoBus(), 1);
    struct Case
    {
        const char *name;
        double rate;
        std::uint64_t digest;
    };
    const Case cases[] = {
        {"hybrid low", 0.003, 0xf978cb113b31b462ull},
        {"hybrid sat", 0.02, 0xdee96028511cdf0full},
    };
    for (const Case &c : cases) {
        MeasureOpts opts;
        opts.warmupCycles = 300;
        opts.measureCycles = 1200;
        TrafficSpec tr;
        tr.injectionRate = c.rate;
        tr.seed = 7;
        const std::uint64_t digest = pinned::deliveryTraceDigest(
            [hc]() -> std::unique_ptr<Network> {
                return std::make_unique<HybridNetwork>(hc);
            },
            tr, opts);
        EXPECT_EQ(digest, c.digest)
            << c.name << ": " << pinned::digestHex(digest);
    }
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
