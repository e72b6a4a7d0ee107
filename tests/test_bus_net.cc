/**
 * @file
 * Tests for the cycle-accurate bus simulator against the analytic
 * breakdowns (Figs 18/20).
 */

#include <gtest/gtest.h>

#include <memory>

#include "delivery_trace.hh"
#include "netsim/bus_net.hh"
#include "netsim/load_latency.hh"
#include "noc/noc_config.hh"
#include "util/diag.hh"

namespace
{

using namespace cryo::netsim;
using namespace cryo::netsim::pinned;
using cryo::FatalError;
using cryo::tech::Technology;

BusTiming
cryoBusTiming(int ways = 1)
{
    static Technology tech = Technology::freePdk45();
    cryo::noc::NocDesigner designer{tech};
    return BusTiming::fromConfig(designer.cryoBus(), ways);
}

Packet
makePacket(std::uint64_t id, int src, int dst, int flits = 1)
{
    Packet p;
    p.id = id;
    p.src = src;
    p.dst = dst;
    p.flits = flits;
    return p;
}

TEST(BusNet, ZeroLoadLatencyMatchesBreakdown)
{
    // One packet on an idle CryoBus takes exactly the Fig.-20 total:
    // request 1 + arb 1 + grant 1 + control 1 + broadcast 1 = 5.
    BusNetwork net(64, cryoBusTiming());
    net.inject(makePacket(1, 3, 40));
    for (int i = 0; i < 20 && net.delivered().empty(); ++i)
        net.step();
    ASSERT_EQ(net.delivered().size(), 1u);
    EXPECT_EQ(net.delivered()[0].latency(), 5u);
}

TEST(BusNet, SerializationAddsTailFlits)
{
    BusNetwork net(64, cryoBusTiming());
    net.inject(makePacket(1, 3, 40, 5));
    for (int i = 0; i < 20 && net.delivered().empty(); ++i)
        net.step();
    ASSERT_EQ(net.delivered().size(), 1u);
    EXPECT_EQ(net.delivered()[0].latency(), 9u); // 5 + 4 tail flits
}

TEST(BusNet, ThroughputIsOneGrantPerCycle)
{
    // Saturated CryoBus delivers exactly one transaction per cycle.
    BusNetwork net(64, cryoBusTiming());
    std::uint64_t id = 1;
    std::uint64_t delivered = 0;
    for (int c = 0; c < 2000; ++c) {
        for (int n = 0; n < 8; ++n) { // heavy oversubscription
            const std::uint64_t i = id++;
            net.inject(makePacket(i, static_cast<int>(i % 64),
                                  static_cast<int>((i + 7) % 64)));
        }
        net.step();
        if (c >= 1000)
            delivered += net.delivered().size();
        net.delivered().clear();
    }
    EXPECT_NEAR(static_cast<double>(delivered) / 1000.0, 1.0, 0.02);
}

TEST(BusNet, OccupancyLimitsThroughput)
{
    // A 3-cycle-broadcast bus (the 77 K shared bus) sustains 1/3 per
    // cycle.
    BusTiming t;
    t.requestCycles = 2;
    t.grantCycles = 2;
    t.broadcastCycles = 3;
    BusNetwork net(64, t);
    std::uint64_t id = 1, delivered = 0;
    for (int c = 0; c < 3000; ++c) {
        for (int n = 0; n < 4; ++n) {
            const std::uint64_t i = id++;
            net.inject(makePacket(i, static_cast<int>(i % 64),
                                  static_cast<int>((i + 9) % 64)));
        }
        net.step();
        if (c >= 1500)
            delivered += net.delivered().size();
        net.delivered().clear();
    }
    EXPECT_NEAR(static_cast<double>(delivered) / 1500.0, 1.0 / 3.0,
                0.02);
}

TEST(BusNet, InterleavingDoublesThroughput)
{
    auto throughput = [](int ways) {
        BusNetwork net(64, cryoBusTiming(ways));
        std::uint64_t id = 1, delivered = 0;
        for (int c = 0; c < 2000; ++c) {
            for (int n = 0; n < 8; ++n) {
                const std::uint64_t i = id++;
                net.inject(makePacket(i, static_cast<int>(i % 64),
                                      static_cast<int>((i + 3) % 64)));
            }
            net.step();
            if (c >= 1000)
                delivered += net.delivered().size();
            net.delivered().clear();
        }
        return static_cast<double>(delivered) / 1000.0;
    };
    EXPECT_NEAR(throughput(2) / throughput(1), 2.0, 0.1);
}

TEST(BusNet, PerSourceFifoOrder)
{
    BusNetwork net(16, cryoBusTiming());
    for (std::uint64_t i = 1; i <= 5; ++i)
        net.inject(makePacket(i, 2, 7));
    std::vector<std::uint64_t> order;
    for (int c = 0; c < 60 && order.size() < 5; ++c) {
        net.step();
        for (const auto &p : net.drainDelivered())
            order.push_back(p.id);
    }
    ASSERT_EQ(order.size(), 5u);
    for (std::uint64_t i = 0; i < 5; ++i)
        EXPECT_EQ(order[i], i + 1);
}

TEST(BusNet, FairAcrossSources)
{
    BusNetwork net(8, cryoBusTiming());
    std::uint64_t id = 1;
    std::vector<int> per_src(8, 0);
    for (int c = 0; c < 800; ++c) {
        for (int n = 0; n < 8; ++n)
            net.inject(makePacket(id++, n, (n + 1) % 8));
        net.step();
        for (const auto &p : net.drainDelivered())
            ++per_src[static_cast<std::size_t>(p.src)];
    }
    for (int n = 0; n < 8; ++n)
        EXPECT_NEAR(per_src[static_cast<std::size_t>(n)], 100, 12);
}

TEST(BusNet, InFlightAccountingDrains)
{
    BusNetwork net(16, cryoBusTiming());
    for (std::uint64_t i = 1; i <= 10; ++i)
        net.inject(makePacket(i, static_cast<int>(i % 16),
                              static_cast<int>((i + 5) % 16)));
    EXPECT_EQ(net.inFlight(), 10u);
    for (int c = 0; c < 100; ++c)
        net.step();
    EXPECT_EQ(net.inFlight(), 0u);
    EXPECT_EQ(net.delivered().size(), 10u);
}

TEST(BusNet, UtilizationTracksLoad)
{
    BusNetwork idle(16, cryoBusTiming());
    for (int c = 0; c < 100; ++c)
        idle.step();
    EXPECT_DOUBLE_EQ(idle.utilization(), 0.0);

    BusNetwork busy(16, cryoBusTiming());
    std::uint64_t id = 1;
    for (int c = 0; c < 500; ++c) {
        const std::uint64_t i = id++;
        busy.inject(makePacket(i, static_cast<int>(i % 16),
                               static_cast<int>((i + 3) % 16)));
        busy.step();
    }
    EXPECT_GT(busy.utilization(), 0.5);
}

TEST(BusNet, UtilizationCountsOnlyBroadcastWindow)
{
    // Hand-scheduled CryoBus trace (request 1, arb 1, grant+control 2,
    // broadcast 1): a packet injected at cycle 0 is requested at
    // cycle 1, granted at cycle 1, and occupies the medium only at
    // cycle 4 — one busy cycle out of ten. The grant-to-broadcast gap
    // (cycles 2-3) must not count as busy.
    BusNetwork net(16, cryoBusTiming());
    net.inject(makePacket(1, 2, 9));
    for (int c = 0; c < 10; ++c)
        net.step();
    EXPECT_DOUBLE_EQ(net.utilization(), 0.1);

    // A 3-flit packet holds the medium for broadcast + 2 tail cycles:
    // window [4, 7), so exactly three busy cycles.
    BusNetwork multi(16, cryoBusTiming());
    multi.inject(makePacket(1, 2, 9, 3));
    for (int c = 0; c < 10; ++c)
        multi.step();
    EXPECT_DOUBLE_EQ(multi.utilization(), 0.3);
}

TEST(BusNet, SaturatedWayReportsFullUtilization)
{
    // Back-to-back grants chain broadcast windows with no gaps, so a
    // saturated single-way bus converges to ~100% busy.
    BusNetwork net(16, cryoBusTiming());
    std::uint64_t id = 1;
    for (int c = 0; c < 600; ++c) {
        for (int n = 0; n < 4; ++n) {
            const std::uint64_t i = id++;
            net.inject(makePacket(i, static_cast<int>(i % 16),
                                  static_cast<int>((i + 3) % 16)));
        }
        net.step();
    }
    EXPECT_GT(net.utilization(), 0.95);
    EXPECT_LE(net.utilization(), 1.0);
}

TEST(BusNet, RejectsBadConfigs)
{
    BusTiming bad;
    bad.broadcastCycles = 0;
    EXPECT_THROW(BusNetwork(16, bad), FatalError);
    EXPECT_THROW(BusNetwork(1, cryoBusTiming()), FatalError);
}

TEST(BusNet, RejectsBadPackets)
{
    BusNetwork net(16, cryoBusTiming());
    EXPECT_THROW(net.inject(makePacket(1, 99, 3)), FatalError);
    EXPECT_THROW(net.inject(makePacket(1, 0, 3, 0)), FatalError);
    EXPECT_THROW(net.inject(makePacket(1, 0, 3, -1)), FatalError);
    EXPECT_EQ(net.inFlight(), 0u);
}

TEST(BusNet, DeliveryTraceDigestsArePinned)
{
    // The exact transaction schedule - request timing, matrix-arbiter
    // grants, way interleaving, broadcast occupancy - pinned through
    // measureLoadPoint on CryoBus 1-way and 2-way at 64 nodes, below
    // and past saturation (1/64 and 2/64 packets/node/cycle). Any
    // change to the bus's cycle-level behaviour moves a digest.
    struct Case
    {
        const char *name;
        int ways;
        TrafficPattern pattern;
        double rate;
        std::uint64_t digest;
    };
    using enum TrafficPattern;
    const Case cases[] = {
        {"1-way uniform low", 1, UniformRandom, 0.008,
         0x3f91e8fcf427c77cull},
        {"1-way uniform sat", 1, UniformRandom, 0.03,
         0x2b711ca71badbd52ull},
        {"1-way hotspot low", 1, Hotspot, 0.008, 0x1cf40a63086f41d0ull},
        {"1-way hotspot sat", 1, Hotspot, 0.03, 0xe9b56f9c56d7815full},
        {"2-way uniform low", 2, UniformRandom, 0.016,
         0xcae5a09b6e8a0227ull},
        {"2-way uniform sat", 2, UniformRandom, 0.06,
         0xe462c64e16eba6c0ull},
        {"2-way hotspot low", 2, Hotspot, 0.016, 0x92e278fb169d729eull},
        {"2-way hotspot sat", 2, Hotspot, 0.06, 0x3e19c0e706289134ull},
    };

    for (const Case &c : cases) {
        MeasureOpts opts;
        opts.warmupCycles = 300;
        opts.measureCycles = 1200;
        TrafficSpec tr;
        tr.pattern = c.pattern;
        tr.injectionRate = c.rate;
        tr.seed = 7;
        const BusTiming t = cryoBusTiming(c.ways);
        const std::uint64_t digest = deliveryTraceDigest(
            [t]() -> std::unique_ptr<Network> {
                return std::make_unique<BusNetwork>(64, t);
            },
            tr, opts);
        EXPECT_EQ(digest, c.digest) << c.name << ": " << digestHex(digest);
    }
}

TEST(BusNet, FromConfigFoldsControlIntoGrant)
{
    Technology tech = Technology::freePdk45();
    cryo::noc::NocDesigner designer{tech};
    const auto cfg = designer.cryoBus();
    const auto t = BusTiming::fromConfig(cfg, 1);
    const auto b = cfg.busBreakdown();
    EXPECT_EQ(t.grantCycles, b.grant + b.control);
    EXPECT_EQ(t.broadcastCycles, b.broadcast);
}

} // namespace
