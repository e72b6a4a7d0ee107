/**
 * @file
 * Tests for the cycle-accurate wormhole router network.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "delivery_trace.hh"
#include "netsim/load_latency.hh"
#include "netsim/router_net.hh"
#include "noc/noc_config.hh"
#include "util/diag.hh"
#include "util/rng.hh"

namespace
{

using namespace cryo::netsim;
using namespace cryo::netsim::pinned;
using cryo::FatalError;
using cryo::tech::Technology;

RouterNetConfig
meshConfig(int router_cycles = 1, double temp = 77.0)
{
    static Technology tech = Technology::freePdk45();
    cryo::noc::NocDesigner designer{tech};
    return RouterNetConfig::fromConfig(
        designer.mesh(temp, router_cycles));
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

TEST(RouterNet, DeliversToTheRightNode)
{
    RouterNetwork net(meshConfig());
    net.inject(makePacket(1, 0, 63, 5));
    for (int c = 0; c < 200 && net.delivered().empty(); ++c)
        net.step();
    ASSERT_EQ(net.delivered().size(), 1u);
    EXPECT_EQ(net.delivered()[0].dst, 63);
    EXPECT_EQ(net.delivered()[0].src, 0);
}

TEST(RouterNet, CornerToCornerLatencySane)
{
    // 0 -> 63 on the 8x8 mesh: 14 hops, 15 routers. With 1-cycle
    // routers and sub-cycle links, the head needs >= 15 cycles plus
    // the NI; the tail adds flits - 1.
    RouterNetwork net(meshConfig(1));
    net.inject(makePacket(1, 0, 63, 1));
    for (int c = 0; c < 200 && net.delivered().empty(); ++c)
        net.step();
    ASSERT_EQ(net.delivered().size(), 1u);
    const auto lat = net.delivered()[0].latency();
    EXPECT_GE(lat, 15u);
    EXPECT_LE(lat, 35u);
}

TEST(RouterNet, RouterPipelineDepthAddsLatency)
{
    auto latency = [](int cycles) {
        RouterNetwork net(meshConfig(cycles));
        net.inject(makePacket(1, 0, 63, 1));
        for (int c = 0; c < 400 && net.delivered().empty(); ++c)
            net.step();
        return net.delivered()[0].latency();
    };
    const auto l1 = latency(1);
    const auto l3 = latency(3);
    // 15 routers at +2 cycles each.
    EXPECT_NEAR(static_cast<double>(l3 - l1), 30.0, 4.0);
}

TEST(RouterNet, LocalDeliveryWithinRouter)
{
    // CMesh: two cores on the same router never cross a link.
    static Technology tech = Technology::freePdk45();
    cryo::noc::NocDesigner designer{tech};
    RouterNetwork net(
        RouterNetConfig::fromConfig(designer.cmesh(77.0, 1)));
    net.inject(makePacket(1, 0, 1, 1)); // both on router 0
    for (int c = 0; c < 50 && net.delivered().empty(); ++c)
        net.step();
    ASSERT_EQ(net.delivered().size(), 1u);
    EXPECT_LE(net.delivered()[0].latency(), 4u);
}

TEST(RouterNet, WormholeKeepsPacketContiguous)
{
    // Two multi-flit packets to the same destination must not corrupt
    // each other; both arrive complete.
    RouterNetwork net(meshConfig());
    net.inject(makePacket(1, 0, 60, 5));
    net.inject(makePacket(2, 7, 60, 5));
    int done = 0;
    for (int c = 0; c < 400 && done < 2; ++c) {
        net.step();
        done += static_cast<int>(net.drainDelivered().size());
    }
    EXPECT_EQ(done, 2);
}

TEST(RouterNet, SameFlowStaysOrdered)
{
    // Deterministic XY routing: packets of one src-dst flow arrive in
    // injection order.
    RouterNetwork net(meshConfig());
    for (std::uint64_t i = 1; i <= 8; ++i)
        net.inject(makePacket(i, 3, 44, 2));
    std::vector<std::uint64_t> order;
    for (int c = 0; c < 600 && order.size() < 8; ++c) {
        net.step();
        for (const auto &p : net.drainDelivered())
            order.push_back(p.id);
    }
    ASSERT_EQ(order.size(), 8u);
    for (std::uint64_t i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i + 1);
}

TEST(RouterNet, DrainsUnderHeavyRandomLoad)
{
    // Deadlock-freedom smoke test: saturating random traffic, then
    // stop injecting - everything must eventually drain.
    RouterNetwork net(meshConfig());
    cryo::Rng rng(42);
    std::uint64_t id = 1;
    for (int c = 0; c < 500; ++c) {
        for (int n = 0; n < 64; ++n) {
            if (rng.chance(0.5)) {
                int dst = static_cast<int>(rng.below(63));
                if (dst >= n)
                    ++dst;
                net.inject(makePacket(id++, n, dst, 3));
            }
        }
        net.step();
        net.delivered().clear();
    }
    for (int c = 0; c < 20000 && net.inFlight() > 0; ++c) {
        net.step();
        net.delivered().clear();
    }
    EXPECT_EQ(net.inFlight(), 0u);
}

TEST(RouterNet, ButterflyTwoHopProperty)
{
    static Technology tech = Technology::freePdk45();
    cryo::noc::NocDesigner designer{tech};
    RouterNetwork net(RouterNetConfig::fromConfig(
        designer.flattenedButterfly(77.0, 1)));
    // Opposite corners: row express + column express only.
    net.inject(makePacket(1, 0, 63, 1));
    for (int c = 0; c < 100 && net.delivered().empty(); ++c)
        net.step();
    ASSERT_EQ(net.delivered().size(), 1u);
    // 3 routers + 2 express links (each <= 1 cycle at 77 K) + NI.
    EXPECT_LE(net.delivered()[0].latency(), 12u);
}

TEST(RouterNet, AllPacketsAccountedUnderLoad)
{
    RouterNetwork net(meshConfig());
    std::map<std::uint64_t, bool> outstanding;
    cryo::Rng rng(7);
    std::uint64_t id = 1;
    std::size_t delivered = 0;
    for (int c = 0; c < 3000; ++c) {
        for (int n = 0; n < 64; ++n) {
            if (rng.chance(0.05)) {
                int dst = static_cast<int>(rng.below(63));
                if (dst >= n)
                    ++dst;
                outstanding[id] = true;
                net.inject(makePacket(id++, n, dst, 1));
            }
        }
        net.step();
        for (const auto &p : net.drainDelivered()) {
            ASSERT_TRUE(outstanding[p.id]);
            outstanding.erase(p.id);
            ++delivered;
        }
    }
    EXPECT_GT(delivered, 8000u);
    EXPECT_EQ(outstanding.size(), net.inFlight());
}

TEST(RouterNet, SaturationOrderingAcrossTopologies)
{
    // FB's express links buy it more bandwidth than the mesh, which in
    // turn beats the concentrated mesh (fewer channels).
    static Technology tech = Technology::freePdk45();
    cryo::noc::NocDesigner designer{tech};
    TrafficSpec tr;
    MeasureOpts fast;
    fast.warmupCycles = 1000;
    fast.measureCycles = 3000;
    auto sat = [&](const cryo::noc::NocConfig &cfg) {
        return saturationRate(
            [cfg]() -> std::unique_ptr<Network> {
                return std::make_unique<RouterNetwork>(
                    RouterNetConfig::fromConfig(cfg));
            },
            tr, 0.995, 0.01, fast);
    };
    const double mesh = sat(designer.mesh(77.0, 1));
    const double cmesh = sat(designer.cmesh(77.0, 1));
    const double fb = sat(designer.flattenedButterfly(77.0, 1));
    EXPECT_GT(fb, mesh);
    EXPECT_GT(mesh, cmesh);
}

TEST(RouterNet, RejectsBadPackets)
{
    RouterNetwork net(meshConfig());
    EXPECT_THROW(net.inject(makePacket(0, 0, 5)), FatalError); // id 0
    EXPECT_THROW(net.inject(makePacket(1, -1, 5)), FatalError);
    EXPECT_THROW(net.inject(makePacket(1, 0, 64)), FatalError);
    EXPECT_THROW(net.inject(makePacket(1, 0, 5, 0)), FatalError);
    EXPECT_THROW(net.inject(makePacket(1, 0, 5, -2)), FatalError);
    // An id may not be reused while its packet is in flight.
    net.inject(makePacket(7, 0, 5));
    EXPECT_THROW(net.inject(makePacket(7, 3, 9)), FatalError);
    EXPECT_EQ(net.inFlight(), 1u);
    for (int c = 0; c < 100 && net.delivered().empty(); ++c)
        net.step();
    ASSERT_EQ(net.delivered().size(), 1u);
    EXPECT_EQ(net.delivered()[0].dst, 5);
    net.inject(makePacket(7, 3, 9)); // delivered ids are free again
}

TEST(RouterNet, DeliveryTraceDigestsArePinned)
{
    // The exact flit schedule - arbitration order, wormhole locks,
    // credits - pinned through measureLoadPoint's request/response
    // loop, once below and once past saturation per configuration.
    // Any change to the router's cycle-level behaviour moves a digest.
    // The cases after the first twelve are configurations no figure
    // uses but the router's storage must survive: 1-flit VC buffers,
    // a 5-cycle router pipeline, 16-flit responses (also on FB-256 at
    // 8 VCs, whose 116 input queues per router take two words of
    // candidate bits), and 16 cores per router.
    static Technology tech = Technology::freePdk45();
    const cryo::noc::NocDesigner d64{tech, 64};
    const cryo::noc::NocDesigner d256{tech, 256};
    const RouterNetConfig mesh64 =
        RouterNetConfig::fromConfig(d64.mesh(77.0, 1));
    const RouterNetConfig cmesh64 =
        RouterNetConfig::fromConfig(d64.cmesh(77.0, 3));
    const RouterNetConfig fb64 =
        RouterNetConfig::fromConfig(d64.flattenedButterfly(77.0, 3));
    const RouterNetConfig mesh256 =
        RouterNetConfig::fromConfig(d256.mesh(77.0, 1));
    const RouterNetConfig fb256 =
        RouterNetConfig::fromConfig(d256.flattenedButterfly(77.0, 3));
    RouterNetConfig fb256_8vc = fb256;
    fb256_8vc.virtualChannels = 8;
    RouterNetConfig mesh64_1flit = mesh64;
    mesh64_1flit.vcBufferFlits = 1;
    RouterNetConfig cmesh64_5c = cmesh64;
    cmesh64_5c.routerCycles = 5;
    RouterNetConfig cmesh256_c16 =
        RouterNetConfig::fromConfig(d256.cmesh(77.0, 3));
    cmesh256_c16.concentration = 16;

    struct Case
    {
        const char *name;
        RouterNetConfig cfg;
        TrafficPattern pattern;
        double rate;
        std::uint64_t digest;
        int responseFlits = 5;
    };
    using enum TrafficPattern;
    const Case cases[] = {
        {"mesh64-1c low", mesh64, UniformRandom, 0.01,
         0x255240c1f9b63d8cull},
        {"mesh64-1c sat", mesh64, Transpose, 0.2,
         0xcbafcc2cf2c8cf22ull},
        {"cmesh64-3c low", cmesh64, Hotspot, 0.01,
         0xf0fb7215ac4b8ecdull},
        {"cmesh64-3c sat", cmesh64, BitReverse, 0.2,
         0x30fbc3d001ed0219ull},
        {"fb64-3c low", fb64, UniformRandom, 0.02,
         0x39fd4ac16f74735cull},
        {"fb64-3c sat", fb64, Hotspot, 0.3,
         0x7b6c2da40d9df2a7ull},
        {"mesh256-1c low", mesh256, UniformRandom, 0.005,
         0x4eaa8269a75ed51eull},
        {"mesh256-1c sat", mesh256, Burst, 0.1,
         0xab67c43495fedd6dull},
        {"fb256-3c low", fb256, Transpose, 0.01,
         0x8b5929d7bd1a8e49ull},
        {"fb256-3c sat", fb256, Hotspot, 0.3,
         0xabf202ec4a2f73a3ull},
        {"fb256-3c-8vc low", fb256_8vc, UniformRandom, 0.01,
         0xe6374519196068fcull},
        {"fb256-3c-8vc sat", fb256_8vc, BitReverse, 0.3,
         0x519df64610ddabeaull},
        {"mesh64-1c-1flit low", mesh64_1flit, UniformRandom, 0.01,
         0x59bf671af511a4e7ull},
        {"mesh64-1c-1flit sat", mesh64_1flit, Hotspot, 0.15,
         0xbb55b255ec248ef7ull},
        {"cmesh64-5c low", cmesh64_5c, Transpose, 0.01,
         0xb74b7f0fa1707913ull},
        {"cmesh64-5c sat", cmesh64_5c, UniformRandom, 0.2,
         0xe26b6e66a2b30313ull},
        {"fb64-3c-16flit low", fb64, UniformRandom, 0.005,
         0x0a5d790c3bcce724ull, 16},
        {"fb64-3c-16flit sat", fb64, BitReverse, 0.1,
         0xda480337c2e91290ull, 16},
        {"cmesh256-3c-c16 low", cmesh256_c16, UniformRandom, 0.003,
         0x5272a39756f764b9ull},
        {"cmesh256-3c-c16 sat", cmesh256_c16, Burst, 0.05,
         0x9e942468eb764f59ull},
        {"fb256-3c-8vc-16flit sat", fb256_8vc, UniformRandom, 0.1,
         0x87372694c9c7b3e0ull, 16},
    };

    for (const Case &c : cases) {
        // 256-node cases get a shorter window: a few hundred cycles
        // past saturation already back up every queue.
        MeasureOpts opts;
        opts.warmupCycles = c.cfg.cores > 64 ? 100 : 300;
        opts.measureCycles = c.cfg.cores > 64 ? 500 : 1200;
        TrafficSpec tr;
        tr.pattern = c.pattern;
        tr.injectionRate = c.rate;
        tr.responseFlits = c.responseFlits;
        tr.seed = 7;
        const RouterNetConfig cfg = c.cfg;
        const std::uint64_t digest = deliveryTraceDigest(
            [cfg]() -> std::unique_ptr<Network> {
                return std::make_unique<RouterNetwork>(cfg);
            },
            tr, opts);
        EXPECT_EQ(digest, c.digest) << c.name << ": " << digestHex(digest);
    }
}

TEST(RouterNet, RejectsUnsupportedTopology)
{
    RouterNetConfig cfg = meshConfig();
    cfg.kind = cryo::noc::TopologyKind::SharedBus;
    EXPECT_THROW(RouterNetwork{cfg}, FatalError);
}

TEST(RouterNet, RejectsMoreVcsThanAFlitCanName)
{
    // A flit stores its VC in 16 bits.
    RouterNetConfig cfg = meshConfig();
    cfg.virtualChannels = 65536;
    EXPECT_THROW(RouterNetwork{cfg}, FatalError);
}

} // namespace
