/**
 * @file
 * Tests for the bus arbiter and the synthetic traffic generators.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "netsim/arbiter.hh"
#include "netsim/traffic.hh"
#include "util/diag.hh"

namespace
{

using namespace cryo::netsim;
using cryo::FatalError;

TEST(MatrixArbiter, SingleRequesterWins)
{
    MatrixArbiter a(4);
    std::vector<bool> req{false, false, true, false};
    EXPECT_EQ(a.arbitrate(req), 2);
}

TEST(MatrixArbiter, NoRequesters)
{
    MatrixArbiter a(4);
    std::vector<bool> req(4, false);
    EXPECT_EQ(a.arbitrate(req), -1);
}

TEST(MatrixArbiter, LeastRecentlyServedFairness)
{
    // Under full contention every requester is served exactly once per
    // n grants.
    const int n = 6;
    MatrixArbiter a(n);
    std::vector<bool> req(n, true);
    std::map<int, int> grants;
    for (int round = 0; round < 10 * n; ++round)
        ++grants[a.arbitrate(req)];
    for (int i = 0; i < n; ++i)
        EXPECT_EQ(grants[i], 10) << "requester " << i;
}

TEST(MatrixArbiter, WinnerDropsToLowestPriority)
{
    MatrixArbiter a(3);
    std::vector<bool> req{true, true, true};
    const int first = a.arbitrate(req);
    // The same requester cannot win again while others still request.
    EXPECT_NE(a.arbitrate(req), first);
}

TEST(MatrixArbiter, BeatsIsTheLeastRecentlyServedOrder)
{
    MatrixArbiter a(3);
    // Lower index first at the start; nobody beats itself.
    EXPECT_TRUE(a.beats(0, 1));
    EXPECT_TRUE(a.beats(1, 2));
    EXPECT_FALSE(a.beats(2, 0));
    for (int i = 0; i < 3; ++i)
        EXPECT_FALSE(a.beats(i, i));
    // A winner drops below everyone, the others keep their order.
    EXPECT_EQ(a.arbitrate({true, true, false}), 0);
    EXPECT_TRUE(a.beats(1, 0));
    EXPECT_TRUE(a.beats(2, 0));
    EXPECT_TRUE(a.beats(1, 2));
    EXPECT_FALSE(a.beats(0, 0));
}

TEST(MatrixArbiter, RejectsSizeMismatch)
{
    MatrixArbiter a(3);
    std::vector<bool> req(4, true);
    EXPECT_THROW(a.arbitrate(req), FatalError);
}

TEST(Traffic, TransposeIsAnInvolution)
{
    TrafficSpec spec;
    spec.pattern = TrafficPattern::Transpose;
    TrafficGenerator gen(64, spec);
    for (int n = 0; n < 64; ++n) {
        const int d = gen.patternDestination(n);
        EXPECT_EQ(gen.patternDestination(d), n);
    }
}

TEST(Traffic, TransposeDiagonalMapsToSelf)
{
    TrafficSpec spec;
    spec.pattern = TrafficPattern::Transpose;
    TrafficGenerator gen(64, spec);
    EXPECT_EQ(gen.patternDestination(0), 0);
    EXPECT_EQ(gen.patternDestination(9), 9); // (1,1)
    EXPECT_EQ(gen.patternDestination(1), 8); // (1,0) -> (0,1)
}

TEST(Traffic, BitReverseIsAnInvolution)
{
    TrafficSpec spec;
    spec.pattern = TrafficPattern::BitReverse;
    TrafficGenerator gen(64, spec);
    for (int n = 0; n < 64; ++n) {
        const int d = gen.patternDestination(n);
        EXPECT_LT(d, 64);
        EXPECT_EQ(gen.patternDestination(d), n);
    }
}

TEST(Traffic, InjectionRateStatistics)
{
    TrafficSpec spec;
    spec.injectionRate = 0.02;
    TrafficGenerator gen(64, spec);
    std::uint64_t total = 0;
    const int cycles = 5000;
    for (int c = 0; c < cycles; ++c)
        total += gen.tick(static_cast<Cycle>(c)).size();
    const double rate = static_cast<double>(total) / cycles / 64.0;
    EXPECT_NEAR(rate, 0.02, 0.002);
}

TEST(Traffic, BurstPreservesAverageRate)
{
    TrafficSpec spec;
    spec.pattern = TrafficPattern::Burst;
    spec.injectionRate = 0.02;
    TrafficGenerator gen(64, spec);
    std::uint64_t total = 0;
    const int cycles = 20000;
    for (int c = 0; c < cycles; ++c)
        total += gen.tick(static_cast<Cycle>(c)).size();
    const double rate = static_cast<double>(total) / cycles / 64.0;
    EXPECT_NEAR(rate, 0.02, 0.004);
}

TEST(Traffic, HotspotFraction)
{
    TrafficSpec spec;
    spec.pattern = TrafficPattern::Hotspot;
    spec.injectionRate = 0.1;
    spec.hotspotNode = 5;
    spec.hotspotFraction = 0.3;
    TrafficGenerator gen(64, spec);
    int to_hotspot = 0, total = 0;
    for (int c = 0; c < 5000; ++c) {
        for (const auto &p : gen.tick(static_cast<Cycle>(c))) {
            ++total;
            if (p.dst == 5)
                ++to_hotspot;
        }
    }
    // 30% directed + ~1/63 of the uniform remainder.
    const double expected = 0.3 + 0.7 / 63.0;
    EXPECT_NEAR(static_cast<double>(to_hotspot) / total, expected, 0.03);
}

TEST(Traffic, NoSelfTraffic)
{
    TrafficSpec spec;
    spec.injectionRate = 0.5;
    TrafficGenerator gen(16, spec);
    for (int c = 0; c < 200; ++c) {
        for (const auto &p : gen.tick(static_cast<Cycle>(c)))
            EXPECT_NE(p.src, p.dst);
    }
}

TEST(Traffic, DeterministicBySeed)
{
    TrafficSpec spec;
    spec.injectionRate = 0.05;
    TrafficGenerator a(64, spec), b(64, spec);
    for (int c = 0; c < 100; ++c) {
        const auto pa = a.tick(static_cast<Cycle>(c));
        const auto pb = b.tick(static_cast<Cycle>(c));
        ASSERT_EQ(pa.size(), pb.size());
        for (std::size_t i = 0; i < pa.size(); ++i) {
            EXPECT_EQ(pa[i].src, pb[i].src);
            EXPECT_EQ(pa[i].dst, pb[i].dst);
        }
    }
}

TEST(Traffic, UniquePacketIds)
{
    TrafficSpec spec;
    spec.injectionRate = 0.2;
    TrafficGenerator gen(64, spec);
    std::map<std::uint64_t, int> seen;
    for (int c = 0; c < 200; ++c) {
        for (const auto &p : gen.tick(static_cast<Cycle>(c))) {
            EXPECT_EQ(seen.count(p.id), 0u);
            EXPECT_NE(p.id, 0u);
            seen[p.id] = 1;
        }
    }
}

TEST(Traffic, RejectsBadSpecs)
{
    TrafficSpec spec;
    spec.hotspotNode = 99;
    EXPECT_THROW(TrafficGenerator(64, spec), FatalError);
    TrafficSpec neg;
    neg.injectionRate = -0.1;
    EXPECT_THROW(TrafficGenerator(64, neg), FatalError);
}

} // namespace
