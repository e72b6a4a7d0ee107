/**
 * @file
 * Tests for the workload suite, the interval simulator, and the
 * system builder/evaluator - the Figs 3/17/23/24 properties.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/system_builder.hh"
#include "sys/interval_sim.hh"
#include "pipeline/stage_library.hh"
#include "pipeline/superpipeline.hh"
#include "sys/workload.hh"
#include "util/diag.hh"

#include "design_equality.hh"

namespace
{

using namespace cryo::sys;
using namespace cryo::core;
using cryo::FatalError;
using cryo::tech::Technology;

TEST(Workloads, ParsecSuiteComplete)
{
    const auto suite = parsec21();
    EXPECT_EQ(suite.size(), 13u);
    for (const auto &w : suite) {
        EXPECT_GT(w.cpiCore, 0.0) << w.name;
        EXPECT_GT(w.l3Apki, 0.0) << w.name;
        EXPECT_GE(w.cohPki, 0.0) << w.name;
        EXPECT_GT(w.mlp, 0.0) << w.name;
        EXPECT_GE(w.l2Apki, w.l3Apki) << w.name;
        EXPECT_GE(w.l3Apki, w.dramApki) << w.name;
    }
    EXPECT_EQ(findWorkload(suite, "streamcluster").name,
              "streamcluster");
    EXPECT_THROW(findWorkload(suite, "doom"), FatalError);
}

TEST(Workloads, StreamclusterIsBarrierDominated)
{
    const auto suite = parsec21();
    const auto &sc = findWorkload(suite, "streamcluster");
    for (const auto &w : suite) {
        if (w.name != "streamcluster") {
            EXPECT_GT(sc.syncPki, w.syncPki) << w.name;
        }
    }
}

TEST(Workloads, SpecSuiteHasThePaperContenders)
{
    const auto suite = specRateAggressivePrefetch();
    EXPECT_GE(suite.size(), 16u);
    // The four bus-contention victims of Fig. 24 carry the heaviest
    // prefetch traffic.
    for (const char *name :
         {"cactusADM", "gcc", "xalancbmk", "libquantum"}) {
        EXPECT_GE(findWorkload(suite, name).prefetchApki, 10.0) << name;
    }
    for (const auto &w : suite)
        EXPECT_DOUBLE_EQ(w.syncPki, 0.0) << w.name; // rate mode
}

TEST(Workloads, InjectionBandsOrdered)
{
    const auto bands = injectionBands();
    ASSERT_EQ(bands.size(), 4u);
    for (const auto &b : bands)
        EXPECT_LT(b.lo, b.hi) << b.suite;
    // PARSEC is the lightest suite; CloudSuite the heaviest.
    EXPECT_LT(bands[0].hi, bands[3].hi);
}

class SystemTest : public ::testing::Test
{
  protected:
    Technology tech = Technology::freePdk45();
    SystemBuilder builder{tech};
    IntervalSimulator sim;
    std::vector<Workload> parsec = parsec21();
};

TEST_F(SystemTest, SaturationRatesMatchStructure)
{
    // CryoBus: one grant per cycle across 64 cores.
    EXPECT_NEAR(IntervalSimulator::saturationTxRate(
                    builder.nocs().cryoBus(), 1),
                1.0 / 64.0, 1e-9);
    // Interleaving doubles it.
    EXPECT_NEAR(IntervalSimulator::saturationTxRate(
                    builder.nocs().cryoBus(), 2),
                2.0 / 64.0, 1e-9);
    // The 77 K shared bus pays its 3-cycle occupancy.
    EXPECT_NEAR(IntervalSimulator::saturationTxRate(
                    builder.nocs().sharedBus77(), 1),
                1.0 / (3.0 * 64.0), 1e-9);
    // The mesh's bisection bound sits well above the single bus.
    EXPECT_GT(IntervalSimulator::saturationTxRate(
                  builder.nocs().mesh77(), 1),
              2.0 / 64.0);
}

TEST_F(SystemTest, Fig3NocShareAverages)
{
    // Fig. 3: the NoC takes ~45.6% of CPI on average (max 76.6%) on
    // the 300 K 64-core baseline.
    const auto base = builder.baseline300Mesh();
    double sum = 0.0, mx = 0.0;
    for (const auto &w : parsec) {
        const double share = sim.run(base, w).stack.nocShare();
        sum += share;
        mx = std::max(mx, share);
    }
    EXPECT_NEAR(sum / static_cast<double>(parsec.size()), 0.456, 0.06);
    EXPECT_GT(mx, 0.70);
}

TEST_F(SystemTest, Fig17BusBeatsMeshAt77K)
{
    // Fig. 17: vs the ideal NoC, the 77 K mesh loses ~43% while the
    // 77 K shared bus loses under ~20%.
    const auto ideal = builder.idealNoc77();
    const auto mesh = builder.chpMesh77();
    const auto bus = builder.sharedBus77();
    double mesh_rel = 0.0, bus_rel = 0.0;
    for (const auto &w : parsec) {
        const double t_ideal = sim.run(ideal, w).timePerInstr;
        mesh_rel += t_ideal / sim.run(mesh, w).timePerInstr;
        bus_rel += t_ideal / sim.run(bus, w).timePerInstr;
    }
    mesh_rel /= static_cast<double>(parsec.size());
    bus_rel /= static_cast<double>(parsec.size());
    EXPECT_NEAR(mesh_rel, 0.567, 0.08);
    EXPECT_GT(bus_rel, 0.75);
    EXPECT_GT(bus_rel, mesh_rel + 0.2);
}

TEST_F(SystemTest, Fig23HeadlineSpeedups)
{
    // The paper's headline numbers, within model tolerance:
    // CryoSP+CryoBus = 2.53x over CHP+Mesh and 3.82x over 300 K.
    const auto chp_mesh = builder.chpMesh77();
    const auto best = builder.cryoSpCryoBus77();
    const auto base300 = builder.baseline300Mesh();
    const double vs_chp = sim.meanSpeedup(best, chp_mesh, parsec);
    const double vs_300 = sim.meanSpeedup(best, base300, parsec);
    EXPECT_NEAR(vs_chp, 2.53, 0.25);
    EXPECT_NEAR(vs_300, 3.82, 0.45);
    // meanSpeedup reads the speed-up table, bit for bit.
    EXPECT_EQ(vs_chp, sim.speedups({chp_mesh, best}, parsec, 0).mean[1]);
}

TEST_F(SystemTest, Fig23DesignOrdering)
{
    // For every workload: adding CryoSP or CryoBus never hurts, and
    // the combination is the best design.
    const auto designs = builder.table4Systems();
    for (const auto &w : parsec) {
        const double base = sim.run(designs[0], w).timePerInstr;
        const double chp_mesh = sim.run(designs[1], w).timePerInstr;
        const double sp_mesh = sim.run(designs[2], w).timePerInstr;
        const double chp_cb = sim.run(designs[3], w).timePerInstr;
        const double sp_cb = sim.run(designs[4], w).timePerInstr;
        EXPECT_LT(chp_mesh, base) << w.name;
        EXPECT_LT(sp_mesh, chp_mesh) << w.name;
        EXPECT_LT(chp_cb, chp_mesh) << w.name;
        EXPECT_LE(sp_cb, chp_cb * 1.0001) << w.name;
        EXPECT_LE(sp_cb, sp_mesh) << w.name;
    }
}

TEST_F(SystemTest, StreamclusterGainsMostFromCryoBus)
{
    const auto chp_mesh = builder.chpMesh77();
    const auto chp_cb = builder.chpCryoBus77();
    double best_gain = 0.0;
    std::string best_name;
    for (const auto &w : parsec) {
        const double gain = sim.speedup(chp_cb, chp_mesh, w);
        if (gain > best_gain) {
            best_gain = gain;
            best_name = w.name;
        }
    }
    EXPECT_EQ(best_name, "streamcluster");
    EXPECT_NEAR(best_gain, 4.63, 0.6);
}

TEST_F(SystemTest, MemoryBoundWorkloadsGainLeastFromCryoSP)
{
    // bodytrack and x264 show the smallest CryoSP gains (Sec 6.2).
    const auto chp = builder.chpMesh77();
    const auto sp = builder.cryoSpMesh77();
    const double body =
        sim.speedup(sp, chp, findWorkload(parsec, "bodytrack"));
    const double black =
        sim.speedup(sp, chp, findWorkload(parsec, "blackscholes"));
    EXPECT_LT(body, black);
    EXPECT_GT(body, 1.0);
}

TEST_F(SystemTest, SynergyOfCoreAndBus)
{
    // Sec 6.2: for some workloads the combined gain exceeds the sum of
    // the individual gains.
    const auto chp_mesh = builder.chpMesh77();
    const auto &w = findWorkload(parsec, "streamcluster");
    const double g_sp =
        sim.speedup(builder.cryoSpMesh77(), chp_mesh, w) - 1.0;
    const double g_cb =
        sim.speedup(builder.chpCryoBus77(), chp_mesh, w) - 1.0;
    const double g_both =
        sim.speedup(builder.cryoSpCryoBus77(), chp_mesh, w) - 1.0;
    EXPECT_GT(g_both, g_sp + g_cb);
}

TEST_F(SystemTest, Fig24ContentionAndInterleaving)
{
    const auto spec = specRateAggressivePrefetch();
    const auto base = builder.baseline300Mesh();
    const auto one_way = builder.cryoSpCryoBus77(1);
    const auto two_way = builder.cryoSpCryoBus77(2);
    for (const char *name :
         {"gcc", "cactusADM", "libquantum", "xalancbmk"}) {
        const auto &w = findWorkload(spec, name);
        const double s1 = sim.speedup(one_way, base, w);
        const double s2 = sim.speedup(two_way, base, w);
        // The contended workloads saturate the 1-way bus and recover
        // with 2-way interleaving (Sec 7.1).
        EXPECT_GT(s2, 1.2 * s1) << name;
        EXPECT_TRUE(sim.run(one_way, w).saturated) << name;
        EXPECT_FALSE(sim.run(two_way, w).saturated) << name;
    }
    // 2-way is the best design for every workload.
    for (const auto &w : spec) {
        EXPECT_GE(sim.speedup(two_way, base, w) + 1e-9,
                  sim.speedup(one_way, base, w))
            << w.name;
    }
}

TEST_F(SystemTest, PrefetchTrafficLoadsButDoesNotStall)
{
    // Prefetches only matter through contention: at low rates they are
    // free, at high rates they saturate the bus.
    Workload w = findWorkload(specRateAggressivePrefetch(), "namd");
    const auto design = builder.cryoSpCryoBus77();
    const double base_time = sim.run(design, w).timePerInstr;
    w.prefetchApki = 0.0;
    const double no_pf = sim.run(design, w).timePerInstr;
    EXPECT_NEAR(base_time / no_pf, 1.0, 0.05);
}

TEST_F(SystemTest, StackComponentsAddUp)
{
    const auto design = builder.chpMesh77();
    for (const auto &w : parsec) {
        const auto r = sim.run(design, w);
        EXPECT_NEAR(r.stack.total(), r.timePerInstr,
                    1e-9 * r.timePerInstr)
            << w.name;
    }
}

TEST_F(SystemTest, IdealNocIsAnUpperBound)
{
    const auto ideal = builder.idealNoc77();
    const auto real = builder.chpCryoBus77();
    for (const auto &w : parsec) {
        EXPECT_LE(sim.run(ideal, w).timePerInstr,
                  sim.run(real, w).timePerInstr)
            << w.name;
    }
}

TEST_F(SystemTest, TemperatureSweepEndpoints)
{
    const auto cold = builder.atTemperature(77.0);
    EXPECT_NEAR(cold.core.frequency,
                builder.cryoSpCryoBus77().core.frequency, 1e3);
    const auto hot = builder.atTemperature(300.0);
    EXPECT_LT(hot.core.frequency, cold.core.frequency);
    EXPECT_THROW(builder.atTemperature(50.0), FatalError);
}

TEST_F(SystemTest, PerformanceMonotoneInTemperature)
{
    const auto &w = findWorkload(parsec, "canneal");
    double prev = 0.0;
    for (double t : {300.0, 250.0, 200.0, 150.0, 100.0, 77.0}) {
        const double perf = sim.run(builder.atTemperature(t), w).perf();
        EXPECT_GT(perf, prev) << t;
        prev = perf;
    }
}

TEST_F(SystemTest, IntervalSuiteMatchesPerWorkloadRuns)
{
    // runSuite derives the design's invariants once for the suite;
    // every result must equal a per-workload run() bit for bit.
    const auto design = builder.cryoSpCryoBus77();
    const auto results = sim.runSuite(design, parsec);
    ASSERT_EQ(results.size(), parsec.size());
    for (std::size_t i = 0; i < parsec.size(); ++i) {
        const auto scalar = sim.run(design, parsec[i]);
        EXPECT_EQ(results[i].timePerInstr, scalar.timePerInstr) << i;
        EXPECT_EQ(results[i].utilization, scalar.utilization) << i;
        EXPECT_EQ(results[i].saturated, scalar.saturated) << i;
        EXPECT_EQ(results[i].converged, scalar.converged) << i;
        EXPECT_EQ(results[i].stack.total(), scalar.stack.total()) << i;
    }
}

TEST_F(SystemTest, SpeedupsNormalizeToBaselineColumn)
{
    const auto res = sim.speedups(builder.table4Systems(), parsec, 1);
    ASSERT_EQ(res.mean.size(), 5u);
    ASSERT_EQ(res.perf.size(), 13u);
    // Column 1 (CHP-core 77K Mesh) is the Fig.-23 normalization.
    for (std::size_t wi = 0; wi < res.perf.size(); ++wi) {
        ASSERT_EQ(res.perf[wi].size(), 5u);
        EXPECT_NEAR(res.perf[wi][1], 1.0, 1e-9);
    }
    EXPECT_NEAR(res.mean[1], 1.0, 1e-9);
    // The full design is the best on average.
    EXPECT_GT(res.mean[4], res.mean[3]);
    EXPECT_GT(res.mean[3], res.mean[2]);
    // No baseline column, or no workload to average over.
    EXPECT_THROW(sim.speedups(builder.table4Systems(), parsec, 5),
                 FatalError);
    EXPECT_THROW(sim.speedups(builder.table4Systems(), {}, 1), FatalError);
}

TEST(Workloads, CloudSuiteIsTheHeaviestBand)
{
    // The CloudSuite models must land inside the Fig.-18 band they
    // define, and stress the interconnect harder than PARSEC.
    const auto cloud = cloudSuite();
    EXPECT_GE(cloud.size(), 6u);
    double parsec_max_l3 = 0.0;
    for (const auto &w : parsec21())
        parsec_max_l3 = std::max(parsec_max_l3, w.l3Apki);
    double cloud_min_l3 = 1e9;
    for (const auto &w : cloud) {
        cloud_min_l3 = std::min(cloud_min_l3, w.l3Apki);
        EXPECT_GT(w.cohPki, 0.0) << w.name; // shared-state services
    }
    EXPECT_GT(cloud_min_l3, parsec_max_l3);
}

TEST_F(SystemTest, CloudSuiteSaturatesOneWayCryoBus)
{
    // The heaviest band exceeds a single bus's 1/64 grant bound; 4-way
    // interleaving restores headroom (Section 7.1 applied to servers).
    const auto one_way = builder.cryoSpCryoBus77(1);
    const auto four_way = builder.cryoSpCryoBus77(4);
    int saturated = 0;
    for (const auto &w : cloudSuite()) {
        if (sim.run(one_way, w).saturated)
            ++saturated;
        EXPECT_GE(sim.speedup(four_way, one_way, w), 1.0 - 1e-9)
            << w.name;
    }
    EXPECT_GE(saturated, 3);
}

TEST_F(SystemTest, CloudSuiteStillBeatsTheBaseline)
{
    // Even saturated, the cryogenic system outruns the 300 K machine.
    const auto base = builder.baseline300Mesh();
    const auto two_way = builder.cryoSpCryoBus77(2);
    for (const auto &w : cloudSuite())
        EXPECT_GT(sim.speedup(two_way, base, w), 1.0) << w.name;
}

TEST(FloorplanScaling, ShorterForwardingWiresGainLessFromCooling)
{
    // The ablation behind bench_ablation_floorplan: a halved floorplan
    // shortens the forwarding wires, which makes them driver-limited
    // and *less* responsive to cooling - the bypass target rises a
    // little and the superpipelined clock dips a few percent. This is
    // consistent with Table 3 keeping 6.4 GHz for the down-sized
    // CryoCore machine instead of re-deriving a higher clock.
    Technology tech = Technology::freePdk45();
    const auto stages = cryo::pipeline::boomSkylakeStages();
    const cryo::pipeline::Floorplan full =
        cryo::pipeline::Floorplan::skylakeLike();
    const cryo::pipeline::Floorplan half = full.scaled(0.5);
    cryo::pipeline::CriticalPathModel m_full{tech, full};
    cryo::pipeline::CriticalPathModel m_half{tech, half};
    cryo::pipeline::Superpipeliner sp_full{m_full};
    cryo::pipeline::Superpipeliner sp_half{m_half};
    const auto p_full = sp_full.plan(stages, cryo::constants::ln2Temp);
    const auto p_half = sp_half.plan(stages, cryo::constants::ln2Temp);
    EXPECT_GT(p_half.targetLatency, p_full.targetLatency);
    const double f_full =
        m_full.frequency(p_full.result, cryo::constants::ln2Temp).value();
    const double f_half =
        m_half.frequency(p_half.result, cryo::constants::ln2Temp).value();
    EXPECT_LT(f_half, f_full);
    EXPECT_GT(f_half, 0.95 * f_full); // a few percent, not a collapse
}

/**
 * atTemperature as it was composed before it built only what it
 * returns: the whole 77 K CryoSP + CryoBus system (CHP core, 77 K
 * mesh and memory included), then the temperature overrides.
 */
SystemDesign
composedAtTemperature(const SystemBuilder &builder, double temp_k)
{
    SystemDesign d = builder.cryoSpCryoBus77();
    d.name = "CryoSP+CryoBus @" + std::to_string(
        static_cast<int>(temp_k)) + "K";
    const double f = (300.0 - temp_k) / (300.0 - 77.0);
    cryo::tech::VoltagePoint v{1.25 + f * (0.64 - 1.25),
                               0.47 + f * (0.25 - 0.47)};
    d.core.tempK = temp_k;
    d.core.voltage = v;
    d.core.frequency =
        builder.cores()
            .model()
            .frequency(d.core.stages, cryo::units::Kelvin{temp_k}, v)
            .value();
    d.noc = builder.nocs().cryoBusAt(temp_k);
    d.mem = cryo::mem::MemTiming::atTemperature(temp_k);
    return d;
}

TEST(TemperatureSweep, AtTemperatureMatchesTheFullComposition)
{
    // One builder serves every temperature, so its CryoSP memo is
    // filled by the first call and read by the rest; each reference
    // comes from a fresh builder that designs everything anew.
    const Technology tech = Technology::freePdk45();
    for (const double scale : {1.0, 0.85}) {
        const auto floorplan =
            cryo::pipeline::Floorplan::skylakeLike().scaled(scale);
        const SystemBuilder builder{tech, 64, floorplan};
        for (const double t : {77.0, 120.5, 188.5, 250.0, 300.0}) {
            const SystemBuilder fresh{tech, 64, floorplan};
            cryo::test::expectSameSystem(
                builder.atTemperature(t), composedAtTemperature(fresh, t),
                "floorplan x" + std::to_string(scale) + " @ " +
                    std::to_string(t) + " K");
        }
    }
}

} // namespace
