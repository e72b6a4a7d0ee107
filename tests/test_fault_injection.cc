/**
 * @file
 * Fault-injection harness: perturb every config family with NaN, Inf,
 * negative, zero, and out-of-window values and assert that the model
 * stack rejects each with a typed cryo::FatalError carrying a
 * non-empty context chain - never an abort, a NaN metric, or a silent
 * success. This is the executable form of the error-handling contract
 * in DESIGN.md.
 */

#include <gtest/gtest.h>

#include <limits>
#include <memory>

#include "mem/memory_system.hh"
#include "netsim/bus_net.hh"
#include "netsim/load_latency.hh"
#include "netsim/traffic.hh"
#include "noc/noc_config.hh"
#include "pipeline/core_config.hh"
#include "pipeline/floorplan.hh"
#include "power/cooling.hh"
#include "core/voltage_optimizer.hh"
#include "sys/interval_sim.hh"
#include "sys/workload.hh"
#include "tech/material.hh"
#include "tech/mosfet.hh"
#include "tech/technology.hh"
#include "tech/wire_geometry.hh"
#include "util/diag.hh"
#include "util/validate.hh"

namespace
{

using namespace cryo;
using namespace cryo::units;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/**
 * The contract every injection must satisfy: a typed FatalError whose
 * context chain names where the bad value entered the stack.
 */
template <typename Fn>
void
expectFatalWithContext(Fn &&fn, const char *what)
{
    try {
        fn();
        ADD_FAILURE() << what << ": expected FatalError, got success";
    } catch (const FatalError &e) {
        EXPECT_FALSE(e.message().empty()) << what;
        EXPECT_FALSE(e.context().empty())
            << what << ": context chain must not be empty";
    } catch (const std::exception &e) {
        ADD_FAILURE() << what << ": wrong exception type: " << e.what();
    }
}

const tech::Technology &
sharedTech()
{
    static tech::Technology tech = tech::Technology::freePdk45();
    return tech;
}

// --- Device model ------------------------------------------------------

TEST(FaultInjection, MosfetParams)
{
    const auto inject = [](auto &&mutate, const char *what) {
        tech::MosfetParams p;
        mutate(p);
        expectFatalWithContext([&] { tech::Mosfet m{p}; }, what);
    };
    inject([](auto &p) { p.nominal.vdd = kNaN; }, "NaN vdd");
    inject([](auto &p) { p.nominal.vdd = -1.0; }, "negative vdd");
    inject([](auto &p) { p.nominal = {0.4, 0.5}; }, "vdd below vth");
    inject([](auto &p) { p.alpha = kInf; }, "Inf alpha");
    inject([](auto &p) { p.alpha = -0.5; }, "negative alpha");
    inject([](auto &p) { p.subthresholdN = 0.0; }, "zero ideality");
    inject([](auto &p) { p.dibl = 1.5; }, "extreme DIBL");
    inject([](auto &p) { p.unitResistance300 = Ohm{-1.0}; },
           "negative unit resistance");
    inject([](auto &p) { p.unitGateCap = Farad{0.0}; },
           "zero gate cap");
    inject([](auto &p) { p.driveGainAnchors.clear(); },
           "truncated anchor sweep");
    inject([](auto &p) { p.driveGainAnchors.resize(1); },
           "single-point anchor sweep");
    inject([](auto &p) { std::swap(p.driveGainAnchors.front(),
                                   p.driveGainAnchors.back()); },
           "unsorted anchors");
    inject([](auto &p) { p.driveGainAnchors[0].second = kNaN; },
           "NaN anchor gain");
}

TEST(FaultInjection, MosfetDomainQueries)
{
    const tech::Mosfet m;
    expectFatalWithContext([&] { m.driveGain(Kelvin{1.0}); },
                           "below-window temperature");
    expectFatalWithContext([&] { m.driveGain(Kelvin{450.0}); },
                           "above-window temperature");
    expectFatalWithContext(
        [&] { m.delayFactor(Kelvin{77.0}, {0.3, 0.5}); },
        "vdd below vth at query time");
}

TEST(FaultInjection, ConductorAnchors)
{
    expectFatalWithContext(
        [] { tech::Conductor c{OhmMetre{-1e-8}, OhmMetre{1e-8}}; },
        "negative 300 K resistivity");
    expectFatalWithContext(
        [] { tech::Conductor c{OhmMetre{1e-8}, OhmMetre{2e-8}}; },
        "77 K anchor above the 300 K anchor");
    expectFatalWithContext(
        [] { tech::Conductor c{OhmMetre{3e-8}, OhmMetre{kNaN}}; },
        "NaN 77 K anchor");
    const tech::Conductor ok{OhmMetre{3e-8}, OhmMetre{1e-8}};
    expectFatalWithContext([&] { ok.resistivity(Kelvin{1000.0}); },
                           "resistivity outside the model window");
}

TEST(FaultInjection, WireSpec)
{
    const tech::Conductor cu{OhmMetre{3e-8}, OhmMetre{1e-8}};
    expectFatalWithContext(
        [&] {
            tech::WireSpec w{tech::WireLayer::Local, Metre{-50e-9},
                             Metre{100e-9}, FaradPerMetre{2e-10}, cu};
        },
        "negative width");
    expectFatalWithContext(
        [&] {
            tech::WireSpec w{tech::WireLayer::Local, Metre{50e-9},
                             Metre{0.0}, FaradPerMetre{2e-10}, cu};
        },
        "zero thickness");
    expectFatalWithContext(
        [&] {
            tech::WireSpec w{tech::WireLayer::Local, Metre{50e-9},
                             Metre{100e-9}, FaradPerMetre{kNaN}, cu};
        },
        "NaN capacitance");
}

// --- Interconnect configs ----------------------------------------------

TEST(FaultInjection, TrafficSpec)
{
    const auto inject = [](auto &&mutate, const char *what) {
        netsim::TrafficSpec spec;
        mutate(spec);
        expectFatalWithContext(
            [&] { netsim::TrafficGenerator g{64, spec}; }, what);
    };
    inject([](auto &s) { s.injectionRate = kNaN; }, "NaN rate");
    inject([](auto &s) { s.injectionRate = -0.1; }, "negative rate");
    inject([](auto &s) { s.injectionRate = 1.0; }, "rate at 1");
    inject([](auto &s) { s.injectionRate = kInf; }, "Inf rate");
    inject([](auto &s) { s.flitsPerPacket = 0; }, "zero flits");
    inject([](auto &s) { s.responseFlits = -1; },
           "negative response flits");
    inject([](auto &s) { s.hotspotNode = 64; },
           "hotspot node out of range");
    inject([](auto &s) { s.hotspotFraction = 1.5; },
           "hotspot fraction above 1");
    inject(
        [](auto &s) {
            s.pattern = netsim::TrafficPattern::Burst;
            s.burstOnProb = 0.0;
        },
        "burst pattern without on-probability");
}

TEST(FaultInjection, NocConfig)
{
    noc::NocDesigner designer{sharedTech()};
    const noc::NocConfig good = designer.cryoBus();
    const auto rebuild = [&](double temp_k, tech::VoltagePoint v,
                             double clock, int hops_per_cycle) {
        return noc::NocConfig{"injected",        good.topology(),
                              good.protocol(),   temp_k,
                              v,                 clock,
                              good.routerSpec(), hops_per_cycle,
                              good.dynamicLinks()};
    };
    const tech::VoltagePoint v = good.voltage();
    expectFatalWithContext(
        [&] { rebuild(kNaN, v, good.clockFreq(), 1); }, "NaN tempK");
    expectFatalWithContext(
        [&] { rebuild(1000.0, v, good.clockFreq(), 1); },
        "out-of-window tempK");
    expectFatalWithContext(
        [&] { rebuild(77.0, {0.3, 0.5}, good.clockFreq(), 1); },
        "vdd below vth");
    expectFatalWithContext([&] { rebuild(77.0, v, 0.0, 1); },
                           "zero clock");
    expectFatalWithContext([&] { rebuild(77.0, v, -4e9, 1); },
                           "negative clock");
    expectFatalWithContext(
        [&] { rebuild(77.0, v, good.clockFreq(), 0); },
        "zero hops per cycle");
}

// --- Core / system configs ---------------------------------------------

TEST(FaultInjection, CoreConfig)
{
    pipeline::CoreDesigner designer{sharedTech()};
    const auto inject = [&](auto &&mutate, const char *what) {
        pipeline::CoreConfig c = designer.baseline300();
        mutate(c);
        expectFatalWithContext([&] { c.validate(); }, what);
    };
    inject([](auto &c) { c.tempK = kNaN; }, "NaN tempK");
    inject([](auto &c) { c.tempK = 1.0; }, "below-window tempK");
    inject([](auto &c) { c.voltage = {0.3, 0.5}; }, "vdd below vth");
    inject([](auto &c) { c.frequency = -4e9; }, "negative frequency");
    inject([](auto &c) { c.frequency = kInf; }, "Inf frequency");
    inject([](auto &c) { c.ipcFactor = 0.0; }, "zero IPC factor");
    inject([](auto &c) { c.pipelineDepth = 0; }, "zero pipeline depth");
    inject([](auto &c) { c.structures.width = 0; }, "zero issue width");
    inject([](auto &c) { c.structures.reorderBuffer = -1; },
           "negative ROB");
}

TEST(FaultInjection, Workload)
{
    const auto inject = [](auto &&mutate, const char *what) {
        sys::Workload w = sys::parsec21().front();
        mutate(w);
        expectFatalWithContext([&] { w.validate(); }, what);
    };
    inject([](auto &w) { w.cpiCore = 0.0; }, "zero core CPI");
    inject([](auto &w) { w.cpiCore = kNaN; }, "NaN core CPI");
    inject([](auto &w) { w.mlp = -2.0; }, "negative MLP");
    inject([](auto &w) { w.l3Apki = kInf; }, "Inf L3 APKI");
    inject([](auto &w) { w.syncPki = -0.1; }, "negative sync PKI");
}

TEST(FaultInjection, MemTiming)
{
    const auto inject = [](auto &&mutate, const char *what) {
        mem::MemTiming t = mem::MemTiming::at300();
        mutate(t);
        expectFatalWithContext([&] { t.validate(); }, what);
    };
    inject([](auto &t) { t.l1 = -1e-9; }, "negative L1 latency");
    inject([](auto &t) { t.dram = kNaN; }, "NaN DRAM latency");
    inject([](auto &t) { t.l2 = 0.0; }, "zero L2 latency");
    inject([](auto &t) { std::swap(t.l1, t.l3); },
           "inverted latency ladder");
}

TEST(FaultInjection, SystemDesign)
{
    pipeline::CoreDesigner cores{sharedTech()};
    noc::NocDesigner nocs{sharedTech()};
    const sys::SystemDesign bad{
        "injected", cores.baseline300(), nocs.cryoBus(),
        mem::MemTiming::at300(), false, /*busWays=*/0};
    const sys::IntervalSimulator sim;
    const sys::Workload w = sys::parsec21().front();
    expectFatalWithContext([&] { sim.run(bad, w); },
                           "zero bus ways reaches the simulator");
}

TEST(FaultInjection, Floorplan)
{
    const pipeline::UnitGeometry alu{"ALU", SquareMetre{2.6e-8},
                                     Metre{345e-6}};
    const pipeline::UnitGeometry rf{"regfile", SquareMetre{3.8e-7},
                                    Metre{345e-6}};
    expectFatalWithContext([&] { pipeline::Floorplan f{alu, rf, 0}; },
                           "zero ALU count");
    expectFatalWithContext(
        [&] {
            pipeline::Floorplan f{
                {"ALU", SquareMetre{-1.0}, Metre{345e-6}}, rf, 8};
        },
        "negative ALU area");
    expectFatalWithContext(
        [&] {
            pipeline::Floorplan f{
                alu, {"regfile", SquareMetre{3.8e-7}, Metre{kNaN}}, 8};
        },
        "NaN regfile width");
}

// --- Power / optimizer configs -----------------------------------------

TEST(FaultInjection, CoolingModel)
{
    expectFatalWithContext([] { power::CoolingModel m{0.0}; },
                           "zero efficiency");
    expectFatalWithContext([] { power::CoolingModel m{1.5}; },
                           "efficiency above 1");
    expectFatalWithContext([] { power::CoolingModel m{kNaN}; },
                           "NaN efficiency");
    expectFatalWithContext(
        [] { power::CoolingModel m{0.3, Kelvin{-10.0}}; },
        "negative hot side");
    const power::CoolingModel ok;
    expectFatalWithContext([&] { ok.overhead(Kelvin{2.0}); },
                           "query below the model window");
    expectFatalWithContext([&] { ok.overhead(Kelvin{500.0}); },
                           "query above the model window");
}

TEST(FaultInjection, VoltageConstraints)
{
    const auto inject = [](auto &&mutate, const char *what) {
        core::VoltageConstraints c;
        mutate(c);
        expectFatalWithContext([&] { c.validate(); }, what);
    };
    inject([](auto &c) { c.vddStep = 0.0; }, "zero vdd step");
    inject([](auto &c) { c.vthStep = -0.01; }, "negative vth step");
    inject([](auto &c) { c.totalPowerBudget = kNaN; }, "NaN budget");
    inject([](auto &c) { c.vddMax = 0.1; }, "vddMax below minVdd");
    inject([](auto &c) { c.vthMax = 0.05; }, "vthMax below vthMin");
}

// --- Measurement drivers -----------------------------------------------

TEST(FaultInjection, LoadLatencyDrivers)
{
    noc::NocDesigner designer{sharedTech()};
    const netsim::BusTiming timing =
        netsim::BusTiming::fromConfig(designer.cryoBus(), 1);
    const netsim::NetworkFactory factory =
        [timing]() -> std::unique_ptr<netsim::Network> {
        return std::make_unique<netsim::BusNetwork>(64, timing);
    };
    netsim::TrafficSpec tr;
    netsim::MeasureOpts fast;
    fast.warmupCycles = 100;
    fast.measureCycles = 400;

    expectFatalWithContext(
        [&] { netsim::saturationRate(factory, tr, kNaN, 0.01, fast); },
        "NaN bisection bracket");
    expectFatalWithContext(
        [&] { netsim::saturationRate(factory, tr, 0.05, 0.0, fast); },
        "zero bisection tolerance");
    netsim::MeasureOpts broken = fast;
    broken.measureCycles = 0;
    expectFatalWithContext(
        [&] { netsim::measureLoadPoint(factory, tr, broken); },
        "empty measurement window");
}

} // namespace
