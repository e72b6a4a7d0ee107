/**
 * @file
 * Cycle-accurate network experiments: the bus load-latency curves
 * (Fig. 18), the 77 K NoC comparison (Fig. 21), adversarial traffic
 * (Fig. 25), and the 256-core hybrid (Fig. 26).
 *
 * Each figure keeps one design list. Its cell function lists the
 * netsim cells of those designs, which the runner simulates in its
 * pool; its hook lists the same cells, reads their results through
 * Context::measure, and builds the tables from them by index.
 */

#include <algorithm>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "exp/netsim_support.hh"
#include "exp/registry.hh"
#include "sys/workload.hh"
#include "util/rng.hh"

namespace cryo::exp
{

namespace
{

using namespace cryo::netsim;

/** A bus of Fig. 18 and the bracket of its saturation search. */
struct Fig18Design
{
    NetworkSpec net;
    double hi;
    double tolerance;
};

constexpr double kFig18Rates[] = {0.0005, 0.001, 0.002, 0.003,
                                  0.004, 0.006, 0.008, 0.012};

/** Fig. 18's two buses: 300 K, then 77 K. */
std::vector<Fig18Design>
fig18Designs(const Context &ctx)
{
    const noc::NocDesigner &designer = ctx.builder().nocs();
    return {{busSpec(designer.sharedBus300()), 0.02, 0.0002},
            {busSpec(designer.sharedBus77()), 0.03, 0.0003}};
}

/** Each bus's sweep points (point i seeded Rng::deriveSeed(seed, i)),
 * then each bus's saturation search. */
std::vector<Cell>
fig18Cells(const Context &ctx)
{
    const TrafficSpec tr = ctx.traffic();
    const auto opts = measureOpts();
    const auto designs = fig18Designs(ctx);
    std::vector<Cell> cells;
    for (const auto &d : designs) {
        for (std::size_t i = 0; i < std::size(kFig18Rates); ++i) {
            TrafficSpec spec = tr;
            spec.injectionRate = kFig18Rates[i];
            spec.seed = Rng::deriveSeed(tr.seed, i);
            cells.push_back(Cell::loadPoint(d.net, spec, opts));
        }
    }
    for (const auto &d : designs)
        cells.push_back(
            Cell::saturation(d.net, tr, d.hi, d.tolerance, opts));
    return cells;
}

/** Fig. 18: Shared-bus load-latency at 300 K and 77 K. */
void
runFig18(const Context &ctx, ExperimentResult &r)
{
    const auto res = ctx.measure(fig18Cells(ctx));
    const std::size_t n = std::size(kFig18Rates);

    Table &t = r.table({"rate (req/node/cyc)", "300K bus latency",
                        "77K bus latency"});
    for (std::size_t i = 0; i < n; ++i) {
        auto cell = [](const LoadPoint &p) {
            return p.saturated ? std::string("saturated")
                               : Table::num(p.avgLatency, 1);
        };
        t.addRow({Table::num(kFig18Rates[i], 4), cell(res[i].point),
                  cell(res[n + i].point)});
    }

    Table &bands = r.table({"workload band", "lo", "hi",
                            "covered by 300K bus",
                            "covered by 77K bus"});
    const double sat300 = res[2 * n].value;
    const double sat77 = res[2 * n + 1].value;
    for (const auto &b : sys::injectionBands()) {
        bands.addRow({b.suite, Table::num(b.lo, 4),
                      Table::num(b.hi, 4),
                      b.hi < sat300 ? "yes" : "NO",
                      b.hi < sat77 ? "yes" : "NO"});
    }
    bands.addRule();
    bands.addRow({"measured saturation", "", "", Table::num(sat300, 4),
                  Table::num(sat77, 4)});

    // Anchored on the reproduction's own story: the 300 K bus
    // saturates inside the PARSEC band (0.0008-0.0045) while the 77 K
    // bus clears PARSEC but not SPEC/CloudSuite (hi 0.024/0.030).
    r.anchored("saturation-300k", sat300, 0.0019, 0.25,
               "req/node/cyc");
    r.anchored("saturation-77k", sat77, 0.0054, 0.25, "req/node/cyc");
    r.verdict(
        "Guideline #2: even the 77 K bus cannot carry SPEC/CloudSuite "
        "rates - the bus must get faster still, hence CryoBus.");
}

/** A Fig. 21 design: its network, clock and traffic. */
struct Fig21Design
{
    std::string label;
    NetworkSpec net;
    double clock;   ///< Hz, to convert cycles -> ns
    double rateRef; ///< its cycle rate per 4 GHz-cycle unit
    TrafficSpec traffic;
};

constexpr double kFig21Rates[] = {0.006, 0.012, 0.02};
/** Cells per Fig. 21 design: zero-load, the three rates, saturation. */
constexpr std::size_t kFig21CellsPerDesign = 5;

std::vector<Fig21Design>
fig21Designs(const Context &ctx)
{
    const noc::NocDesigner &designer = ctx.builder().nocs();
    std::vector<Fig21Design> designs;
    auto add_router = [&](const noc::NocConfig &cfg) {
        designs.push_back({cfg.name(), routerSpec(cfg),
                           cfg.clockFreq(), cfg.clockFreq() / 4.0e9,
                           ctx.directoryTraffic()});
    };
    auto add_bus = [&](const noc::NocConfig &cfg, int ways,
                       const std::string &label) {
        designs.push_back({label, busSpec(cfg, ways), cfg.clockFreq(),
                           cfg.clockFreq() / 4.0e9, ctx.traffic()});
    };
    add_router(designer.mesh(77.0, 1));
    add_router(designer.mesh(77.0, 3));
    add_router(designer.cmesh(77.0, 1));
    add_router(designer.cmesh(77.0, 3));
    add_router(designer.flattenedButterfly(77.0, 1));
    add_router(designer.flattenedButterfly(77.0, 3));
    add_bus(designer.sharedBus77(), 1, "77K Shared bus");
    add_bus(designer.cryoBus(), 1, "CryoBus");
    add_bus(designer.cryoBus(), 2, "CryoBus (2-way)");
    return designs;
}

std::vector<Cell>
fig21Cells(const Context &ctx)
{
    const auto opts = measureOpts();
    std::vector<Cell> cells;
    for (const auto &d : fig21Designs(ctx)) {
        cells.push_back(Cell::zeroLoad(d.net, d.traffic, opts));
        for (double rate : kFig21Rates) {
            TrafficSpec spec = d.traffic;
            spec.injectionRate = rate / d.rateRef; // per design cycle
            cells.push_back(Cell::loadPoint(d.net, spec, opts));
        }
        cells.push_back(
            Cell::saturation(d.net, d.traffic, 0.6, 0.002, opts));
    }
    return cells;
}

/** Fig. 21: 77 K load-latency across NoC designs. */
void
runFig21(const Context &ctx, ExperimentResult &r)
{
    const auto designs = fig21Designs(ctx);
    const auto res = ctx.measure(fig21Cells(ctx));

    Table &t = r.table({"design", "zero-load (ns)", "lat@0.006",
                        "lat@0.012", "lat@0.02",
                        "saturation (req/node/cyc)"});
    for (std::size_t i = 0; i < designs.size(); ++i) {
        const Fig21Design &d = designs[i];
        const netsim::CellResult *c = &res[i * kFig21CellsPerDesign];
        std::vector<std::string> cells{d.label};
        const double zl = c[0].value / d.clock * 1e9;
        cells.push_back(Table::num(zl, 2));
        for (std::size_t k = 1; k <= std::size(kFig21Rates); ++k) {
            const LoadPoint &pt = c[k].point;
            cells.push_back(
                pt.saturated
                    ? std::string("sat")
                    : Table::num(pt.avgLatency / d.clock * 1e9, 2));
        }
        const double sat = c[4].value * d.rateRef;
        cells.push_back(Table::num(sat, 4));
        t.addRow(cells);

        if (d.label == "CryoBus") {
            r.anchored("cryobus-zero-load-ns", zl, 1.25, 0.05, "ns");
            r.anchored("cryobus-saturation", sat, 0.0164, 0.1,
                       "req/node/cyc");
        } else if (d.label == "CryoBus (2-way)") {
            r.anchored("cryobus-2way-saturation", sat, 0.0316, 0.1,
                       "req/node/cyc");
        }
    }

    r.verdict(
        "CryoBus: lowest latency of every design and bandwidth in the "
        "CMesh(3c) class; 2-way interleaving doubles it (the paper's "
        "'comparable scalability' claim).");
}

/** A Fig. 25 design: its network and base traffic. */
struct Fig25Design
{
    std::string label;
    NetworkSpec net;
    double rateRef;
    TrafficSpec base;
};

constexpr std::pair<const char *, TrafficPattern> kFig25Patterns[] = {
    {"uniform", TrafficPattern::UniformRandom},
    {"transpose", TrafficPattern::Transpose},
    {"hotspot", TrafficPattern::Hotspot},
    {"bit-reverse", TrafficPattern::BitReverse},
    {"burst", TrafficPattern::Burst}};

std::vector<Fig25Design>
fig25Designs(const Context &ctx)
{
    const noc::NocDesigner &designer = ctx.builder().nocs();
    return {
        {"Mesh (3c)", routerSpec(designer.mesh(77.0, 3)),
         designer.mesh(77.0, 3).clockFreq() / 4.0e9,
         ctx.directoryTraffic()},
        {"CMesh (3c)", routerSpec(designer.cmesh(77.0, 3)),
         designer.cmesh(77.0, 3).clockFreq() / 4.0e9,
         ctx.directoryTraffic()},
        {"FB (3c)", routerSpec(designer.flattenedButterfly(77.0, 3)),
         designer.flattenedButterfly(77.0, 3).clockFreq() / 4.0e9,
         ctx.directoryTraffic()},
        {"CryoBus", busSpec(designer.cryoBus(), 1), 1.0, ctx.traffic()},
        {"CryoBus (2-way)", busSpec(designer.cryoBus(), 2), 1.0,
         ctx.traffic()},
    };
}

MeasureOpts
fig25Opts()
{
    auto opts = measureOpts();
    opts.measureCycles = 4000;
    return opts;
}

/** One saturation search per (design, pattern), design-major. */
std::vector<Cell>
fig25Cells(const Context &ctx)
{
    const auto opts = fig25Opts();
    std::vector<Cell> cells;
    for (const auto &d : fig25Designs(ctx)) {
        for (const auto &p : kFig25Patterns) {
            TrafficSpec tr = d.base;
            tr.pattern = p.second;
            cells.push_back(Cell::saturation(d.net, tr, 0.6, 0.003, opts));
        }
    }
    return cells;
}

/** Fig. 25: load-latency under adversarial traffic patterns. */
void
runFig25(const Context &ctx, ExperimentResult &r)
{
    const auto designs = fig25Designs(ctx);
    const auto res = ctx.measure(fig25Cells(ctx));
    const std::size_t n_patterns = std::size(kFig25Patterns);

    std::vector<std::string> header{"design"};
    for (const auto &p : kFig25Patterns)
        header.push_back(p.first);
    Table &t = r.table(header);

    double cb_uniform = 0.0, cb_hotspot = 0.0, cb2_hotspot = 0.0;
    double fb_hotspot = 0.0;
    for (std::size_t i = 0; i < designs.size(); ++i) {
        const Fig25Design &d = designs[i];
        std::vector<std::string> row{d.label};
        for (std::size_t k = 0; k < n_patterns; ++k) {
            const TrafficPattern pattern = kFig25Patterns[k].second;
            const double sat = res[i * n_patterns + k].value * d.rateRef;
            row.push_back(Table::num(sat, 4));
            if (d.label == "CryoBus" &&
                pattern == TrafficPattern::UniformRandom)
                cb_uniform = sat;
            if (pattern == TrafficPattern::Hotspot) {
                if (d.label == "CryoBus")
                    cb_hotspot = sat;
                else if (d.label == "CryoBus (2-way)")
                    cb2_hotspot = sat;
                else if (d.label == "FB (3c)")
                    fb_hotspot = sat;
            }
        }
        t.addRow(row);
    }

    r.anchored("cryobus-uniform-saturation", cb_uniform, 0.0164, 0.1,
               "req/node/cyc");
    // Hotspot saturation is held to the same 0.0164 +/- 10% anchor as
    // uniform; the two measurements are not compared with each other.
    r.anchored("cryobus-hotspot-saturation", cb_hotspot, 0.0164, 0.1,
               "req/node/cyc");
    // At hotspot, 2-way CryoBus matches the best router NoC.
    r.anchored("cryobus-2way-over-fb-hotspot",
               cb2_hotspot / fb_hotspot, 1.0, 0.2, "x");
    r.verdict(
        "CryoBus's bandwidth is pattern-insensitive (it broadcasts "
        "regardless); the router NoCs lose bandwidth under transpose/"
        "hotspot - at hotspot the bus is competitive with all of them, "
        "the Fig. 25 claim.");
}

/** A Fig. 26 design: its network, traffic and saturation bracket. */
struct Fig26Design
{
    std::string label;
    NetworkSpec net;
    TrafficSpec traffic;
    double hi;
    double tolerance;
    /** Router clock [Hz]; 0 for the hybrids, which run at 4 GHz. */
    double clock;
};

/** The two hybrids, then the 256-core router NoCs. */
std::vector<Fig26Design>
fig26Designs(const Context &ctx)
{
    noc::NocDesigner designer256{ctx.technology(), 256};
    noc::NocDesigner designer64{ctx.technology(), 64};

    HybridConfig hc;
    hc.busTiming = BusTiming::fromConfig(designer64.cryoBus(), 1);
    HybridConfig hc2 = hc;
    hc2.busTiming = BusTiming::fromConfig(designer64.cryoBus(), 2);

    std::vector<Fig26Design> designs = {
        {"Hybrid CryoBus", hc, ctx.traffic(), 0.05, 0.0005, 0.0},
        {"Hybrid CryoBus (2-way)", hc2, ctx.traffic(), 0.05, 0.0005,
         0.0},
    };
    for (const auto &cfg :
         {designer256.mesh(77.0, 1), designer256.cmesh(77.0, 3),
          designer256.flattenedButterfly(77.0, 3)})
        designs.push_back({cfg.name(), routerSpec(cfg),
                           ctx.directoryTraffic(), 0.5, 0.002,
                           cfg.clockFreq()});
    return designs;
}

/** Zero-load, then saturation, per design. */
std::vector<Cell>
fig26Cells(const Context &ctx)
{
    const auto opts = measureOpts();
    std::vector<Cell> cells;
    for (const auto &d : fig26Designs(ctx)) {
        cells.push_back(Cell::zeroLoad(d.net, d.traffic, opts));
        cells.push_back(Cell::saturation(d.net, d.traffic, d.hi,
                                         d.tolerance, opts));
    }
    return cells;
}

/** Fig. 26: scaling CryoBus to 256 cores with the hybrid design. */
void
runFig26(const Context &ctx, ExperimentResult &r)
{
    const auto designs = fig26Designs(ctx);
    const auto res = ctx.measure(fig26Cells(ctx));

    Table &t = r.table({"design (256 cores)", "zero-load (ns)",
                        "saturation (req/node/cyc)"});
    double hybrid_zl = 0.0, hybrid_sat = 0.0, hybrid2_sat = 0.0;
    double min_router_zl = 1e30;
    for (std::size_t i = 0; i < designs.size(); ++i) {
        const Fig26Design &d = designs[i];
        double zl = 0.0, sat = 0.0;
        if (d.clock == 0.0) {
            zl = res[2 * i].value / 4.0;
            sat = res[2 * i + 1].value;
        } else {
            zl = res[2 * i].value / d.clock * 1e9;
            sat = res[2 * i + 1].value * d.clock / 4.0e9;
            min_router_zl = std::min(min_router_zl, zl);
        }
        t.addRow({d.label, Table::num(zl, 2), Table::num(sat, 4)});
        if (i == 0) {
            hybrid_zl = zl;
            hybrid_sat = sat;
        } else if (i == 1) {
            hybrid2_sat = sat;
        }
    }

    r.anchored("hybrid-zero-load-ns", hybrid_zl, 3.50, 0.05, "ns");
    r.anchored("hybrid-saturation", hybrid_sat, 0.0074, 0.15,
               "req/node/cyc");
    r.anchored("hybrid-2way-saturation", hybrid2_sat, 0.0152, 0.15,
               "req/node/cyc");
    // The hybrid keeps the latency lead over every 256-core router NoC.
    r.anchored("hybrid-zl-over-best-router",
               hybrid_zl / min_router_zl, 0.71, 0.1, "x");
    r.verdict(
        "The hybrid keeps the lowest latency at 256 cores and scales "
        "its bandwidth with interleaving - Fig. 26's conclusion.");
}

} // namespace

void
registerNetsimExperiments(Registry &reg)
{
    reg.add({"fig18-bus-load-latency",
             "Fig. 18 - Shared-bus load-latency at 300 K and 77 K",
             "Cycle-accurate bus simulation, uniform random requests "
             "(latency in 4 GHz cycles).",
             {"figure", "netsim", "smoke"},
             runFig18,
             fig18Cells});
    reg.add({"fig21-noc-load-latency",
             "Fig. 21 - 77 K load-latency across NoC designs",
             "Cycle-accurate simulation, uniform random; x in requests "
             "per node per 4 GHz cycle, y in ns.",
             {"figure", "netsim", "slow"},
             runFig21,
             fig21Cells});
    reg.add({"fig25-traffic-patterns",
             "Fig. 25 - load-latency under adversarial traffic",
             "Saturation throughput (requests/node/4GHz-cycle) per "
             "pattern and design; CryoBus rows should barely move.",
             {"figure", "netsim", "slow"},
             runFig25,
             fig25Cells});
    reg.add({"fig26-hybrid-256core",
             "Fig. 26 - scaling CryoBus to 256 cores",
             "Hybrid = 4 x 64-core CryoBus + 2x2 global mesh (gives up "
             "global snooping, keeps the latency).",
             {"figure", "netsim", "slow"},
             runFig26,
             fig26Cells});
}

} // namespace cryo::exp
