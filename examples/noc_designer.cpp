/**
 * @file
 * NoC designer: compare interconnects for a given core count and
 * temperature, then validate the analytic pick with the cycle-accurate
 * simulator.
 *
 *   ./noc_designer [cores] [temperature_K]   (default 64 77)
 *
 * Demonstrates the paper's two design guidelines interactively:
 * router-based NoCs barely improve when cooled, and the bus needs the
 * H-tree + dynamic links to beat them.
 */

#include <cstdio>
#include <memory>

#include "mem/memory_system.hh"
#include "netsim/bus_net.hh"
#include "netsim/load_latency.hh"
#include "netsim/router_net.hh"
#include "noc/noc_config.hh"
#include "tech/technology.hh"
#include "util/cli.hh"
#include "util/table.hh"

int
main(int argc, char **argv)
{
    using namespace cryo;
    using namespace cryo::netsim;

    // A malformed number becomes an out-of-range one, rejected below.
    const int cores =
        argc > 1 ? cli::parseNumber<int>(argv[1]).value_or(0) : 64;
    const double temp_k =
        argc > 2 ? cli::parseFinite(argv[2]).value_or(-1.0) : 77.0;
    if (cores < 1 || cores > 1024 || temp_k < 40.0 || temp_k > 400.0) {
        std::fprintf(stderr,
                     "usage: noc_designer [1..1024 cores] [40..400 K]\n");
        return 1;
    }

    auto technology = tech::Technology::freePdk45();
    noc::NocDesigner designer{technology, cores};

    std::printf("Interconnect comparison: %d cores at %.0f K\n\n",
                cores, temp_k);

    const std::vector<noc::NocConfig> candidates = {
        designer.mesh(temp_k, 1),
        designer.cmesh(temp_k, 3),
        designer.flattenedButterfly(temp_k, 3),
        designer.sharedBusAt(temp_k),
        designer.cryoBusAt(temp_k),
    };

    const auto mem = mem::MemTiming::atTemperature(temp_k);
    Table t({"design", "clock", "L3 hit latency", "NoC share",
             "bus broadcast"});
    for (const auto &cfg : candidates) {
        mem::MemorySystem ms{mem, cfg};
        const auto hit = ms.l3Hit();
        t.addRow({cfg.name(),
                  Table::num(cfg.clockFreq() / 1e9, 2) + " GHz",
                  Table::num(hit.total() * 1e9, 2) + " ns",
                  Table::pct(hit.nocShare()),
                  cfg.topology().isBus()
                      ? std::to_string(cfg.busBreakdown().broadcast) +
                            " cyc"
                      : "-"});
    }
    t.print();

    // Cross-check the two most interesting designs in the cycle
    // simulator (shortened windows for interactivity).
    MeasureOpts opts;
    opts.warmupCycles = 1000;
    opts.measureCycles = 3000;
    TrafficSpec tr;

    const auto &bus = candidates.back();
    const auto bus_timing = BusTiming::fromConfig(bus, 1);
    auto bus_factory = [bus_timing,
                        cores]() -> std::unique_ptr<Network> {
        return std::make_unique<BusNetwork>(cores, bus_timing);
    };
    const auto &mesh = candidates.front();
    const auto mesh_cfg = RouterNetConfig::fromConfig(mesh);
    auto mesh_factory = [mesh_cfg]() -> std::unique_ptr<Network> {
        return std::make_unique<RouterNetwork>(mesh_cfg);
    };

    std::printf("\ncycle-accurate cross-check (uniform random):\n");
    std::printf("  %-16s zero-load %.1f cycles, saturation %.4f "
                "req/node/cycle\n",
                bus.name().c_str(),
                zeroLoadLatency(bus_factory, tr, opts),
                saturationRate(bus_factory, tr, 0.2, 0.002, opts));
    TrafficSpec dir;
    dir.responseFlits = 5;
    std::printf("  %-16s zero-load %.1f cycles, saturation %.4f "
                "req/node/cycle\n",
                mesh.name().c_str(),
                zeroLoadLatency(mesh_factory, dir, opts),
                saturationRate(mesh_factory, dir, 0.4, 0.004, opts));

    std::printf("\nGuideline check: at %.0f K the bus's broadcast "
                "takes %d cycle(s); it %s the 1-cycle target the "
                "paper sets for contention-free 64-core operation.\n",
                temp_k, bus.busBreakdown().broadcast,
                bus.busBreakdown().broadcast == 1 ? "MEETS" : "misses");
    return 0;
}
