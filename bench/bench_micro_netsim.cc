/**
 * @file
 * Microbenchmarks of the cycle-accurate simulator kernels: bus
 * stepping, router stepping, arbitration, and traffic generation.
 * These exercise the heap-backed sliding queues; there is no separate
 * batch variant, so the gate tracks scalar ns/op only.  Emits the
 * cryowire-bench/1 JSON consumed by tools/bench_gate.py.
 */

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "netsim/arbiter.hh"
#include "netsim/bus_net.hh"
#include "netsim/router_net.hh"
#include "netsim/traffic.hh"
#include "noc/noc_config.hh"
#include "tech/technology.hh"

#include "micro_common.hh"

namespace
{

using namespace cryo;
using namespace cryo::netsim;
using micro::keep;

const noc::NocDesigner &
designer()
{
    static tech::Technology technology = tech::Technology::freePdk45();
    static noc::NocDesigner d{technology};
    return d;
}

void
benchBusStep(micro::Harness &h, double rate)
{
    BusNetwork net(64, BusTiming::fromConfig(designer().cryoBus(), 1));
    TrafficSpec tr;
    tr.injectionRate = rate;
    TrafficGenerator gen(64, tr);
    const double ns = h.time(64, [&] {
        for (const Packet &p : gen.tick(net.now()))
            net.inject(p);
        net.step();
        net.delivered().clear();
        keep(net);
    });
    h.record("bus_step/rate=" + std::to_string(rate).substr(0, 5), 64,
             ns);
}

/**
 * One router-network cycle per call under uniform 1-flit traffic, in
 * ns per node. Generated packets are dropped while @p backlog_cap are
 * in flight, so a saturated kernel's memory stays bounded however
 * many cycles the harness runs.
 */
void
benchRouterStep(micro::Harness &h, const std::string &kernel,
                const noc::NocConfig &cfg, double rate,
                std::size_t backlog_cap)
{
    RouterNetwork net(RouterNetConfig::fromConfig(cfg));
    const int nodes = net.nodes();
    TrafficSpec tr;
    tr.injectionRate = rate;
    TrafficGenerator gen(nodes, tr);
    const double ns = h.time(static_cast<std::uint64_t>(nodes), [&] {
        for (const Packet &p : gen.tick(net.now())) {
            if (net.inFlight() < backlog_cap)
                net.inject(p);
        }
        net.step();
        net.delivered().clear();
        keep(net);
    });
    h.record(kernel + "/rate=" + std::to_string(rate).substr(0, 5),
             static_cast<std::uint64_t>(nodes), ns);
}

void
benchMeshStep(micro::Harness &h, double rate)
{
    benchRouterStep(h, "mesh_step", designer().mesh(77.0, 1), rate,
                    std::numeric_limits<std::size_t>::max());
}

void
benchArbiter(micro::Harness &h, int n)
{
    MatrixArbiter arb(n);
    std::vector<bool> req(static_cast<std::size_t>(n), true);
    const double ns = h.time(1, [&] { keep(arb.arbitrate(req)); });
    h.record("matrix_arbiter/n=" + std::to_string(n), 1, ns);
}

} // namespace

int
main(int argc, char **argv)
{
    micro::Harness h{"micro_netsim", argc, argv};

    benchBusStep(h, 0.001);
    benchBusStep(h, 0.010);
    benchBusStep(h, 0.015);
    benchMeshStep(h, 0.010);
    benchMeshStep(h, 0.100);
    benchMeshStep(h, 0.300);
    {
        // Fig. 26's 256-core Mesh(1c) and FB(3c), at a low rate and
        // past saturation (under this traffic FB saturates between
        // 0.6 and 0.8), with at most 64 packets per node in flight.
        const noc::NocDesigner d256{designer().technology(), 256};
        const std::size_t cap = 64 * 256;
        benchRouterStep(h, "mesh256_step", d256.mesh(77.0, 1), 0.010,
                        cap);
        benchRouterStep(h, "mesh256_step", d256.mesh(77.0, 1), 0.300,
                        cap);
        benchRouterStep(h, "fb256_step",
                        d256.flattenedButterfly(77.0, 3), 0.010, cap);
        benchRouterStep(h, "fb256_step",
                        d256.flattenedButterfly(77.0, 3), 0.800, cap);
    }
    benchArbiter(h, 16);
    benchArbiter(h, 64);
    benchArbiter(h, 256);

    {
        TrafficSpec tr;
        tr.injectionRate = 0.05;
        TrafficGenerator gen(64, tr);
        Cycle c = 0;
        const double ns = h.time(64, [&] { keep(gen.tick(c++)); });
        h.record("traffic_tick", 64, ns);
    }

    return h.finish();
}
