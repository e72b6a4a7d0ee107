#include "noc_config.hh"

#include <cmath>

#include "util/diag.hh"
#include "util/units.hh"
#include "util/validate.hh"

namespace cryo::noc
{

const char *
protocolName(Protocol p)
{
    switch (p) {
      case Protocol::DirectoryBased:
        return "directory-based";
      case Protocol::SnoopBased:
        return "snoop-based";
    }
    return "unknown";
}

NocConfig::NocConfig(std::string name, Topology topology, Protocol protocol,
                     double temp_k, tech::VoltagePoint voltage,
                     double clock_freq, RouterSpec router_spec,
                     int hops_per_cycle, bool dynamic_links)
    : name_(std::move(name)), topo_(std::move(topology)),
      protocol_(protocol), tempK_(temp_k), voltage_(voltage),
      clockFreq_(clock_freq), routerSpec_(router_spec),
      hopsPerCycle_(hops_per_cycle), dynamicLinks_(dynamic_links)
{
    Validator v{"NocConfig", name_};
    v.temperature("tempK", tempK_)
        .positive("voltage.vdd", voltage_.vdd)
        .positive("voltage.vth", voltage_.vth)
        .require(voltage_.vdd > voltage_.vth, "Vdd must exceed Vth")
        .positive("clockFreq", clockFreq_)
        .atLeast("hopsPerCycle", hopsPerCycle_, 1)
        .done();
}

int
NocConfig::linkCycles(double hops) const
{
    if (hops <= 0.0)
        return 0;
    return static_cast<int>(std::ceil(hops / hopsPerCycle_));
}

BusLatencyBreakdown
NocConfig::busBreakdown() const
{
    fatalIf(!topo_.isBus(), "busBreakdown on a router-based NoC");
    BusLatencyBreakdown b;
    b.request = std::max(1, linkCycles(topo_.arbiterHops()));
    b.arbitration = 1;
    b.grant = std::max(1, linkCycles(topo_.arbiterHops()));
    // Dynamic link connection needs one extra cycle to set the
    // cross-link switches; it overlaps the grant path (Section 5.2.2)
    // but still lengthens the pre-broadcast phase by one cycle.
    b.control = dynamicLinks_ ? 1 : 0;
    b.broadcast = std::max(1, linkCycles(topo_.maxBroadcastHops()));
    return b;
}

int
NocConfig::busOccupancyCycles(int flits) const
{
    fatalIf(flits < 1, "a packet has at least one flit");
    const BusLatencyBreakdown b = busBreakdown();
    // The medium is held for the broadcast plus the tail flits; the
    // request/grant signalling uses dedicated arbitration wires and
    // pipelines with the previous owner's transfer.
    return b.broadcast + (flits - 1);
}

double
NocConfig::unicastLatency(int flits) const
{
    fatalIf(flits < 1, "a packet has at least one flit");
    const double cycle = 1.0 / clockFreq_;
    if (topo_.isBus()) {
        const BusLatencyBreakdown b = busBreakdown();
        return (b.total() + (flits - 1)) * cycle;
    }
    const double router_cycles =
        topo_.avgPathRouters() * routerSpec_.pipelineCycles;
    const double cycles = router_cycles
        + linkCycles(topo_.avgUnicastHops()) + kNiCycles + (flits - 1);
    return cycles * cycle;
}

double
NocConfig::maxUnicastLatency(int flits) const
{
    fatalIf(flits < 1, "a packet has at least one flit");
    const double cycle = 1.0 / clockFreq_;
    if (topo_.isBus()) {
        const BusLatencyBreakdown b = busBreakdown();
        return (b.total() + (flits - 1)) * cycle;
    }
    const double router_cycles =
        topo_.maxPathRouters() * routerSpec_.pipelineCycles;
    const double cycles = router_cycles
        + linkCycles(topo_.maxUnicastHops()) + kNiCycles + (flits - 1);
    return cycles * cycle;
}

NocDesigner::NocDesigner(const tech::Technology &tech, int cores)
    : tech_(tech), cores_(cores), link_(tech)
{
}

tech::VoltagePoint
NocDesigner::voltageAt(double temp_k) const
{
    // Voltage optimization is only feasible at cryogenic temperatures
    // (Section 5.2.3); interpolate the Vdd/Vth floor linearly with T
    // between the Table-4 anchor points.
    if (temp_k >= 300.0)
        return kV300;
    if (temp_k <= 77.0)
        return kV77;
    const double f = (300.0 - temp_k) / (300.0 - 77.0);
    return {kV300.vdd + f * (kV77.vdd - kV300.vdd),
            kV300.vth + f * (kV77.vth - kV300.vth)};
}

NocConfig
NocDesigner::routerNoc(std::string name, Topology topo, double temp_k,
                       int router_cycles) const
{
    RouterSpec spec;
    spec.pipelineCycles = router_cycles;
    const tech::VoltagePoint v = voltageAt(temp_k);
    const units::Kelvin temp{temp_k};
    RouterModel router{tech_, spec, 4.0 * units::GHz, kV300};
    const units::Hertz freq = router.frequency(temp, v);
    const int hpc = link_.hopsPerCycle(freq, temp, v);
    return NocConfig{std::move(name), std::move(topo),
                     Protocol::DirectoryBased, temp_k, v, freq.value(),
                     spec, hpc, false};
}

NocConfig
NocDesigner::busNoc(std::string name, Topology topo, double temp_k,
                    bool dynamic_links) const
{
    // Buses have no router pipeline; the bus clock stays at the 4 GHz
    // system clock (Table 4: CryoBus runs at 4 GHz).
    const tech::VoltagePoint v = voltageAt(temp_k);
    const units::Hertz freq = 4.0 * units::GHz;
    const int hpc = link_.hopsPerCycle(freq, units::Kelvin{temp_k}, v);
    return NocConfig{std::move(name), std::move(topo),
                     Protocol::SnoopBased, temp_k, v, freq.value(),
                     RouterSpec{}, hpc, dynamic_links};
}

NocConfig
NocDesigner::mesh300() const
{
    return routerNoc("300K Mesh", Topology::mesh(cores_), 300.0, 1);
}

NocConfig
NocDesigner::mesh77() const
{
    return routerNoc("77K Mesh", Topology::mesh(cores_), 77.0, 1);
}

NocConfig
NocDesigner::mesh(double temp_k, int router_cycles) const
{
    const std::string label = std::to_string(router_cycles);
    return routerNoc("Mesh (" + label + "-cycle)",
                     Topology::mesh(cores_), temp_k, router_cycles);
}

NocConfig
NocDesigner::cmesh(double temp_k, int router_cycles) const
{
    const std::string label = std::to_string(router_cycles);
    return routerNoc("CMesh (" + label + "-cycle)",
                     Topology::cmesh(cores_), temp_k, router_cycles);
}

NocConfig
NocDesigner::flattenedButterfly(double temp_k, int router_cycles) const
{
    const std::string label = std::to_string(router_cycles);
    return routerNoc("FB (" + label + "-cycle)",
                     Topology::flattenedButterfly(cores_), temp_k,
                     router_cycles);
}

NocConfig
NocDesigner::sharedBus300() const
{
    return busNoc("300K Shared bus", Topology::sharedBus(cores_), 300.0,
                  false);
}

NocConfig
NocDesigner::sharedBus77() const
{
    return busNoc("77K Shared bus", Topology::sharedBus(cores_), 77.0,
                  false);
}

NocConfig
NocDesigner::hTreeBus300() const
{
    return busNoc("300K H-tree bus", Topology::hTreeBus(cores_), 300.0,
                  true);
}

NocConfig
NocDesigner::cryoBus() const
{
    return busNoc("CryoBus", Topology::hTreeBus(cores_), 77.0, true);
}

NocConfig
NocDesigner::sharedBusAt(double temp_k) const
{
    return busNoc("Shared bus @" +
                      std::to_string(static_cast<int>(temp_k)) + "K",
                  Topology::sharedBus(cores_), temp_k, false);
}

NocConfig
NocDesigner::cryoBusAt(double temp_k) const
{
    return busNoc("CryoBus @" +
                      std::to_string(static_cast<int>(temp_k)) + "K",
                  Topology::hTreeBus(cores_), temp_k, true);
}

} // namespace cryo::noc
