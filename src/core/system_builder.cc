#include "system_builder.hh"

#include <utility>

#include "util/diag.hh"

namespace cryo::core
{

SystemBuilder::SystemBuilder(const tech::Technology &tech, int cores,
                             pipeline::Floorplan floorplan)
    : tech_(tech), coreDesigner_(tech, std::move(floorplan)),
      nocDesigner_(tech, cores)
{
}

sys::SystemDesign
SystemBuilder::baseline300Mesh() const
{
    return sys::SystemDesign{"Baseline (300K, Mesh)",
                             coreDesigner_.baseline300(),
                             nocDesigner_.mesh300(),
                             mem::MemTiming::at300(), false, 1};
}

sys::SystemDesign
SystemBuilder::chpMesh77() const
{
    return sys::SystemDesign{"CHP-core (77K, Mesh)",
                             coreDesigner_.chpCore(),
                             nocDesigner_.mesh77(),
                             mem::MemTiming::at77(), false, 1};
}

sys::SystemDesign
SystemBuilder::cryoSpMesh77() const
{
    sys::SystemDesign d = chpMesh77();
    d.name = "CryoSP (77K, Mesh)";
    d.core = coreDesigner_.cryoSP();
    return d;
}

sys::SystemDesign
SystemBuilder::chpCryoBus77() const
{
    sys::SystemDesign d = chpMesh77();
    d.name = "CHP-core (77K, CryoBus)";
    d.noc = nocDesigner_.cryoBus();
    return d;
}

sys::SystemDesign
SystemBuilder::cryoSpCryoBus77(int bus_ways) const
{
    fatalIf(bus_ways < 1, "need at least one bus way");
    sys::SystemDesign d = chpCryoBus77();
    d.name = bus_ways == 1 ? "CryoSP (77K, CryoBus)"
        : "CryoSP (77K, CryoBus, " + std::to_string(bus_ways) + "-way)";
    d.core = coreDesigner_.cryoSP();
    d.busWays = bus_ways;
    return d;
}

std::vector<sys::SystemDesign>
SystemBuilder::table4Systems() const
{
    return {baseline300Mesh(), chpMesh77(), cryoSpMesh77(),
            chpCryoBus77(), cryoSpCryoBus77()};
}

sys::SystemDesign
SystemBuilder::idealNoc77() const
{
    sys::SystemDesign d = chpCryoBus77();
    d.name = "Ideal NoC (77K)";
    d.idealNoc = true;
    return d;
}

sys::SystemDesign
SystemBuilder::sharedBus77() const
{
    sys::SystemDesign d = chpMesh77();
    d.name = "77K Shared bus";
    d.noc = nocDesigner_.sharedBus77();
    return d;
}

sys::SystemDesign
SystemBuilder::atTemperature(double temp_k) const
{
    fatalIf(temp_k < 77.0 || temp_k > 300.0,
            "temperature sweep covers 77-300 K");
    // Only the CryoSP core carries over from the 77 K design; the
    // interconnect and memory are built at temp_k directly.
    sys::SystemDesign d{"CryoSP+CryoBus @" +
                            std::to_string(static_cast<int>(temp_k)) +
                            "K",
                        coreDesigner_.cryoSP(),
                        nocDesigner_.cryoBusAt(temp_k),
                        mem::MemTiming::atTemperature(temp_k), false,
                        1};
    // Voltage floor interpolates between the CryoSP point and the
    // 300 K nominal (Section 7.4's linear-scaling assumption).
    const double f = (300.0 - temp_k) / (300.0 - 77.0);
    tech::VoltagePoint v{1.25 + f * (0.64 - 1.25),
                         0.47 + f * (0.25 - 0.47)};
    d.core.tempK = temp_k;
    d.core.voltage = v;
    d.core.frequency =
        coreDesigner_.model()
            .frequency(d.core.stages, units::Kelvin{temp_k}, v)
            .value();
    return d;
}

sys::SystemDesign
SystemBuilder::withCoreVoltage(sys::SystemDesign design,
                               tech::VoltagePoint v) const
{
    fatalIf(!(v.vdd > v.vth),
            "core voltage override needs Vdd > Vth");
    design.core.voltage = v;
    design.core.frequency =
        coreDesigner_.model()
            .frequency(design.core.stages,
                       units::Kelvin{design.core.tempK}, v)
            .value();
    return design;
}

} // namespace cryo::core
