/**
 * @file
 * Assembles complete system design points (core + NoC + memory) - the
 * five evaluation rows of Table 4 plus the analysis variants of
 * Figs 17 and 27.
 */

#ifndef CRYOWIRE_CORE_SYSTEM_BUILDER_HH
#define CRYOWIRE_CORE_SYSTEM_BUILDER_HH

#include <vector>

#include "noc/noc_config.hh"
#include "pipeline/core_config.hh"
#include "sys/interval_sim.hh"
#include "tech/technology.hh"

namespace cryo::core
{

/**
 * Factory for the paper's evaluated systems. The core designer keeps
 * the 300 K baseline and CryoSP cores once built, so a builder reused
 * across designs pays for each only once; one builder may serve any
 * number of threads.
 */
class SystemBuilder
{
  public:
    /**
     * @param floorplan execution-cluster floorplan handed to the core
     *        designer (default: the paper's Table-1 layout).
     */
    explicit SystemBuilder(
        const tech::Technology &tech, int cores = 64,
        pipeline::Floorplan floorplan =
            pipeline::Floorplan::skylakeLike());

    /** Table-4 row 1: 300 K baseline core, 300 K mesh, 300 K memory. */
    sys::SystemDesign baseline300Mesh() const;

    /** Row 2: CHP-core [16], 77 K mesh, 77 K memory. */
    sys::SystemDesign chpMesh77() const;

    /** Row 3: CryoSP, 77 K mesh, 77 K memory. */
    sys::SystemDesign cryoSpMesh77() const;

    /** Row 4: CHP-core, CryoBus, 77 K memory. */
    sys::SystemDesign chpCryoBus77() const;

    /** Row 5: CryoSP, CryoBus, 77 K memory (the paper's design). */
    sys::SystemDesign cryoSpCryoBus77(int bus_ways = 1) const;

    /** All five Table-4 rows in order. */
    std::vector<sys::SystemDesign> table4Systems() const;

    /** Fig. 17: 77 K system with a zero-latency snooping NoC. */
    sys::SystemDesign idealNoc77() const;

    /** Fig. 17: 77 K system with the scaled conventional shared bus. */
    sys::SystemDesign sharedBus77() const;

    /**
     * Fig. 27: the CryoSP + CryoBus system operated at @p temp_k, with
     * voltages, memory timing, and link speeds interpolated between
     * the published 77 K and 300 K design points. Builds the CryoSP
     * core (memoized), cryoBusAt(temp_k) and the memory timing at
     * temp_k, nothing else.
     */
    sys::SystemDesign atTemperature(double temp_k) const;

    /**
     * Rebind @p design's core voltage and recompute the
     * model-derived clock frequency at the core's operating
     * temperature - the DSE Vdd/Vth axis. The stage list, structures,
     * and interconnect are untouched; callers sweeping voltage get
     * exactly the critical-path model's frequency response.
     */
    sys::SystemDesign withCoreVoltage(sys::SystemDesign design,
                                      tech::VoltagePoint v) const;

    const pipeline::CoreDesigner &cores() const { return coreDesigner_; }
    const noc::NocDesigner &nocs() const { return nocDesigner_; }
    const tech::Technology &technology() const { return tech_; }

  private:
    const tech::Technology &tech_;
    pipeline::CoreDesigner coreDesigner_;
    noc::NocDesigner nocDesigner_;
};

} // namespace cryo::core

#endif // CRYOWIRE_CORE_SYSTEM_BUILDER_HH
