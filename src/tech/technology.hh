/**
 * @file
 * Technology facade: one object bundling the calibrated 45-nm-class
 * device and wire models the rest of CryoWire consumes.
 *
 * The per-layer resistivity anchors and the device model-card curve are
 * the only calibrated constants in the library; each is tied to a
 * specific figure of the paper (see technology.cc).
 */

#ifndef CRYOWIRE_TECH_TECHNOLOGY_HH
#define CRYOWIRE_TECH_TECHNOLOGY_HH

#include <memory>

#include "tech/mosfet.hh"
#include "tech/repeater.hh"
#include "tech/wire_geometry.hh"
#include "tech/wire_rc.hh"
#include "util/units.hh"

namespace cryo::tech
{

/**
 * The complete process technology: three wire layers + MOSFET model.
 *
 * Create once (e.g. `Technology::freePdk45()`) and share by reference.
 */
class Technology
{
  public:
    /**
     * The library's default process: FreePDK45-class devices with
     * Intel-45nm-style metal stack, calibrated to the paper's anchors.
     *
     * @param mosfet_params device model card; the default reproduces
     *        the paper's calibration, overrides let a DSE axis land an
     *        alternative device point (e.g. the optimized cryo-CMOS
     *        card of arXiv 2411.03099) without a new factory.
     */
    static Technology freePdk45(MosfetParams mosfet_params = {});

    /**
     * A scaled technology node for the Section-7.5 study ("wires in
     * smaller technologies"). Local wires shrink with the node and
     * their temperature-independent size-effect resistivity grows as
     * 1/width, eroding the cryogenic gain; semi-global wires shrink
     * more gently; the global (M9/M10-class) pitch is effectively
     * node-independent, preserving CryoBus's links - the paper's
     * argument for why its designs survive scaling.
     *
     * @param node_nm  target node (45 reproduces freePdk45)
     * @param thick_wire_mitigation draw the semi-global forwarding
     *        wires at double width (the paper's proposed mitigation)
     * @param mosfet_params device model card (see freePdk45)
     */
    static Technology scaledNode(double node_nm,
                                 bool thick_wire_mitigation = false,
                                 MosfetParams mosfet_params = {});

    Technology(Mosfet mosfet, WireSpec local, WireSpec semi_global,
               WireSpec global);

    const Mosfet &mosfet() const { return mosfet_; }
    const WireSpec &wire(WireLayer layer) const;

    /** Transistor speed-up vs 300 K at nominal voltage (1.08 at 77 K). */
    double transistorSpeedup(units::Kelvin temp) const;

    /**
     * Speed-up of an unrepeated wire of @p length on @p layer,
     * driven by a size-@p driver_size driver.
     */
    double wireSpeedup(WireLayer layer, units::Metre length,
                       units::Kelvin temp, double driver_size = 64.0) const;

    /** Speed-up of a latency-optimally repeatered wire. */
    double repeateredWireSpeedup(WireLayer layer, units::Metre length,
                                 units::Kelvin temp) const;

    /** Delay of a repeatered wire. */
    units::Second repeateredWireDelay(WireLayer layer, units::Metre length,
                                      units::Kelvin temp) const;

    /** Repeatered delay at an explicit voltage point. */
    units::Second repeateredWireDelay(WireLayer layer, units::Metre length,
                                      units::Kelvin temp,
                                      const VoltagePoint &v) const;

  private:
    Mosfet mosfet_;
    WireSpec local_;
    WireSpec semiGlobal_;
    WireSpec global_;
};

} // namespace cryo::tech

#endif // CRYOWIRE_TECH_TECHNOLOGY_HH
