/**
 * @file
 * Distributed-RC delay of an unrepeated wire (Hspice-deck substitute).
 *
 * Elmore form for a driver R_d pushing a distributed RC line into a
 * capacitive load:
 *
 *   t = 0.69 R_d (C_w L + C_L) + 0.38 R_w C_w L^2 + 0.69 R_w L C_L
 *
 * This is what the paper's "wire circuits without repeaters" measure in
 * Fig. 5(a): as L grows the quadratic wire term dominates and the 77 K
 * speed-up approaches the resistance ratio R(300)/R(77).
 */

#ifndef CRYOWIRE_TECH_WIRE_RC_HH
#define CRYOWIRE_TECH_WIRE_RC_HH

#include "tech/mosfet.hh"
#include "tech/wire_geometry.hh"
#include "util/units.hh"

namespace cryo::tech
{

/**
 * Unrepeated point-to-point wire between a driver and a load.
 */
class WireRC
{
  public:
    /**
     * @param spec        metal layer
     * @param mosfet      device model providing the driver
     * @param driver_size driver strength in unit-inverter multiples
     * @param load_size   receiving gate size in unit-inverter multiples
     */
    WireRC(const WireSpec &spec, const Mosfet &mosfet,
           double driver_size = 64.0, double load_size = 16.0);

    /**
     * End-to-end delay of a @p length wire at (T, V); @p length must
     * be finite and non-negative, else cryo::FatalError.
     */
    units::Second delay(units::Metre length, units::Kelvin temp,
                        const VoltagePoint &v) const;

    /** Delay at the nominal voltage point. */
    units::Second delay(units::Metre length, units::Kelvin temp) const;

    /** delay(L, 300 K) / delay(L, T): > 1 below room temperature. */
    double speedup(units::Metre length, units::Kelvin temp) const;

    /**
     * Asymptotic (long-wire) speed-up at @p temp: the inverse of the
     * layer's resistance ratio, independent of the driver.
     */
    double asymptoticSpeedup(units::Kelvin temp) const;

    double driverSize() const { return driverSize_; }

  private:
    const WireSpec &spec_;
    const Mosfet &mosfet_;
    double driverSize_;
    double loadSize_;
};

} // namespace cryo::tech

#endif // CRYOWIRE_TECH_WIRE_RC_HH
