/**
 * @file
 * Latency-optimal repeater insertion (Bakoglu methodology).
 *
 * A length-L wire is cut into k segments, each driven by a size-h
 * inverter. Per-segment Elmore delay:
 *
 *   t_seg = 0.69 (R0/h) (c l + h (C0 + Cp)) + 0.38 r c l^2 + 0.69 r l h C0
 *
 * with l = L/k. For a given k the optimal h has a closed form; we scan
 * integer k (including k = 1, i.e. no repeaters pays off for short
 * wires) and keep the minimum. Re-optimizing at the target temperature
 * models the paper's "latency-optimizing manner" insertion at both
 * 300 K and 77 K; the resulting speed-up approaches
 * sqrt(wire-R gain * device gain), which is why repeatered wires gain
 * less than raw RC wires (Fig. 5(b) vs Fig. 5(a)).
 */

#ifndef CRYOWIRE_TECH_REPEATER_HH
#define CRYOWIRE_TECH_REPEATER_HH

#include "tech/mosfet.hh"
#include "tech/wire_geometry.hh"
#include "util/units.hh"

namespace cryo::tech
{

/** Result of optimizing one repeatered wire. */
struct RepeaterDesign
{
    int segments;            ///< number of wire segments (repeaters = k - 1)
    double size;             ///< repeater size in unit-inverter multiples
    units::Second delay;     ///< end-to-end latency
    units::Metre segmentLen; ///< length of one segment
};

/**
 * Repeatered-wire optimizer for one metal layer.
 */
class RepeateredWire
{
  public:
    RepeateredWire(const WireSpec &spec, const Mosfet &mosfet);

    /**
     * Latency-optimal design for a @p length wire at (T, V).  The
     * optimal size h does not depend on k, so everything but the
     * segment count is computed once, outside the scan over k.
     * @param length       finite and positive, else cryo::FatalError
     * @param max_segments cap on k (arbitration of area; >= 1).
     */
    RepeaterDesign optimize(units::Metre length, units::Kelvin temp,
                            const VoltagePoint &v,
                            int max_segments = 256) const;

    /** Optimal design at the nominal voltage. */
    RepeaterDesign optimize(units::Metre length, units::Kelvin temp) const;

    /** Optimal end-to-end delay. */
    units::Second delay(units::Metre length, units::Kelvin temp) const;

    /** delay(L, 300 K) / delay(L, T), both re-optimized. */
    double speedup(units::Metre length, units::Kelvin temp) const;

    /**
     * Delay at temperature @p temp of a wire whose repeater layout
     * (k, h) was fixed by optimizing at @p design_temp - models
     * cooling existing silicon without redesign.
     */
    units::Second delayWithFrozenLayout(units::Metre length,
                                        units::Kelvin design_temp,
                                        units::Kelvin temp) const;

  private:
    const WireSpec &spec_;
    const Mosfet &mosfet_;
};

} // namespace cryo::tech

#endif // CRYOWIRE_TECH_REPEATER_HH
