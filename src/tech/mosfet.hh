/**
 * @file
 * Cryogenic MOSFET model (the paper's cryo-MOSFET substitute).
 *
 * The paper feeds an industry-validated 2z-nm model card into
 * cryo-MOSFET, which adjusts it for a given Vdd/Vth and reports Ion and
 * Ileak at the target temperature. We reproduce the same interface:
 *
 *  - The temperature dependence of drive strength at nominal voltage is
 *    a measured-anchor curve (`driveGain`), exactly like the paper
 *    treats its model card as validated data (1.08x at 77 K, ~1.005x at
 *    the 135 K validation point).
 *  - Voltage dependence uses the alpha-power law with one
 *    temperature-independent exponent, so cooling at a fixed voltage
 *    point speeds logic by exactly driveGain(T), and a Vdd/Vth point's
 *    speed-up over nominal is the same at every temperature (Table 3:
 *    6.4 -> 7.84 GHz, +22.5%, for CryoSP's 0.64/0.25 V).
 *  - Subthreshold leakage follows the textbook exponential with
 *    swing n*kT/q*ln10, which collapses at 77 K and is why Vth can drop
 *    to 0.25 V there but not at 300 K: leakage, not speed, confines
 *    Vdd/Vth scaling to cryogenic temperatures.
 */

#ifndef CRYOWIRE_TECH_MOSFET_HH
#define CRYOWIRE_TECH_MOSFET_HH

#include <vector>

#include "util/units.hh"

namespace cryo::tech
{

/**
 * Operating voltages of a design point.
 *
 * Kept as plain doubles in volts: both members share one dimension, so
 * the Quantity machinery could not catch a vdd/vth swap anyway, and the
 * struct is brace-initialized all over the design ladders.
 */
struct VoltagePoint
{
    double vdd; ///< supply [V]
    double vth; ///< threshold [V]
};

/** Tunable parameters of the device model. */
struct MosfetParams
{
    /** Nominal operating point the model card is characterized at. */
    VoltagePoint nominal{1.25, 0.47};

    /**
     * Alpha-power exponent (temperature-independent): short-channel
     * transport is strongly velocity-saturated, so delay is nearly
     * linear in 1/(Vdd - Vth). Calibrated to 0.673 so the Vdd/Vth
     * scaled points in Table 3 reproduce the published frequency gains
     * (CryoSP +22.5%, CHP-core +23.5% over the unscaled 77 K designs).
     * What restricts Vdd/Vth scaling to cryogenic temperatures is the
     * *leakage* model, not the speed model - exactly the paper's
     * argument.
     */
    double alpha = 0.673;

    /** Subthreshold ideality factor n (swing = n kT/q ln10). */
    double subthresholdN = 1.5;

    /** DIBL coefficient eta: Vth_eff = Vth - eta * Vdd. */
    double dibl = 0.10;

    /** Unit (minimum) inverter on-resistance at 300 K, nominal V. */
    units::Ohm unitResistance300{12e3};

    /** Unit inverter gate capacitance. */
    units::Farad unitGateCap{0.45e-15};

    /** Unit inverter parasitic (drain) capacitance. */
    units::Farad unitParasiticCap{0.45e-15};

    /**
     * Drive-gain anchors (temp [K], Ion multiplier vs 300 K) at nominal
     * voltage; interpolated piecewise-linearly. The curve saturates by
     * ~135 K (mobility gain plateaus against the rising Vth), which is
     * what the paper's Fig. 9 validation implies: the real CPU already
     * gains 12% at 135 K while the 77 K gain is only 8% of transistor
     * speed plus wire effects.
     */
    std::vector<std::pair<double, double>> driveGainAnchors{
        {4.0, 1.100}, {50.0, 1.088}, {77.0, 1.080}, {100.0, 1.078},
        {135.0, 1.075}, {200.0, 1.050}, {250.0, 1.020}, {300.0, 1.000},
    };

    /**
     * Range/consistency validation (finite positive voltages with
     * Vdd > Vth, physical exponents, strictly-increasing positive-gain
     * anchor temperatures - duplicates would make the interpolant
     * ambiguous); throws cryo::FatalError naming every offending
     * field. Called by the Mosfet constructor.
     */
    void validate() const;
};

/**
 * Cryogenic MOSFET: Ion/Ileak/delay versus temperature and voltage.
 */
class Mosfet
{
  public:
    explicit Mosfet(MosfetParams params = {});

    const MosfetParams &params() const { return params_; }

    /**
     * Ion(T)/Ion(300 K) at nominal voltage (>= 1 below 300 K).
     *
     * Piecewise-linear between the anchors; outside the anchor span
     * the curve is an explicit clamp to the boundary anchors, not an
     * extrapolation.  This matters above the last anchor: the default
     * card ends at 300 K while checkedModelTemp admits up to 400 K,
     * and extending the final segment would claim Ion keeps falling
     * past the calibration data.  Queries outside the [4, 400] K model
     * window are a domain error (cryo::FatalError).
     */
    double driveGain(units::Kelvin temp) const;

    /**
     * Gate-delay multiplier relative to (300 K, nominal voltage).
     * < 1 means faster. Combines the drive-gain curve with the
     * alpha-power voltage dependence.
     */
    double delayFactor(units::Kelvin temp, const VoltagePoint &v) const;

    /** delayFactor at the nominal voltage point. */
    double delayFactor(units::Kelvin temp) const;

    /**
     * Subthreshold leakage current multiplier relative to
     * (300 K, nominal voltage).
     */
    double leakageFactor(units::Kelvin temp, const VoltagePoint &v) const;

    /** Subthreshold swing at @p temp [V/decade]. */
    units::Volt subthresholdSwing(units::Kelvin temp) const;

    /**
     * Whether (vdd, vth) keeps leakage no higher than the nominal
     * 300 K leakage - the feasibility rule the paper uses to restrict
     * Vdd/Vth scaling to cryogenic temperatures.
     */
    bool voltageScalingFeasible(units::Kelvin temp,
                                const VoltagePoint &v) const;

    /** On-resistance of a size-@p h driver at (T, V). */
    units::Ohm driverResistance(units::Kelvin temp, const VoltagePoint &v,
                                double h = 1.0) const;

    /** Input capacitance of a size-@p h gate. */
    units::Farad gateCap(double h = 1.0) const;

    /** Parasitic output capacitance of a size-@p h gate. */
    units::Farad parasiticCap(double h = 1.0) const;

    /** FO4 inverter delay at (T, V): the logic-delay yardstick. */
    units::Second fo4Delay(units::Kelvin temp, const VoltagePoint &v) const;

  private:
    /** Alpha-power speed term (Vdd - Vth)^alpha / Vdd, higher=faster. */
    double voltageSpeed(const VoltagePoint &v) const;

    MosfetParams params_;
};

} // namespace cryo::tech

#endif // CRYOWIRE_TECH_MOSFET_HH
