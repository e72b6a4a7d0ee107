#include "mosfet.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/diag.hh"
#include "util/validate.hh"

namespace cryo::tech
{

using units::Farad;
using units::Kelvin;
using units::Ohm;
using units::Second;
using units::Volt;

void
MosfetParams::validate() const
{
    Validator v{"MosfetParams"};
    v.positive("nominal.vdd", nominal.vdd)
        .positive("nominal.vth", nominal.vth)
        .require(nominal.vdd > nominal.vth,
                 "nominal Vdd must exceed nominal Vth")
        .inRightOpen("alpha", alpha, 0.0, 2.0)
        .inRange("subthresholdN", subthresholdN, 1.0, 3.0)
        .inRightOpen("dibl", dibl, 0.0, 1.0)
        .positive("unitResistance300", unitResistance300.value())
        .positive("unitGateCap", unitGateCap.value())
        .positive("unitParasiticCap", unitParasiticCap.value())
        .require(driveGainAnchors.size() >= 2,
                 "need at least two drive-gain anchors")
        // Strictly increasing, not merely sorted: a duplicated anchor
        // temperature would make the piecewise-linear interpolant
        // ambiguous (two gains at one T) and its segment width zero.
        .require(std::adjacent_find(driveGainAnchors.begin(),
                                    driveGainAnchors.end(),
                                    [](const auto &a, const auto &b) {
                                        return a.first >= b.first;
                                    })
                     == driveGainAnchors.end(),
                 "drive-gain anchor temperatures must be strictly "
                 "increasing");
    for (const auto &[anchor_temp, gain] : driveGainAnchors) {
        v.require(std::isfinite(anchor_temp) && anchor_temp > 0.0,
                  "anchor temperatures must be finite and positive");
        v.require(std::isfinite(gain) && gain > 0.0,
                  "anchor drive gains must be finite and positive");
    }
    v.done();
}

Mosfet::Mosfet(MosfetParams params) : params_(std::move(params))
{
    params_.validate();
}

double
Mosfet::driveGain(Kelvin temp) const
{
    const double temp_k = checkedModelTemp(temp.value(), "mosfet drive gain");
    const auto &a = params_.driveGainAnchors;
    // Explicit clamp outside the anchor span: the default card ends at
    // 300 K while the model window admits 400 K, and extrapolating the
    // last segment would invent gains the card never measured (see the
    // driveGain contract in the header).
    if (temp_k <= a.front().first)
        return a.front().second;
    if (temp_k >= a.back().first)
        return a.back().second;
    for (std::size_t i = 1; i < a.size(); ++i) {
        if (temp_k <= a[i].first) {
            const double t0 = a[i - 1].first;
            const double t1 = a[i].first;
            const double g0 = a[i - 1].second;
            const double g1 = a[i].second;
            return g0 + (g1 - g0) * (temp_k - t0) / (t1 - t0);
        }
    }
    return a.back().second;
}

double
Mosfet::voltageSpeed(const VoltagePoint &v) const
{
    // DIBL is folded into the alpha calibration for delay purposes (it
    // only appears explicitly in the leakage model); the exponent was
    // fitted against the paper's Vdd/Vth-scaled frequency anchors.  It
    // is temperature-independent (see MosfetParams::alpha): cooling at
    // a fixed voltage point then speeds logic by exactly driveGain(T),
    // which is what the paper's router model (+9.3% at 77 K) and core
    // model (+8%) require.
    const double overdrive = v.vdd - v.vth;
    if (!(std::isfinite(overdrive) && overdrive > 0.0 && v.vdd > 0.0)) {
        CRYO_CONTEXT("mosfet voltage speed");
        std::ostringstream os;
        os << "Vdd must exceed Vth and both be finite (vdd=" << v.vdd
           << ", vth=" << v.vth << ")";
        fatal(os.str());
    }
    return std::pow(overdrive, params_.alpha) / v.vdd;
}

double
Mosfet::delayFactor(Kelvin temp, const VoltagePoint &v) const
{
    const double nominal_speed = voltageSpeed(params_.nominal);
    const double gain = driveGain(temp);
    return nominal_speed / (voltageSpeed(v) * gain);
}

double
Mosfet::delayFactor(Kelvin temp) const
{
    return delayFactor(temp, params_.nominal);
}

Volt
Mosfet::subthresholdSwing(Kelvin temp) const
{
    return params_.subthresholdN * constants::thermalVoltage(temp)
        * std::log(10.0);
}

double
Mosfet::leakageFactor(Kelvin temp, const VoltagePoint &v) const
{
    auto subthreshold = [this](Kelvin t, const VoltagePoint &p) {
        const Volt n_vt = params_.subthresholdN
            * constants::thermalVoltage(t);
        // Vth lowered by DIBL at higher Vdd.
        const Volt vth_eff{p.vth - params_.dibl * p.vdd};
        return std::exp(-(vth_eff / n_vt));
    };
    const double ref = subthreshold(constants::roomTemp, params_.nominal);
    return subthreshold(temp, v) / ref;
}

bool
Mosfet::voltageScalingFeasible(Kelvin temp, const VoltagePoint &v) const
{
    return leakageFactor(temp, v) <= 1.0 + 1e-9;
}

Ohm
Mosfet::driverResistance(Kelvin temp, const VoltagePoint &v, double h) const
{
    fatalIf(h <= 0.0, "driver size must be positive");
    return params_.unitResistance300 * delayFactor(temp, v) / h;
}

Farad
Mosfet::gateCap(double h) const
{
    return params_.unitGateCap * h;
}

Farad
Mosfet::parasiticCap(double h) const
{
    return params_.unitParasiticCap * h;
}

Second
Mosfet::fo4Delay(Kelvin temp, const VoltagePoint &v) const
{
    // 0.69 RC with a fanout-of-4 gate load plus self parasitic.
    const Ohm r = driverResistance(temp, v, 1.0);
    const Farad c = 4.0 * gateCap(1.0) + parasiticCap(1.0);
    return 0.69 * r * c;
}

} // namespace cryo::tech
