#include "wire_rc.hh"

#include <cmath>

#include "util/diag.hh"

namespace cryo::tech
{

using units::Kelvin;
using units::Metre;
using units::Ohm;
using units::Second;

WireRC::WireRC(const WireSpec &spec, const Mosfet &mosfet,
               double driver_size, double load_size)
    : spec_(spec), mosfet_(mosfet), driverSize_(driver_size),
      loadSize_(load_size)
{
    fatalIf(!(std::isfinite(driver_size) && driver_size > 0.0),
            "driver size must be positive and finite");
    fatalIf(!(std::isfinite(load_size) && load_size > 0.0),
            "load size must be positive and finite");
}

Second
WireRC::Load::delay(Ohm rd) const
{
    return 0.69 * rd * (cw + cl + cp) + 0.38 * rw * cw + 0.69 * rw * cl;
}

WireRC::Load
WireRC::load(Metre length, Kelvin temp) const
{
    fatalIf(!(std::isfinite(length.value()) && length.value() >= 0.0),
            "wire length must be non-negative and finite");
    return {spec_.capPerM() * length, spec_.resistancePerM(temp) * length,
            mosfet_.gateCap(loadSize_), mosfet_.parasiticCap(driverSize_)};
}

Second
WireRC::delay(Metre length, Kelvin temp, const VoltagePoint &v) const
{
    return load(length, temp).delay(
        mosfet_.driverResistance(temp, v, driverSize_));
}

Second
WireRC::delay(Metre length, Kelvin temp) const
{
    return delay(length, temp, mosfet_.params().nominal);
}

void
WireRC::delayBatchV(Metre length, Kelvin temp,
                    std::span<const VoltagePoint> vs,
                    std::span<const double> delay_factors,
                    std::span<Second> out) const
{
    fatalIf(vs.size() != out.size(), "delayBatchV: vs/out size mismatch");
    fatalIf(delay_factors.size() != vs.size(),
            "delayBatchV: delay_factors/vs size mismatch");
    const Load driven = load(length, temp);
    const Ohm unit_r = mosfet_.params().unitResistance300;
    for (std::size_t i = 0; i < vs.size(); ++i) {
        // Same expression as Mosfet::driverResistance with the factor
        // already in hand.
        out[i] = driven.delay(unit_r * delay_factors[i] / driverSize_);
    }
}

double
WireRC::speedup(Metre length, Kelvin temp) const
{
    return delay(length, constants::roomTemp) / delay(length, temp);
}

double
WireRC::asymptoticSpeedup(Kelvin temp) const
{
    return 1.0 / spec_.resistanceRatio(temp);
}

} // namespace cryo::tech
