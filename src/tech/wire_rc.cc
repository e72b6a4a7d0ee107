#include "wire_rc.hh"

#include <cmath>

#include "util/diag.hh"

namespace cryo::tech
{

using units::Farad;
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
WireRC::delay(Metre length, Kelvin temp, const VoltagePoint &v) const
{
    fatalIf(!(std::isfinite(length.value()) && length.value() >= 0.0),
            "wire length must be non-negative and finite");
    const Farad cw = spec_.capPerM() * length;
    const Ohm rw = spec_.resistancePerM(temp) * length;
    const Farad cl = mosfet_.gateCap(loadSize_);
    const Farad cp = mosfet_.parasiticCap(driverSize_);
    const Ohm rd = mosfet_.driverResistance(temp, v, driverSize_);
    return 0.69 * rd * (cw + cl + cp) + 0.38 * rw * cw + 0.69 * rw * cl;
}

Second
WireRC::delay(Metre length, Kelvin temp) const
{
    return delay(length, temp, mosfet_.params().nominal);
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
