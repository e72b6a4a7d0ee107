#include "repeater.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/diag.hh"

namespace cryo::tech
{

using units::Farad;
using units::FaradPerMetre;
using units::Kelvin;
using units::Metre;
using units::Ohm;
using units::OhmPerMetre;
using units::Second;

namespace
{

/** One size-h repeater at a fixed (T, V) and the wire it drives. */
struct Stage
{
    Ohm rd;          ///< repeater output resistance
    Farad cg;        ///< repeater gate capacitance (the previous stage's load)
    Farad cp;        ///< repeater parasitic capacitance
    OhmPerMetre r;   ///< wire resistance per metre
    FaradPerMetre c; ///< wire capacitance per metre

    /** Delay of a @p length wire cut into @p k such stages. */
    Second
    delay(Metre length, int k) const
    {
        const Metre l = length / k;
        const Farad cw = c * l;
        const Ohm rw = r * l;
        const Second t_seg =
            0.69 * rd * (cw + cg + cp) + 0.38 * rw * cw + 0.69 * rw * cg;
        return k * t_seg;
    }
};

} // namespace

RepeateredWire::RepeateredWire(const WireSpec &spec, const Mosfet &mosfet)
    : spec_(spec), mosfet_(mosfet)
{
}

RepeaterDesign
RepeateredWire::optimize(Metre length, Kelvin temp, const VoltagePoint &v,
                         int max_segments) const
{
    fatalIf(!(std::isfinite(length.value()) && length.value() > 0.0),
            "wire length must be positive and finite");
    fatalIf(max_segments < 1, "need at least one segment");

    const Ohm r0 = mosfet_.driverResistance(temp, v, 1.0);
    const Farad c0 = mosfet_.gateCap(1.0) + mosfet_.parasiticCap(1.0);
    const OhmPerMetre r = spec_.resistancePerM(temp);
    const FaradPerMetre c = spec_.capPerM();
    // d(t_seg)/dh = 0 => h = sqrt(R0 c l / (r l C0)) = sqrt(R0 c / (r C0)):
    // the size, and so the whole stage, is the same for every k.
    const double h =
        std::max(1.0, std::sqrt(r0 * c / (r * mosfet_.gateCap(1.0))));
    const Stage stage{mosfet_.driverResistance(temp, v, h),
                      mosfet_.gateCap(h), mosfet_.parasiticCap(h), r, c};

    // The continuous-k optimum gives the neighbourhood to scan; the
    // bound is clamped in double so the cast to int is always defined.
    const double k_cont =
        length.value() * std::sqrt(0.38 * (r * c).value()
                                   / (0.69 * (r0 * c0).value()));
    const int k_hi = static_cast<int>(std::min<double>(
        max_segments, std::max(2.0, std::ceil(k_cont) + 2.0)));

    RepeaterDesign best{
        1, 1.0, Second{std::numeric_limits<double>::infinity()}, length};
    for (int k = 1; k <= k_hi; ++k) {
        const Second d = stage.delay(length, k);
        if (d < best.delay)
            best = {k, h, d, length / k};
    }
    return best;
}

RepeaterDesign
RepeateredWire::optimize(Metre length, Kelvin temp) const
{
    return optimize(length, temp, mosfet_.params().nominal);
}

Second
RepeateredWire::delay(Metre length, Kelvin temp) const
{
    return optimize(length, temp).delay;
}

double
RepeateredWire::speedup(Metre length, Kelvin temp) const
{
    return delay(length, constants::roomTemp) / delay(length, temp);
}

Second
RepeateredWire::delayWithFrozenLayout(Metre length, Kelvin design_temp,
                                      Kelvin temp) const
{
    const RepeaterDesign d = optimize(length, design_temp);
    const VoltagePoint &v = mosfet_.params().nominal;
    const Stage stage{mosfet_.driverResistance(temp, v, d.size),
                      mosfet_.gateCap(d.size), mosfet_.parasiticCap(d.size),
                      spec_.resistancePerM(temp), spec_.capPerM()};
    return stage.delay(length, d.segments);
}

} // namespace cryo::tech
