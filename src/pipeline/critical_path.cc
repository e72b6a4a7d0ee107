#include "critical_path.hh"

#include <algorithm>
#include <array>

#include "util/diag.hh"
#include "util/units.hh"

namespace cryo::pipeline
{

using units::Hertz;
using units::Kelvin;
using units::Second;

namespace
{

/**
 * The (T, V) terms that every stage of one call shares: the MOSFET
 * delay factor, and each wire class's wireScale (its WireRC, 300 K
 * reference delay and delay at (T, V)). Each is computed the first
 * time a stage asks for it, so a call pays once per term rather than
 * once per stage, and a call over no stages computes nothing.
 */
class CallScales
{
  public:
    CallScales(const CriticalPathModel &model, Kelvin temp,
               const tech::VoltagePoint &v)
        : model_(model), temp_(temp), v_(v)
    {
        wireScale_.fill(kUnset);
    }

    /** Delay of @p s at (T, V): logic + wire, logic computed first. */
    double total(const PipelineStage &s)
    {
        const double l = logic(s);
        return l + wire(s);
    }

    StageDelay delay(const PipelineStage &s)
    {
        StageDelay d;
        d.name = s.name;
        d.kind = s.kind;
        d.pipelinable = s.pipelinable;
        d.logic = logic(s);
        d.wire = wire(s);
        return d;
    }

  private:
    /** Delay factors and wire scales are positive ratios. */
    static constexpr double kUnset = -1.0;

    double logic(const PipelineStage &s)
    {
        if (delayFactor_ == kUnset)
            delayFactor_ =
                model_.technology().mosfet().delayFactor(temp_, v_);
        return s.logic300() * delayFactor_;
    }

    double wire(const PipelineStage &s)
    {
        const auto wc = static_cast<std::size_t>(s.wireClass);
        double &scale = wireScale_.at(wc);
        if (scale == kUnset)
            scale = model_.wireScale(s.wireClass, temp_, v_);
        return s.wire300() * scale;
    }

    const CriticalPathModel &model_;
    Kelvin temp_;
    tech::VoltagePoint v_;
    double delayFactor_ = kUnset;
    std::array<double, 5> wireScale_; ///< one per WireClass
};

} // namespace

CriticalPathModel::CriticalPathModel(const tech::Technology &tech,
                                     Floorplan floorplan, Hertz ref_freq)
    : tech_(tech), floorplan_(std::move(floorplan)), refFreq_(ref_freq)
{
    fatalIf(ref_freq.value() <= 0.0,
            "reference frequency must be positive");
}

CriticalPathModel::WireSetup
CriticalPathModel::wireSetup(WireClass wc) const
{
    using namespace units;
    using tech::WireLayer;
    switch (wc) {
      case WireClass::None:
      case WireClass::ShortLocal:
        // Wires between adjacent gates inside a unit.
        return {WireLayer::Local, 250 * um, 24.0, 8.0};
      case WireClass::CacheArray:
        // SRAM word/bit-lines: longer local runs across an array.
        return {WireLayer::Local, 300 * um, 32.0, 8.0};
      case WireClass::CamBroadcast:
        // Tag broadcast across all entries: the highest-fanout local
        // wires in the machine [49, 63].
        return {WireLayer::Local, 450 * um, 64.0, 16.0};
      case WireClass::ForwardingWire:
        // Floorplan-length semi-global wire with a bypass-class driver.
        return {WireLayer::SemiGlobal, floorplan_.forwardingWireLength(),
                140.0, 16.0};
    }
    panic("unknown wire class");
}

double
CriticalPathModel::wireScale(WireClass wc, Kelvin temp,
                             const tech::VoltagePoint &v) const
{
    if (wc == WireClass::None)
        return 1.0;
    const WireSetup ws = wireSetup(wc);
    tech::WireRC rc{tech_.wire(ws.layer), tech_.mosfet(), ws.driver,
                    ws.load};
    const Second ref = rc.delay(ws.length, constants::roomTemp,
                                tech_.mosfet().params().nominal);
    return rc.delay(ws.length, temp, v) / ref;
}

StageDelay
CriticalPathModel::stageDelay(const PipelineStage &stage, Kelvin temp,
                              const tech::VoltagePoint &v) const
{
    return CallScales{*this, temp, v}.delay(stage);
}

StageDelay
CriticalPathModel::stageDelay(const PipelineStage &stage,
                              Kelvin temp) const
{
    return stageDelay(stage, temp, tech_.mosfet().params().nominal);
}

std::vector<StageDelay>
CriticalPathModel::stageDelays(const StageList &stages, Kelvin temp,
                               const tech::VoltagePoint &v) const
{
    CallScales scales{*this, temp, v};
    std::vector<StageDelay> out;
    out.reserve(stages.size());
    for (const auto &s : stages)
        out.push_back(scales.delay(s));
    return out;
}

std::vector<StageDelay>
CriticalPathModel::stageDelays(const StageList &stages,
                               Kelvin temp) const
{
    return stageDelays(stages, temp, tech_.mosfet().params().nominal);
}

double
CriticalPathModel::maxDelay(const StageList &stages, Kelvin temp,
                            const tech::VoltagePoint &v) const
{
    fatalIf(stages.empty(), "pipeline has no stages");
    CallScales scales{*this, temp, v};
    double best = 0.0;
    for (const auto &s : stages)
        best = std::max(best, scales.total(s));
    return best;
}

double
CriticalPathModel::maxDelay(const StageList &stages, Kelvin temp) const
{
    return maxDelay(stages, temp, tech_.mosfet().params().nominal);
}

std::string
CriticalPathModel::criticalStage(const StageList &stages, Kelvin temp,
                                 const tech::VoltagePoint &v) const
{
    fatalIf(stages.empty(), "pipeline has no stages");
    CallScales scales{*this, temp, v};
    const PipelineStage *best = &stages.front();
    double best_delay = 0.0;
    for (const auto &s : stages) {
        const double d = scales.total(s);
        if (d > best_delay) {
            best_delay = d;
            best = &s;
        }
    }
    return best->name;
}

Hertz
CriticalPathModel::frequency(const StageList &stages, Kelvin temp,
                             const tech::VoltagePoint &v) const
{
    return refFreq_ / maxDelay(stages, temp, v);
}

Hertz
CriticalPathModel::frequency(const StageList &stages, Kelvin temp) const
{
    return frequency(stages, temp, tech_.mosfet().params().nominal);
}

} // namespace cryo::pipeline
