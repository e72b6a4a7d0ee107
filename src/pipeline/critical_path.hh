/**
 * @file
 * Stage-wise critical-path delay model across temperature and voltage
 * (the paper's modified CC-Model, Fig. 6).
 *
 * Scaling rules:
 *  - the logic component scales with the MOSFET delay factor;
 *  - the wire component scales with the physical wire model of its
 *    WireClass: an unrepeated WireRC at the class's characteristic
 *    length (floorplan length for forwarding wires), evaluated at the
 *    target temperature/voltage versus 300 K nominal.
 */

#ifndef CRYOWIRE_PIPELINE_CRITICAL_PATH_HH
#define CRYOWIRE_PIPELINE_CRITICAL_PATH_HH

#include <string>
#include <vector>

#include "pipeline/floorplan.hh"
#include "pipeline/stage.hh"
#include "tech/technology.hh"
#include "util/units.hh"

namespace cryo::pipeline
{

/** Delay of one stage at an operating point, split by source. */
struct StageDelay
{
    std::string name;
    StageKind kind;
    bool pipelinable;
    double logic;   ///< transistor part (normalized units)
    double wire;    ///< wire part
    double total() const { return logic + wire; }
    double wireFraction() const
    {
        const double t = total();
        return t > 0.0 ? wire / t : 0.0;
    }
};

/**
 * Critical-path model over a stage list.
 *
 * Delays stay in the Fig.-12 normalization (300 K max = 1.0); the
 * reference frequency maps them to absolute time.
 *
 * Every call over a stage list at (T, V) computes the MOSFET delay
 * factor once, and each wire class's wireScale once, the first time a
 * stage needs it; a stage's delay is then logic300 x factor +
 * wire300 x scale, bit for bit what a per-stage stageDelay gives.
 */
class CriticalPathModel
{
  public:
    /**
     * @param tech      calibrated technology
     * @param floorplan floorplan providing forwarding-wire lengths
     * @param ref_freq  frequency corresponding to a normalized delay of
     *                  1.0 (4 GHz Skylake baseline)
     */
    CriticalPathModel(const tech::Technology &tech, Floorplan floorplan,
                      units::Hertz ref_freq = units::Hertz{4.0e9});

    /** Delay of one stage at (T, V). */
    StageDelay stageDelay(const PipelineStage &stage, units::Kelvin temp,
                          const tech::VoltagePoint &v) const;

    StageDelay stageDelay(const PipelineStage &stage,
                          units::Kelvin temp) const;

    /** Delays of all stages at (T, V). */
    std::vector<StageDelay> stageDelays(const StageList &stages,
                                        units::Kelvin temp,
                                        const tech::VoltagePoint &v) const;

    std::vector<StageDelay> stageDelays(const StageList &stages,
                                        units::Kelvin temp) const;

    /** Maximum stage delay (the cycle-time limiter). */
    double maxDelay(const StageList &stages, units::Kelvin temp,
                    const tech::VoltagePoint &v) const;

    double maxDelay(const StageList &stages, units::Kelvin temp) const;

    /** Name of the limiting stage. */
    std::string criticalStage(const StageList &stages, units::Kelvin temp,
                              const tech::VoltagePoint &v) const;

    /** Clock frequency implied by the critical path. */
    units::Hertz frequency(const StageList &stages, units::Kelvin temp,
                           const tech::VoltagePoint &v) const;

    units::Hertz frequency(const StageList &stages,
                           units::Kelvin temp) const;

    /**
     * Wire-delay multiplier of @p wc at (T, V) versus 300 K nominal
     * (< 1 below room temperature).
     */
    double wireScale(WireClass wc, units::Kelvin temp,
                     const tech::VoltagePoint &v) const;

    units::Hertz refFrequency() const { return refFreq_; }
    const Floorplan &floorplan() const { return floorplan_; }
    const tech::Technology &technology() const { return tech_; }

  private:
    /** Characteristic wire of a class: layer, length, driver, load. */
    struct WireSetup
    {
        tech::WireLayer layer;
        units::Metre length;
        double driver;
        double load;
    };

    WireSetup wireSetup(WireClass wc) const;

    const tech::Technology &tech_;
    Floorplan floorplan_;
    units::Hertz refFreq_;
};

} // namespace cryo::pipeline

#endif // CRYOWIRE_PIPELINE_CRITICAL_PATH_HH
