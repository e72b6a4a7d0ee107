/**
 * @file
 * Vdd/Vth design-space optimizer - the method behind CHP-core and
 * CryoSP (Section 4.5 and [16]): maximize clock frequency (or
 * performance per watt) over the voltage plane subject to
 *
 *  - leakage feasibility: subthreshold leakage no higher than the
 *    300 K baseline's (the rule that confines scaling to cryogenic
 *    temperatures);
 *  - a total-power budget (device + cooling) relative to the baseline;
 *  - circuit margins: a minimum supply for SRAM operation and a
 *    minimum Vdd/Vth ratio for noise margins.
 *
 * The paper hand-picks (0.64 V, 0.25 V); this optimizer derives such a
 * point from the models, so the ablation bench can show how close the
 * published choice is to the model's optimum.
 */

#ifndef CRYOWIRE_CORE_VOLTAGE_OPTIMIZER_HH
#define CRYOWIRE_CORE_VOLTAGE_OPTIMIZER_HH

#include "pipeline/core_config.hh"
#include "power/mcpat_lite.hh"
#include "tech/technology.hh"

namespace cryo::core
{

/** What the optimizer maximizes. */
enum class VoltageObjective
{
    Frequency,       ///< the CHP-core / CryoSP rule
    PerfPerWatt      ///< frequency / total power
};

/** Search-space constraints. */
struct VoltageConstraints
{
    /** Total (device + cooling) power budget vs the 300 K baseline. */
    double totalPowerBudget = 1.0;

    /** Minimum supply for reliable SRAM operation [V]. */
    double minVdd = 0.55;

    /** Minimum Vdd/Vth ratio (noise margins). */
    double minVddVthRatio = 2.5;

    /** Search grid. */
    double vddMax = 1.30;
    double vddStep = 0.01;
    double vthMin = 0.10;
    double vthMax = 0.50;
    double vthStep = 0.005;

    /**
     * Range/consistency validation (positive finite steps and budget,
     * ordered grid bounds); throws cryo::FatalError naming every
     * offence. Called by VoltageOptimizer::optimize().
     */
    void validate() const;
};

/** Optimization outcome. */
struct VoltagePlanPoint
{
    tech::VoltagePoint voltage{1.25, 0.47};
    double frequency = 0.0;    ///< [Hz]
    double totalPower = 0.0;   ///< vs baseline, cooling included
    double leakageFactor = 0.0;
    bool feasible = false;
};

/**
 * Grid-search optimizer over the (Vdd, Vth) plane.
 */
class VoltageOptimizer
{
  public:
    VoltageOptimizer(const tech::Technology &tech,
                     const pipeline::CriticalPathModel &model);

    /**
     * Best voltage point for @p core's pipeline at @p temp_k: a
     * Vdd-major scan of the grid (min + i * step, both ends included)
     * that calls evaluate() for each point; on a score tie the first
     * point wins.
     * @param core        structure/stage description (power model input)
     * @param baseline    the 300 K design defining power = 1.0
     * @param objective   what to maximize
     * @param constraints search-space limits
     */
    VoltagePlanPoint optimize(const pipeline::CoreConfig &core,
                              const pipeline::CoreConfig &baseline,
                              double temp_k,
                              VoltageObjective objective =
                                  VoltageObjective::Frequency,
                              VoltageConstraints constraints = {}) const;

    /** Evaluate one explicit voltage point under the same constraints
     * (feasible == false explains a rejection). */
    VoltagePlanPoint evaluate(const pipeline::CoreConfig &core,
                              const pipeline::CoreConfig &baseline,
                              double temp_k, tech::VoltagePoint v,
                              VoltageConstraints constraints = {}) const;

  private:
    const tech::Technology &tech_;
    const pipeline::CriticalPathModel &model_;
    power::McpatLite mcpat_;
};

} // namespace cryo::core

#endif // CRYOWIRE_CORE_VOLTAGE_OPTIMIZER_HH
