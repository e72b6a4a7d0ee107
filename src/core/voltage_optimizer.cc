#include "voltage_optimizer.hh"

#include <cmath>

#include "util/diag.hh"
#include "util/validate.hh"

namespace cryo::core
{

namespace
{

/**
 * Number of grid points in [min, max] at the given step, inclusive of
 * both ends when the step divides the range. Integer-indexed so the
 * grid never loses its last point to accumulated floating-point error
 * (min + k*step computed by repeated addition can overshoot max by an
 * ulp and silently drop the vddMax/vthMax column).
 */
long
gridPoints(double min, double max, double step)
{
    if (max < min)
        return 0;
    long n = std::lround((max - min) / step);
    // lround can overshoot when step doesn't divide the range; back
    // off until the last point is inside (tolerate exact-end ulps).
    while (n > 0 && min + static_cast<double>(n) * step >
               max + 1e-9 * step)
        --n;
    return n + 1;
}

} // namespace

void
VoltageConstraints::validate() const
{
    Validator v{"VoltageConstraints"};
    v.positive("totalPowerBudget", totalPowerBudget)
        .positive("minVdd", minVdd)
        .positive("minVddVthRatio", minVddVthRatio)
        .positive("vddStep", vddStep)
        .positive("vthStep", vthStep)
        .positive("vthMin", vthMin)
        .require(vddMax >= minVdd, "vddMax must be >= minVdd")
        .require(vthMax >= vthMin, "vthMax must be >= vthMin")
        .done();
}

VoltageOptimizer::VoltageOptimizer(
    const tech::Technology &tech,
    const pipeline::CriticalPathModel &model)
    : tech_(tech), model_(model), mcpat_(tech, /*iso_activity=*/false)
{
}

VoltagePlanPoint
VoltageOptimizer::evaluate(const pipeline::CoreConfig &core,
                           const pipeline::CoreConfig &baseline,
                           double temp_k, tech::VoltagePoint v,
                           VoltageConstraints constraints) const
{
    VoltagePlanPoint p;
    p.voltage = v;
    const auto &mosfet = tech_.mosfet();

    if (v.vdd < constraints.minVdd ||
        v.vdd < constraints.minVddVthRatio * v.vth ||
        v.vdd <= v.vth) {
        return p; // margin violation
    }
    const units::Kelvin temp{temp_k};
    p.leakageFactor = mosfet.leakageFactor(temp, v);
    if (!mosfet.voltageScalingFeasible(temp, v))
        return p; // would leak more than the 300 K baseline

    pipeline::CoreConfig candidate = core;
    candidate.tempK = temp_k;
    candidate.voltage = v;
    candidate.frequency = model_.frequency(core.stages, temp, v).value();
    const auto power = mcpat_.corePower(candidate, baseline);
    p.frequency = CRYO_CHECK_FINITE(candidate.frequency);
    p.totalPower = CRYO_CHECK_FINITE(power.total());
    p.feasible = p.totalPower <= constraints.totalPowerBudget + 1e-9;
    return p;
}

VoltagePlanPoint
VoltageOptimizer::optimize(const pipeline::CoreConfig &core,
                           const pipeline::CoreConfig &baseline,
                           double temp_k, VoltageObjective objective,
                           VoltageConstraints constraints) const
{
    CRYO_CONTEXT("voltage optimize @ " + std::to_string(temp_k) + " K");
    constraints.validate();
    fatalIf(core.stages.empty(), "core has no pipeline stages");

    const long n_vdd = gridPoints(constraints.minVdd,
                                  constraints.vddMax,
                                  constraints.vddStep);
    const long n_vth = gridPoints(constraints.vthMin,
                                  constraints.vthMax,
                                  constraints.vthStep);

    // Row-major (Vdd-major) scan; only a strictly greater score
    // replaces the best, so score ties keep the first point.
    VoltagePlanPoint best;
    double best_score = -1.0;
    for (long i = 0; i < n_vdd; ++i) {
        for (long j = 0; j < n_vth; ++j) {
            const tech::VoltagePoint v{
                constraints.minVdd +
                    static_cast<double>(i) * constraints.vddStep,
                constraints.vthMin +
                    static_cast<double>(j) * constraints.vthStep};
            const VoltagePlanPoint p =
                evaluate(core, baseline, temp_k, v, constraints);
            if (!p.feasible)
                continue;
            const double score = objective == VoltageObjective::Frequency
                ? p.frequency
                : p.frequency / p.totalPower;
            if (score > best_score) {
                best_score = score;
                best = p;
            }
        }
    }
    return best;
}

} // namespace cryo::core
