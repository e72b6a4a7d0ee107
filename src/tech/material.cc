#include "material.hh"

#include <algorithm>
#include <array>
#include <cmath>

#include "util/diag.hh"
#include "util/validate.hh"

namespace cryo::tech
{

using units::Kelvin;
using units::OhmMetre;

namespace
{

/**
 * Upper integration limit for J5.  The integrand decays as t^5 e^-t,
 * so the tail beyond t = 40 contributes < 1e-9 absolute against
 * J5(inf) = 124.43 - far below the quadrature error.  Clamping keeps
 * the panel density constant in the cryogenic regime: at 4 K the
 * argument x = Theta_D/T reaches ~86-120, and spreading a fixed panel
 * count over [0, x] starves the t < 30 region that carries all the
 * mass (clamping at 30 would leave a ~3e-6 tail, worse than the
 * quadrature itself, hence 40).
 */
constexpr double kJ5ClampX = 40.0;

/** Integrand of the Bloch-Grüneisen J5 integral. */
double
j5Integrand(double t)
{
    if (t < 1e-8) {
        // t^5 / ((e^t-1)(1-e^-t)) -> t^3 as t -> 0.
        return t * t * t;
    }
    const double em = std::expm1(t);          // e^t - 1
    const double den = em * (1.0 - std::exp(-t));
    return std::pow(t, 5) / den;
}

/**
 * Cumulative table of J5 over [0, kJ5ClampX].
 *
 * J5 depends only on its argument - not on the Debye temperature - so
 * one process-wide table serves every BlochGruneisen instance; the
 * per-conductor state is just the 300 K normalization scalar.  Node
 * values come from per-interval Simpson accumulation (~1e-10 error);
 * between nodes a cubic Hermite with the *exact* end-point
 * derivatives (the integrand itself) keeps the absolute error under
 * ~5e-9, invisible at the 1e-12 absolute level the resistivity
 * anchors are tested to once scaled by rho_ph300 ~ 2e-8 Ohm*m, and
 * ~3 orders of magnitude cheaper than the direct quadrature.
 */
struct J5Table
{
    static constexpr int kIntervals = 4096;
    static constexpr double kStep = kJ5ClampX / kIntervals;

    std::array<double, kIntervals + 1> value{};
    std::array<double, kIntervals + 1> slope{};

    J5Table()
    {
        value[0] = 0.0;
        slope[0] = j5Integrand(0.0);
        for (int i = 1; i <= kIntervals; ++i) {
            const double a = kStep * (i - 1);
            const double mid = a + 0.5 * kStep;
            slope[static_cast<std::size_t>(i)] = j5Integrand(kStep * i);
            value[static_cast<std::size_t>(i)] =
                value[static_cast<std::size_t>(i - 1)]
                + kStep / 6.0
                    * (slope[static_cast<std::size_t>(i - 1)]
                       + 4.0 * j5Integrand(mid)
                       + slope[static_cast<std::size_t>(i)]);
        }
    }

    double eval(double x) const
    {
        if (x <= 0.0)
            return 0.0;
        if (x >= kJ5ClampX)
            return value[kIntervals]; // tail < 1e-9: same clamp as integralJ5
        const auto i = std::min(static_cast<std::size_t>(x / kStep),
                                static_cast<std::size_t>(kIntervals - 1));
        const double u = (x - kStep * static_cast<double>(i)) / kStep;
        const double d0 = slope[i] * kStep;
        const double d1 = slope[i + 1] * kStep;
        const double u2 = u * u;
        const double u3 = u2 * u;
        return (2.0 * u3 - 3.0 * u2 + 1.0) * value[i]
            + (u3 - 2.0 * u2 + u) * d0 + (-2.0 * u3 + 3.0 * u2) * value[i + 1]
            + (u3 - u2) * d1;
    }
};

const J5Table &
j5Table()
{
    static const J5Table table; // built once per process, thread-safe
    return table;
}

/** r^5 by multiplication: measurably cheaper than libm pow on the hot path. */
double
fifthPower(double r)
{
    const double r2 = r * r;
    return r2 * r2 * r;
}

} // namespace

double
BlochGruneisen::integralJ5(double x)
{
    if (x <= 0.0)
        return 0.0;
    // Composite Simpson over [0, min(x, kJ5ClampX)].  The clamp is the
    // cryogenic-argument fix: the old fixed-panel rule over [0, x] was
    // documented for x in [1, 10] but phononFactor at 4 K evaluates
    // x ~ 86-120, where the panels dilute across an exponentially dead
    // tail and the t < 30 mass is undersampled.  1024 panels hold the
    // quadrature error near 1e-8 absolute over the clamped range.
    const double upper = std::min(x, kJ5ClampX);
    constexpr int panels = 1024;
    const double h = upper / (2 * panels);
    double sum = j5Integrand(0.0) + j5Integrand(upper);
    for (int i = 1; i < 2 * panels; ++i) {
        const double t = h * i;
        sum += j5Integrand(t) * ((i % 2) ? 4.0 : 2.0);
    }
    return sum * h / 3.0;
}

BlochGruneisen::BlochGruneisen(Kelvin debye_temp) : debyeTemp_(debye_temp)
{
    fatalIf(debye_temp.value() <= 0.0, "Debye temperature must be positive");
    const double ratio = constants::roomTemp / debyeTemp_;
    norm300_ = fifthPower(ratio) * j5Table().eval(1.0 / ratio);
}

double
BlochGruneisen::phononFactor(Kelvin temp) const
{
    fatalIf(temp.value() <= 0.0, "temperature must be positive");
    const double ratio = temp / debyeTemp_;
    const double value = fifthPower(ratio) * j5Table().eval(1.0 / ratio);
    return value / norm300_;
}

Conductor::Conductor(OhmMetre rho_300k, OhmMetre rho_77k, Kelvin debye_temp)
    : bg_(debye_temp)
{
    Validator v{"Conductor"};
    v.positive("rho_300k", rho_300k.value())
        .positive("rho_77k", rho_77k.value())
        .require(!(rho_77k >= rho_300k),
                 "rho(77K) must be below rho(300K) for a metal")
        .done();

    const double f77 = bg_.phononFactor(constants::ln2Temp);
    // Solve [rho_res + f77 * rho_ph = rho77; rho_res + rho_ph = rho300].
    rhoPhonon300_ = (rho_300k - rho_77k) / (1.0 - f77);
    rhoResidual_ = rho_300k - rhoPhonon300_;
    if (rhoResidual_.value() < 0.0) {
        CRYO_CONTEXT("validate Conductor");
        fatal("anchors imply negative residual resistivity; "
              "rho(77K) is below the pure-phonon limit");
    }
}

OhmMetre
Conductor::resistivity(Kelvin temp) const
{
    checkedModelTemp(temp.value(), "conductor resistivity");
    return rhoResidual_ + rhoPhonon300_ * bg_.phononFactor(temp);
}

double
Conductor::resistivityRatio(Kelvin temp) const
{
    return resistivity(temp) / resistivity(constants::roomTemp);
}

} // namespace cryo::tech
