/**
 * @file
 * Temperature-dependent electrical resistivity of interconnect metal.
 *
 * The paper's cryo-wire model consumes measured Intel-45nm resistivity
 * at 300 K and 77 K [44, 52] and interpolates. We reproduce that with a
 * physical decomposition (Matthiessen's rule):
 *
 *   rho(T) = rho_residual + rho_phonon(T)
 *
 * where rho_phonon follows the Bloch-Grüneisen law for copper
 * (Debye temperature 343 K) and rho_residual lumps impurity, surface
 * (Fuchs-Sondheimer), and grain-boundary (Mayadas-Shatzkes) scattering,
 * which are approximately temperature-independent. Thinner wires have a
 * larger residual term, so their cryogenic gain is smaller - exactly the
 * size effect reported by Plombon et al. [52].
 */

#ifndef CRYOWIRE_TECH_MATERIAL_HH
#define CRYOWIRE_TECH_MATERIAL_HH

#include "util/units.hh"

namespace cryo::tech
{

/**
 * Bloch-Grüneisen phonon-resistivity curve, normalized so that
 * phononFactor(300 K) == 1.
 *
 * phononFactor runs off a process-wide cumulative interpolation table
 * of J5 (values plus exact integrand derivatives, cubic Hermite in
 * between) instead of re-running the quadrature per call; the table
 * is built once on first use and shared by every instance, since J5
 * is independent of the Debye temperature.
 */
class BlochGruneisen
{
  public:
    /** @param debye_temp Debye temperature (343 K for copper). */
    explicit BlochGruneisen(units::Kelvin debye_temp = units::Kelvin{343.0});

    /** rho_phonon(T) / rho_phonon(300 K). */
    double phononFactor(units::Kelvin temp) const;

    units::Kelvin debyeTemp() const { return debyeTemp_; }

    /**
     * The raw Bloch-Grüneisen integral J5(x) = int_0^x t^5 /
     * ((e^t - 1)(1 - e^-t)) dt, evaluated numerically.  The
     * integration range is clamped to min(x, 40): the integrand decays
     * as t^5 e^-t, so the discarded tail is < 1e-9 absolute while the
     * clamp keeps the Simpson panels dense where the mass is even for
     * the cryogenic arguments (x = Theta_D/T ~ 86-120 at 4 K) that the
     * old fixed-panel rule over the full [0, x] handled poorly.
     */
    static double integralJ5(double x);

  private:
    units::Kelvin debyeTemp_;
    double norm300_; ///< (300/Theta)^5 * J5(Theta/300), cached.
};

/**
 * A conductor with Matthiessen decomposition into residual and phonon
 * resistivity.
 */
class Conductor
{
  public:
    /**
     * @param rho_300k   total resistivity at 300 K
     * @param rho_77k    total resistivity at 77 K (measured anchor)
     * @param debye_temp Debye temperature for the phonon curve
     *
     * The residual term is solved from the two anchors:
     *   rho_77k = rho_res + f(77) * rho_ph300
     *   rho_300k = rho_res + rho_ph300
     */
    Conductor(units::OhmMetre rho_300k, units::OhmMetre rho_77k,
              units::Kelvin debye_temp = units::Kelvin{343.0});

    /** Total resistivity at @p temp. */
    units::OhmMetre resistivity(units::Kelvin temp) const;

    /** rho(T) / rho(300 K): < 1 below room temperature. */
    double resistivityRatio(units::Kelvin temp) const;

    units::OhmMetre residualResistivity() const { return rhoResidual_; }
    units::OhmMetre phononResistivity300() const { return rhoPhonon300_; }

  private:
    BlochGruneisen bg_;
    units::OhmMetre rhoResidual_;
    units::OhmMetre rhoPhonon300_;
};

} // namespace cryo::tech

#endif // CRYOWIRE_TECH_MATERIAL_HH
