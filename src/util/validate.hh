/**
 * @file
 * Config validation: every config struct in the model stack gets a
 * validate() method built on this Validator, called at model
 * construction. A Validator accumulates every offending field (not
 * just the first) and done() throws one cryo::FatalError listing them
 * all, under a "validate <Subject>" context frame - so a fault-injected
 * NaN is reported by name at the point it enters the stack instead of
 * surfacing cycles later as a silently-wrong anchored metric. The
 * subject is rendered only then, so a clean pass allocates nothing.
 *
 * Also home of the temperature validity window shared by the material,
 * device, and cooling models: queries outside [kMinModelTempK,
 * kMaxModelTempK] are domain errors, not extrapolations.
 */

#ifndef CRYOWIRE_UTIL_VALIDATE_HH
#define CRYOWIRE_UTIL_VALIDATE_HH

#include <cmath>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "util/diag.hh"

namespace cryo
{

/**
 * Validity window of the calibrated material/device models [K]. The
 * Bloch-Grüneisen curve and the drive-gain anchors span 4 K..300 K;
 * we allow modest hot-side headroom but refuse temperatures the
 * models were never calibrated for.
 */
constexpr double kMinModelTempK = 4.0;
constexpr double kMaxModelTempK = 400.0;

/**
 * Accumulates range/consistency offences for one named config object;
 * done() throws a single FatalError naming all of them.
 */
class Validator
{
  public:
    /** Subject "@p kind" ("Widget"). */
    explicit Validator(const char *kind) : kind_(kind) {}

    /**
     * Subject "@p kind @p name" ("Workload x264"), even for an empty
     * name; @p name must outlive the validator.
     */
    Validator(const char *kind, std::string_view name)
        : kind_(kind), name_(name), named_(true)
    {
    }

    /** @p v must not be NaN or infinite. */
    Validator &
    finite(const char *field, double v)
    {
        if (!std::isfinite(v))
            fail(field, v, "must be finite");
        return *this;
    }

    /** Finite and strictly positive. */
    Validator &
    positive(const char *field, double v)
    {
        if (!(std::isfinite(v) && v > 0.0))
            fail(field, v, "must be finite and > 0");
        return *this;
    }

    /** Finite and >= 0. */
    Validator &
    nonNegative(const char *field, double v)
    {
        if (!(std::isfinite(v) && v >= 0.0))
            fail(field, v, "must be finite and >= 0");
        return *this;
    }

    /** Finite and within [lo, hi]. */
    Validator &
    inRange(const char *field, double v, double lo, double hi)
    {
        if (!(std::isfinite(v) && v >= lo && v <= hi)) {
            std::ostringstream what;
            what << "must be in [" << lo << ", " << hi << "]";
            fail(field, v, what.str());
        }
        return *this;
    }

    /** Finite and within the half-open [lo, hi). */
    Validator &
    inRightOpen(const char *field, double v, double lo, double hi)
    {
        if (!(std::isfinite(v) && v >= lo && v < hi)) {
            std::ostringstream what;
            what << "must be in [" << lo << ", " << hi << ")";
            fail(field, v, what.str());
        }
        return *this;
    }

    /** Integer field with a minimum. */
    Validator &
    atLeast(const char *field, long v, long min)
    {
        if (v < min) {
            std::ostringstream os;
            os << field << " = " << v << " must be >= " << min;
            errors_.push_back(os.str());
        }
        return *this;
    }

    /** Temperature within the calibrated model window. */
    Validator &
    temperature(const char *field, double kelvin)
    {
        return inRange(field, kelvin, kMinModelTempK, kMaxModelTempK);
    }

    /** Cross-field consistency: record @p what unless @p ok. */
    Validator &
    require(bool ok, const std::string &what)
    {
        if (!ok)
            errors_.push_back(what);
        return *this;
    }

    bool ok() const { return errors_.empty(); }
    const std::vector<std::string> &errors() const { return errors_; }

    /** Throw one FatalError listing every offence (no-op when clean). */
    void
    done() const
    {
        if (errors_.empty())
            return;
        std::string subject = kind_;
        if (named_)
            subject.append(" ").append(name_);
        CRYO_CONTEXT("validate " + subject);
        std::string msg = "invalid " + subject + ": ";
        for (std::size_t i = 0; i < errors_.size(); ++i) {
            if (i > 0)
                msg += "; ";
            msg += errors_[i];
        }
        fatal(msg);
    }

  private:
    void
    fail(const char *field, double v, const std::string &what)
    {
        std::ostringstream os;
        os << field << " = " << v << " " << what;
        errors_.push_back(os.str());
    }

    const char *kind_;
    std::string_view name_;
    bool named_ = false;
    std::vector<std::string> errors_;
};

/**
 * Domain guard for model queries: fatal (under a @p where context
 * frame) when @p kelvin is outside the calibrated window. Returns the
 * validated temperature so call sites can wrap an argument in place.
 */
inline double
checkedModelTemp(double kelvin, const char *where)
{
    if (!(kelvin >= kMinModelTempK && kelvin <= kMaxModelTempK)) {
        CRYO_CONTEXT(std::string(where));
        std::ostringstream os;
        os << "temperature " << kelvin << " K outside the model "
           << "validity window [" << kMinModelTempK << ", "
           << kMaxModelTempK << "] K";
        fatal(os.str());
    }
    return kelvin;
}

} // namespace cryo

#endif // CRYOWIRE_UTIL_VALIDATE_HH
