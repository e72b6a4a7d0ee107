/**
 * @file
 * Sweep specification: the JSON description of a design-space region.
 *
 * A spec names a base DesignPoint, a list of axes (each a field plus a
 * value list or range), and optionally extra explicit points. The swept
 * set is the cross-product of the axes applied to the base - axes in
 * listed order, the last axis varying fastest - followed by the
 * explicit points. Point index i in [0, pointCount()) is the canonical
 * enumeration order every shard, cache, and result file agrees on.
 *
 * Schema (EXPERIMENTS.md has the full reference):
 * @code
 *   {
 *     "name": "fig27-temperature",
 *     "base": { "design": "cryosp-cryobus77", "suite": "spec-rate" },
 *     "axes": [
 *       { "field": "tempK",
 *         "range": { "from": 77, "to": 300, "steps": 24 } },
 *       { "field": "busWays", "values": [1, 2, 4] }
 *     ],
 *     "points": [ { "design": "baseline300-mesh" } ]
 *   }
 * @endcode
 */

#ifndef CRYOWIRE_DSE_SWEEP_SPEC_HH
#define CRYOWIRE_DSE_SWEEP_SPEC_HH

#include <cstddef>
#include <string>
#include <vector>

#include "dse/design_point.hh"
#include "util/json.hh"

namespace cryo::dse
{

/** One sweep axis: a DesignPoint field and its concrete values. */
struct SweepAxis
{
    std::string field;
    /** Expanded value list (ranges are materialized at parse time). */
    std::vector<JsonValue> values;
};

/**
 * A parsed, validated sweep specification. Points are materialized
 * lazily by index so a million-point spec costs a few hundred bytes
 * until evaluated.
 */
class SweepSpec
{
  public:
    /**
     * Parse a spec from a JSON document. Unknown top-level keys,
     * unknown axis fields, empty axes, and malformed ranges throw
     * cryo::FatalError citing the offending value's position. Every
     * axis value is dry-run through DesignPoint::setField so a typo or
     * a value outside its field's window fails at load, not mid-sweep.
     */
    static SweepSpec fromJson(const JsonValue &root);

    /**
     * Read and parse @p path. I/O failure is fatal, and so is anything
     * fromJson rejects, with @p path in front of its message.
     */
    static SweepSpec load(const std::string &path);

    const std::string &name() const { return name_; }
    const DesignPoint &base() const { return base_; }
    const std::vector<SweepAxis> &axes() const { return axes_; }

    /** Cross-product size plus explicit points. */
    std::size_t pointCount() const;

    /**
     * Materialize point @p index: base, then each axis value at the
     * index's mixed-radix digit (last axis fastest), then validate().
     * Indices past the cross-product select the explicit points.
     */
    DesignPoint point(std::size_t index) const;

  private:
    std::string name_ = "sweep";
    DesignPoint base_;
    std::vector<SweepAxis> axes_;
    std::vector<DesignPoint> extraPoints_;
};

} // namespace cryo::dse

#endif // CRYOWIRE_DSE_SWEEP_SPEC_HH
