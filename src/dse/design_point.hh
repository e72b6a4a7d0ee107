/**
 * @file
 * DesignPoint: the value-semantic configuration surface of the whole
 * model stack.
 *
 * One DesignPoint names everything the evaluator needs to reproduce a
 * result bit-for-bit: the technology corner (node, device card
 * overrides), the floorplan scale, the system preset with its
 * temperature/voltage/bus overrides, the workload selection, and the
 * seed. The contract is strict value semantics:
 *
 *  - evaluation is a *pure function* of the DesignPoint (plus the
 *    calibrated constants compiled into the library);
 *  - two points with equal content hash equally, on every platform,
 *    across rebuilds - hash() runs FNV-1a over a canonical
 *    field-order byte encoding (util/hash.hh documents it), never
 *    over in-memory object bytes;
 *  - the DSE result cache keys entries by that hash, so any change to
 *    the field list, field order, or encoding is a cache-format break
 *    and must update kSchema (pinned digests in tests/test_dse.cc
 *    make silent drift a test failure).
 *
 * Fields are plain members (the repo's config-struct idiom); the
 * immutability is contractual: the sweep engine constructs points,
 * hands them out by const reference, and never mutates one after its
 * hash has been taken.
 */

#ifndef CRYOWIRE_DSE_DESIGN_POINT_HH
#define CRYOWIRE_DSE_DESIGN_POINT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "util/hash.hh"
#include "util/json.hh"

namespace cryo::dse
{

/**
 * Canonical-encoding schema tag, folded into every hash. Bump it when
 * the field list, field order, or byte encoding changes so stale
 * caches miss cleanly instead of replaying wrong results.
 */
inline constexpr std::uint32_t kSchema = 1;

/** Marker for "use the preset's own value" on double overrides. */
double unsetField();

/** True when @p v is a set (non-sentinel) override. */
bool fieldIsSet(double v);

/**
 * One complete design point. Field declaration order here IS the
 * canonical serialization/hash/CSV order - append new fields at the
 * end and bump kSchema.
 */
struct DesignPoint
{
    /**
     * System preset: one of the SystemBuilder families -
     * "baseline300-mesh", "chp-mesh77", "cryosp-mesh77",
     * "chp-cryobus77", "cryosp-cryobus77", "ideal-noc77",
     * "shared-bus77".
     */
    std::string design = "cryosp-cryobus77";

    /**
     * Operating-temperature override [K]; unset = the preset's
     * published point. Only the "cryosp-cryobus77" family supports it
     * (SystemBuilder::atTemperature interpolates that design between
     * the 77 K and 300 K corners - the Fig. 27 sweep); other presets
     * reject the override in validate().
     */
    double tempK;

    /** Core Vdd override [V]; set both or neither with vth. */
    double vdd;

    /** Core Vth override [V]. */
    double vth;

    /** Technology node [nm]; 45 is the calibrated FreePDK45 corner. */
    double nodeNm = 45.0;

    /** Draw semi-global wires at double width (Section 7.5). */
    bool thickWire = false;

    /** Alpha-power exponent override; unset = the card's 0.673. */
    double mosfetAlpha;

    /** Floorplan area scale (CryoCore-style down-sizing axis). */
    double floorplanScale = 1.0;

    /** Core count of the system. */
    int cores = 64;

    /** CryoBus address-interleaving ways (Section 7.1). */
    int busWays = 1;

    /**
     * Workload suite: "parsec21", "spec-rate" (plain SPEC),
     * "spec-rate-prefetch" (aggressive prefetcher), "cloudsuite".
     */
    std::string suite = "parsec21";

    /** Single workload by name; empty = whole-suite mean. */
    std::string workload;

    /** Base RNG seed for stochastic evaluators (netsim-backed). */
    std::uint64_t seed = 1;

    DesignPoint();

    /** Names of every field, in canonical order. */
    static const std::vector<std::string> &fieldNames();

    /**
     * Set one field by name from a parsed JSON value (the sweep-spec
     * path). Unknown names, wrong kinds, and non-integer counts throw
     * cryo::FatalError citing the value's source position and listing
     * the legal field names.
     */
    void setField(const std::string &name, const JsonValue &value);

    /** Feed the canonical byte encoding of every field into @p h. */
    void hashInto(Fnv1a &h) const;

    /** The 64-bit content hash (kSchema + canonical fields). */
    std::uint64_t hash() const;

    /** hash() as 16 lowercase hex digits (the cache key string). */
    std::string hashHex() const;

    /**
     * Emit the point as a JSON object, fields in canonical order;
     * unset double overrides emit null. writeJson followed by
     * fromJson is the identity.
     */
    void writeJson(JsonWriter &w) const;

    /** Rebuild a point from a parsed JSON object (strict fields). */
    static DesignPoint fromJson(const JsonValue &obj);

    /**
     * Range/consistency validation: known design and suite names,
     * physical temperature/voltage/node windows, both-or-neither
     * vdd/vth, busWays only on the bus design, tempK only where
     * supported. Throws cryo::FatalError naming every offence.
     */
    void validate() const;

    /** Append every field as CSV cells, in fieldNames() order. */
    void appendCsv(std::vector<std::string> &cells) const;

    bool operator==(const DesignPoint &other) const;
};

} // namespace cryo::dse

#endif // CRYOWIRE_DSE_DESIGN_POINT_HH
