#include "design_point.hh"

#include <array>
#include <cmath>
#include <limits>

#include "util/diag.hh"
#include "util/validate.hh"

namespace cryo::dse
{

double
unsetField()
{
    return std::numeric_limits<double>::quiet_NaN();
}

bool
fieldIsSet(double v)
{
    return !std::isnan(v);
}

DesignPoint::DesignPoint()
    : tempK(unsetField()), vdd(unsetField()), vth(unsetField()),
      mosfetAlpha(unsetField())
{
}

namespace
{

/** Known design presets (SystemBuilder families). */
const std::array<const char *, 7> kDesigns = {
    "baseline300-mesh", "chp-mesh77",   "cryosp-mesh77",
    "chp-cryobus77",    "cryosp-cryobus77", "ideal-noc77",
    "shared-bus77",
};

/** Known workload suites. */
const std::array<const char *, 4> kSuites = {
    "parsec21",
    "spec-rate",
    "spec-rate-prefetch",
    "cloudsuite",
};

/**
 * One row of the field registry. The registry is the single source of
 * truth for canonical order: fieldNames, setField, hashInto,
 * writeJson, fromJson, and the CSV rendering all walk this table, so
 * they cannot drift apart.
 */
struct FieldDef
{
    enum class Kind
    {
        Number,    ///< plain double, always set
        OptNumber, ///< double override; NaN = unset, JSON null
        Boolean,
        Integer,   ///< int member, whole JSON number required
        Seed,      ///< uint64 member, non-negative whole number
        String,
    };

    const char *name;
    Kind kind;
    double DesignPoint::*num = nullptr;
    bool DesignPoint::*flag = nullptr;
    int DesignPoint::*integer = nullptr;
    std::uint64_t DesignPoint::*wide = nullptr;
    std::string DesignPoint::*text = nullptr;

    /**
     * The window of a number field that does not depend on the other
     * fields (null: none), and what validate() reports for a value
     * outside it. setField checks it too, citing the value's position,
     * so a sweep spec fails at load, not at the point that uses it.
     */
    bool (*inWindow)(double) = nullptr;
    const char *window = nullptr;
};

using K = FieldDef::Kind;

/** Canonical field order. Append only; bump kSchema on change. */
const std::array<FieldDef, 13> kFields = {{
    {.name = "design", .kind = K::String, .text = &DesignPoint::design},
    {.name = "tempK", .kind = K::OptNumber, .num = &DesignPoint::tempK},
    {.name = "vdd", .kind = K::OptNumber, .num = &DesignPoint::vdd},
    {.name = "vth", .kind = K::OptNumber, .num = &DesignPoint::vth},
    {.name = "nodeNm", .kind = K::Number, .num = &DesignPoint::nodeNm,
     .inWindow = [](double v) { return v >= 5.0 && v <= 90.0; },
     .window = "nodeNm must lie in the 5-90 nm scaling window"},
    {.name = "thickWire", .kind = K::Boolean,
     .flag = &DesignPoint::thickWire},
    // Inside MosfetParams' [0, 2): at 2 every evaluation would fail.
    {.name = "mosfetAlpha", .kind = K::OptNumber,
     .num = &DesignPoint::mosfetAlpha,
     .inWindow = [](double v) { return v > 0.0 && v < 2.0; },
     .window = "mosfetAlpha must lie in (0, 2)"},
    {.name = "floorplanScale", .kind = K::Number,
     .num = &DesignPoint::floorplanScale,
     .inWindow = [](double v) { return v > 0.0 && v <= 4.0; },
     .window = "floorplanScale must lie in (0, 4]"},
    {.name = "cores", .kind = K::Integer,
     .integer = &DesignPoint::cores},
    {.name = "busWays", .kind = K::Integer,
     .integer = &DesignPoint::busWays},
    {.name = "suite", .kind = K::String, .text = &DesignPoint::suite},
    {.name = "workload", .kind = K::String,
     .text = &DesignPoint::workload},
    {.name = "seed", .kind = K::Seed, .wide = &DesignPoint::seed},
}};

const FieldDef *
findField(const std::string &name)
{
    for (const FieldDef &f : kFields)
        if (name == f.name)
            return &f;
    return nullptr;
}

std::string
legalFieldNames()
{
    std::string out;
    for (const FieldDef &f : kFields) {
        if (!out.empty())
            out += ", ";
        out += f.name;
    }
    return out;
}

[[noreturn]] void
fieldError(const JsonValue &v, const std::string &what)
{
    fatal("design-point field at line " + std::to_string(v.line()) +
          ", column " + std::to_string(v.column()) + ": " + what);
}

} // namespace

const std::vector<std::string> &
DesignPoint::fieldNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        out.reserve(kFields.size());
        for (const FieldDef &f : kFields)
            out.emplace_back(f.name);
        return out;
    }();
    return names;
}

void
DesignPoint::setField(const std::string &name, const JsonValue &value)
{
    const FieldDef *f = findField(name);
    if (f == nullptr)
        fieldError(value, "unknown field \"" + name +
                              "\" (legal fields: " + legalFieldNames() +
                              ")");
    switch (f->kind) {
    case K::Number:
    case K::OptNumber: {
        const double v = f->kind == K::OptNumber && value.isNull()
                             ? unsetField()
                             : value.asNumber();
        if (fieldIsSet(v) && f->inWindow != nullptr && !f->inWindow(v))
            fieldError(value, f->window);
        this->*(f->num) = v;
        break;
    }
    case K::Boolean:
        this->*(f->flag) = value.asBool();
        break;
    case K::Integer: {
        const std::int64_t v = value.asInteger();
        if (v < std::numeric_limits<int>::min() ||
            v > std::numeric_limits<int>::max())
            fieldError(value, "\"" + name + "\" out of int range");
        this->*(f->integer) = static_cast<int>(v);
        break;
    }
    case K::Seed: {
        const std::int64_t v = value.asInteger();
        if (v < 0)
            fieldError(value, "\"" + name + "\" must be non-negative");
        this->*(f->wide) = static_cast<std::uint64_t>(v);
        break;
    }
    case K::String:
        this->*(f->text) = value.asString();
        break;
    }
}

void
DesignPoint::hashInto(Fnv1a &h) const
{
    h.u64(kSchema);
    for (const FieldDef &f : kFields) {
        h.str(f.name);
        switch (f.kind) {
        case K::Number:
        case K::OptNumber:
            h.f64(this->*(f.num));
            break;
        case K::Boolean:
            h.b(this->*(f.flag));
            break;
        case K::Integer:
            h.i64(this->*(f.integer));
            break;
        case K::Seed:
            h.u64(this->*(f.wide));
            break;
        case K::String:
            h.str(this->*(f.text));
            break;
        }
    }
}

std::uint64_t
DesignPoint::hash() const
{
    Fnv1a h;
    hashInto(h);
    return h.digest();
}

std::string
DesignPoint::hashHex() const
{
    return cryo::hashHex(hash());
}

void
DesignPoint::writeJson(JsonWriter &w) const
{
    w.beginObject();
    for (const FieldDef &f : kFields) {
        w.key(f.name);
        switch (f.kind) {
        case K::Number:
        case K::OptNumber:
            // JsonWriter emits null for non-finite values, which is
            // exactly the unset encoding fromJson expects back.
            w.value(this->*(f.num));
            break;
        case K::Boolean:
            w.value(this->*(f.flag));
            break;
        case K::Integer:
            w.value(this->*(f.integer));
            break;
        case K::Seed:
            w.value(this->*(f.wide));
            break;
        case K::String:
            w.value(this->*(f.text));
            break;
        }
    }
    w.endObject();
}

DesignPoint
DesignPoint::fromJson(const JsonValue &obj)
{
    DesignPoint p;
    for (const JsonValue::Member &m : obj.members())
        p.setField(m.first, m.second);
    return p;
}

void
DesignPoint::validate() const
{
    Validator v{"DesignPoint"};

    bool known_design = false;
    for (const char *d : kDesigns)
        known_design = known_design || design == d;
    v.require(known_design, "unknown design \"" + design + "\"");

    bool known_suite = false;
    for (const char *s : kSuites)
        known_suite = known_suite || suite == s;
    v.require(known_suite, "unknown suite \"" + suite + "\"");

    if (fieldIsSet(tempK)) {
        v.require(design == "cryosp-cryobus77",
                  "tempK override is only supported by the "
                  "\"cryosp-cryobus77\" design (the Fig. 27 "
                  "interpolation family)");
        v.require(tempK >= 77.0 && tempK <= 300.0,
                  "tempK must lie in the interpolated 77-300 K window");
    }

    v.require(fieldIsSet(vdd) == fieldIsSet(vth),
              "vdd and vth must be overridden together");
    if (fieldIsSet(vdd)) {
        v.require(vdd > 0.0 && vdd <= 2.0,
                  "vdd must lie in (0, 2] V");
        v.require(vth > 0.0 && vth < vdd, "need 0 < vth < vdd");
    }

    for (const FieldDef &f : kFields) {
        if (f.inWindow == nullptr)
            continue;
        const double x = this->*(f.num);
        if (f.kind == K::Number || fieldIsSet(x))
            v.require(f.inWindow(x), f.window);
    }
    v.atLeast("cores", cores, 2).atLeast("busWays", busWays, 1);
    if (busWays > 1)
        v.require(design == "cryosp-cryobus77",
                  "busWays > 1 needs the CryoBus design");
    v.done();
}

void
DesignPoint::appendCsv(std::vector<std::string> &cells) const
{
    for (const FieldDef &f : kFields) {
        switch (f.kind) {
        case K::Number:
        case K::OptNumber: {
            const double v = this->*(f.num);
            cells.push_back(fieldIsSet(v) ? formatDouble(v)
                                          : std::string{});
            break;
        }
        case K::Boolean:
            cells.push_back(this->*(f.flag) ? "true" : "false");
            break;
        case K::Integer:
            cells.push_back(std::to_string(this->*(f.integer)));
            break;
        case K::Seed:
            cells.push_back(std::to_string(this->*(f.wide)));
            break;
        case K::String:
            cells.push_back(this->*(f.text));
            break;
        }
    }
}

bool
DesignPoint::operator==(const DesignPoint &other) const
{
    Fnv1a a, b;
    hashInto(a);
    other.hashInto(b);
    // Canonical bytes are injective over the field values (length
    // prefixes, fixed order), so digest equality is the right notion
    // of equality for cache keys; a 64-bit collision is the cache's
    // accepted risk and equality mirrors it.
    return a.digest() == b.digest();
}

} // namespace cryo::dse
