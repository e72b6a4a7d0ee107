#include "sweep_spec.hh"

#include <fstream>
#include <sstream>

#include "util/diag.hh"

namespace cryo::dse
{

namespace
{

[[noreturn]] void
specError(const JsonValue &v, const std::string &what)
{
    fatal("sweep spec at line " + std::to_string(v.line()) +
          ", column " + std::to_string(v.column()) + ": " + what);
}

/** Expand a {"from", "to", "steps"} range into concrete numbers. */
std::vector<JsonValue>
expandRange(const JsonValue &range)
{
    for (const JsonValue::Member &m : range.members())
        if (m.first != "from" && m.first != "to" && m.first != "steps")
            specError(m.second,
                      "unknown range key \"" + m.first +
                          "\" (expected from, to, steps)");
    const double from = range.at("from").asNumber();
    const double to = range.at("to").asNumber();
    const std::int64_t steps = range.at("steps").asInteger();
    if (steps < 1)
        specError(range.at("steps"), "range needs at least one step");
    if (steps == 1 && from != to)
        specError(range.at("steps"),
                  "a one-step range needs from == to");

    std::vector<JsonValue> out;
    out.reserve(static_cast<std::size_t>(steps));
    for (std::int64_t k = 0; k < steps; ++k) {
        // Endpoints are emitted exactly; interior points use the
        // closed-form lerp so the list is independent of any running
        // accumulation order.
        double v;
        if (k == 0)
            v = from;
        else if (k == steps - 1)
            v = to;
        else
            v = from +
                (to - from) * static_cast<double>(k) /
                    static_cast<double>(steps - 1);
        out.push_back(JsonValue::makeNumber(v));
    }
    return out;
}

SweepAxis
parseAxis(const JsonValue &axis)
{
    for (const JsonValue::Member &m : axis.members())
        if (m.first != "field" && m.first != "values" &&
            m.first != "range")
            specError(m.second, "unknown axis key \"" + m.first +
                                    "\" (expected field, values or "
                                    "range)");
    SweepAxis out;
    out.field = axis.at("field").asString();
    const JsonValue *values = axis.find("values");
    const JsonValue *range = axis.find("range");
    if ((values != nullptr) == (range != nullptr))
        specError(axis, "axis \"" + out.field +
                            "\" needs exactly one of \"values\" or "
                            "\"range\"");
    if (values != nullptr)
        out.values = values->items();
    else
        out.values = expandRange(*range);
    if (out.values.empty())
        specError(axis, "axis \"" + out.field + "\" has no values");
    return out;
}

} // namespace

SweepSpec
SweepSpec::fromJson(const JsonValue &root)
{
    SweepSpec spec;
    for (const JsonValue::Member &m : root.members()) {
        if (m.first == "name") {
            spec.name_ = m.second.asString();
        } else if (m.first == "base") {
            spec.base_ = DesignPoint::fromJson(m.second);
        } else if (m.first == "axes") {
            for (const JsonValue &axis : m.second.items())
                spec.axes_.push_back(parseAxis(axis));
        } else if (m.first == "points") {
            for (const JsonValue &point : m.second.items()) {
                DesignPoint p = spec.base_;
                for (const JsonValue::Member &f : point.members())
                    p.setField(f.first, f.second);
                p.validate();
                spec.extraPoints_.push_back(std::move(p));
            }
        } else {
            specError(m.second,
                      "unknown spec key \"" + m.first +
                          "\" (expected name, base, axes, points)");
        }
    }

    // Dry-run every axis value through setField so unknown fields and
    // kind mismatches fail here, with source positions, instead of at
    // point N of a long sweep. validate() is deferred to point(): a
    // value may only be consistent in combination (vdd with vth).
    for (const SweepAxis &axis : spec.axes_)
        for (const JsonValue &v : axis.values) {
            DesignPoint probe = spec.base_;
            probe.setField(axis.field, v);
        }

    return spec;
}

SweepSpec
SweepSpec::load(const std::string &path)
{
    std::ifstream in{path};
    fatalIf(!in, "cannot open sweep spec \"" + path + "\"");
    std::ostringstream text;
    text << in.rdbuf();
    fatalIf(in.bad(), "I/O error reading sweep spec \"" + path + "\"");
    const JsonValue root = parseJson(text.str(), path);
    try {
        return fromJson(root);
    } catch (const FatalError &e) {
        fatal(path + ": " + e.message());
    }
}

std::size_t
SweepSpec::pointCount() const
{
    std::size_t n = 1;
    for (const SweepAxis &axis : axes_)
        n *= axis.values.size();
    if (axes_.empty() && !extraPoints_.empty())
        n = 0; // explicit-points-only spec does not sweep the base
    return n + extraPoints_.size();
}

DesignPoint
SweepSpec::point(std::size_t index) const
{
    const std::size_t total = pointCount();
    fatalIf(index >= total, "sweep point index " +
                                std::to_string(index) +
                                " out of range (spec has " +
                                std::to_string(total) + " points)");
    const std::size_t grid = total - extraPoints_.size();
    if (index >= grid)
        return extraPoints_[index - grid];

    DesignPoint p = base_;
    // Mixed-radix decomposition, last axis fastest.
    std::size_t rest = index;
    for (std::size_t a = axes_.size(); a-- > 0;) {
        const SweepAxis &axis = axes_[a];
        const std::size_t digit = rest % axis.values.size();
        rest /= axis.values.size();
        p.setField(axis.field, axis.values[digit]);
    }
    p.validate();
    return p;
}

} // namespace cryo::dse
