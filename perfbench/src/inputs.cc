#include "inputs.hh"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>

#include "util/json.hh"
#include "util/rng.hh"

namespace perfbench
{

namespace
{

/** Rounded so the spec text and the parsed double agree exactly. */
double
roundTo(double x, double step)
{
    return std::round(x / step) * step;
}

/** @p n distinct sorted values in [lo, hi], seeded. */
std::vector<double>
distinctValues(cryo::Rng &rng, int n, double lo, double hi, double step)
{
    std::set<double> picked;
    while (static_cast<int>(picked.size()) < n)
        picked.insert(roundTo(lo + (hi - lo) * rng.uniform(), step));
    return {picked.begin(), picked.end()};
}

void
writeNumbers(cryo::JsonWriter &w, const std::vector<double> &values)
{
    w.beginArray();
    for (double v : values)
        w.value(v);
    w.endArray();
}

/** A cheap single-workload point drawn from @p rng. */
cryo::dse::DesignPoint
randomServePoint(cryo::Rng &rng)
{
    static const double kNodes[] = {45.0, 22.0, 14.0};
    static const double kScales[] = {0.85, 1.0, 1.15, 1.3};
    cryo::dse::DesignPoint p;
    p.tempK = roundTo(77.0 + 223.0 * rng.uniform(), 0.001);
    p.tempK = std::clamp(p.tempK, 77.0, 300.0);
    p.workload = parsecWorkloads()[rng.below(parsecWorkloads().size())];
    p.busWays = 1 + static_cast<int>(rng.below(2));
    p.nodeNm = kNodes[rng.below(3)];
    p.floorplanScale = kScales[rng.below(4)];
    return p;
}

} // namespace

const std::vector<std::string> &
parsecWorkloads()
{
    static const std::vector<std::string> names = {
        "blackscholes", "canneal",  "dedup",         "ferret",
        "fluidanimate", "freqmine", "raytrace",      "streamcluster",
        "swaptions",    "x264"};
    return names;
}

std::string
dseSpecJson(std::uint64_t seed, const GridShape &shape)
{
    cryo::Rng rng{cryo::Rng::deriveSeed(seed, 0xd5e)};
    const std::vector<double> temps =
        distinctValues(rng, shape.tempSteps, 77.0, 300.0, 0.001);
    const std::vector<double> scales =
        distinctValues(rng, shape.scaleSteps, 0.8, 1.3, 0.001);

    std::ostringstream out;
    cryo::JsonWriter w{out};
    w.beginObject();
    w.key("name").value("perfbench-dse-grid-" + std::to_string(seed));
    w.key("base").beginObject();
    w.key("design").value("cryosp-cryobus77");
    w.key("suite").value("parsec21");
    w.endObject();
    w.key("axes").beginArray();
    w.beginObject().key("field").value("tempK").key("values");
    writeNumbers(w, temps);
    w.endObject();
    w.beginObject().key("field").value("workload").key("values");
    w.beginArray();
    for (const std::string &name : parsecWorkloads())
        w.value(name);
    w.value(""); // whole-suite mean
    w.endArray();
    w.endObject();
    w.beginObject().key("field").value("busWays").key("values");
    writeNumbers(w, {1.0, 2.0});
    w.endObject();
    w.beginObject().key("field").value("floorplanScale").key("values");
    writeNumbers(w, scales);
    w.endObject();
    w.beginObject().key("field").value("nodeNm").key("values");
    writeNumbers(w, {45.0, 22.0, 14.0});
    w.endObject();
    w.endArray();
    w.endObject();
    out << '\n';
    return out.str();
}

std::size_t
gridPoints(const GridShape &shape)
{
    return static_cast<std::size_t>(shape.tempSteps) *
        (parsecWorkloads().size() + 1) * 2 *
        static_cast<std::size_t>(shape.scaleSteps) * 3;
}

std::size_t
ServePlan::requests() const
{
    std::size_t n = 0;
    for (const Slot &s : slots)
        n += s.kind == SlotKind::kPair ? 2 : 1;
    return n;
}

std::string
ServePlan::render() const
{
    std::ostringstream out;
    out << "preloaded " << preloaded << '\n';
    for (const cryo::dse::DesignPoint &p : points)
        out << p.hashHex() << '\n';
    for (const Slot &s : slots)
        out << s.dueUs << ' ' << static_cast<int>(s.kind) << ' '
            << s.point << ' ' << s.conn << '\n';
    return out.str();
}

ServePlan
makeServePlan(std::uint64_t seed, const ServeShape &shape)
{
    cryo::Rng rng{cryo::Rng::deriveSeed(seed, 0x5e7e)};
    ServePlan plan;
    std::set<std::uint64_t> seen;
    const auto fresh = [&]() -> std::size_t {
        for (;;) {
            cryo::dse::DesignPoint p = randomServePoint(rng);
            if (seen.insert(p.hash()).second) {
                plan.points.push_back(std::move(p));
                return plan.points.size() - 1;
            }
        }
    };
    for (std::size_t i = 0; i < shape.preloaded; ++i)
        fresh();
    plan.preloaded = plan.points.size();

    const auto count = static_cast<std::size_t>(
        std::llround(shape.ratePerS * shape.seconds));
    plan.slots.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        Slot s;
        s.dueUs = static_cast<std::int64_t>(
            std::llround(static_cast<double>(i) * 1e6 / shape.ratePerS));
        s.conn = static_cast<int>(i % static_cast<std::size_t>(
                                          shape.connections));
        const double u = rng.uniform();
        if (u < shape.pairShare) {
            s.kind = SlotKind::kPair;
            s.point = fresh();
        } else if (u < shape.pairShare + shape.freshShare) {
            s.kind = SlotKind::kFresh;
            s.point = fresh();
        } else {
            s.kind = SlotKind::kPreloaded;
            s.point = static_cast<std::size_t>(rng.below(plan.preloaded));
        }
        plan.slots.push_back(s);
    }
    return plan;
}

} // namespace perfbench
