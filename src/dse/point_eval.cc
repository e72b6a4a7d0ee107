#include "point_eval.hh"

#include <array>
#include <cstddef>
#include <utility>

#include "pipeline/floorplan.hh"
#include "power/mcpat_lite.hh"
#include "sys/interval_sim.hh"
#include "sys/workload.hh"
#include "util/diag.hh"
#include "util/failpoint.hh"

namespace cryo::dse
{

namespace
{

/**
 * Metric field registry - the same single-source-of-truth pattern as
 * the DesignPoint field table (design_point.cc).
 */
struct MetricDef
{
    const char *name;
    double PointMetrics::*num = nullptr;
    bool PointMetrics::*flag = nullptr;
};

const std::array<MetricDef, 9> kMetrics = {{
    {.name = "perf", .num = &PointMetrics::perf},
    {.name = "freqGhz", .num = &PointMetrics::freqGhz},
    {.name = "devicePower", .num = &PointMetrics::devicePower},
    {.name = "coolingPower", .num = &PointMetrics::coolingPower},
    {.name = "totalPower", .num = &PointMetrics::totalPower},
    {.name = "perfPerWatt", .num = &PointMetrics::perfPerWatt},
    {.name = "utilization", .num = &PointMetrics::utilization},
    {.name = "saturatedShare", .num = &PointMetrics::saturatedShare},
    {.name = "converged", .flag = &PointMetrics::converged},
}};

/** The workload suite named @p name, built once per process. */
const std::vector<sys::Workload> &
namedSuite(const std::string &name)
{
    static const std::vector<sys::Workload> parsec = sys::parsec21();
    static const std::vector<sys::Workload> specPrefetch =
        sys::specRateAggressivePrefetch();
    static const std::vector<sys::Workload> spec = [] {
        std::vector<sys::Workload> suite = sys::specRateAggressivePrefetch();
        for (sys::Workload &w : suite)
            w.prefetchApki = 0.0; // plain SPEC (Section 7.4)
        return suite;
    }();
    static const std::vector<sys::Workload> cloud = sys::cloudSuite();
    if (name == "parsec21")
        return parsec;
    if (name == "spec-rate")
        return spec;
    if (name == "spec-rate-prefetch")
        return specPrefetch;
    if (name == "cloudsuite")
        return cloud;
    fatal("unknown workload suite \"" + name + "\"");
}

/** The workload suite a point selects (single workload if named). */
std::vector<sys::Workload>
suiteFor(const DesignPoint &p)
{
    const std::vector<sys::Workload> &suite = namedSuite(p.suite);
    if (p.workload.empty())
        return suite;
    return {sys::findWorkload(suite, p.workload)};
}

/** The system design a point selects from @p builder. */
sys::SystemDesign
designFor(const core::SystemBuilder &builder, const DesignPoint &p)
{
    const auto pick = [&builder, &p]() -> sys::SystemDesign {
        if (p.design == "baseline300-mesh")
            return builder.baseline300Mesh();
        if (p.design == "chp-mesh77")
            return builder.chpMesh77();
        if (p.design == "cryosp-mesh77")
            return builder.cryoSpMesh77();
        if (p.design == "chp-cryobus77")
            return builder.chpCryoBus77();
        if (p.design == "cryosp-cryobus77") {
            if (fieldIsSet(p.tempK)) {
                sys::SystemDesign d = builder.atTemperature(p.tempK);
                d.busWays = p.busWays;
                return d;
            }
            return builder.cryoSpCryoBus77(p.busWays);
        }
        if (p.design == "ideal-noc77")
            return builder.idealNoc77();
        if (p.design == "shared-bus77")
            return builder.sharedBus77();
        fatal("unknown design \"" + p.design + "\"");
    };
    sys::SystemDesign d = pick();
    if (fieldIsSet(p.vdd))
        d = builder.withCoreVoltage(d, tech::VoltagePoint{p.vdd,
                                                          p.vth});
    return d;
}

/** Hash of the axes that select a Technology. */
std::uint64_t
techKey(const DesignPoint &p)
{
    Fnv1a h;
    h.f64(p.nodeNm).b(p.thickWire).f64(p.mosfetAlpha);
    return h.digest();
}

/** Hash of the axes that select a technology family. */
std::uint64_t
familyKey(const DesignPoint &p)
{
    Fnv1a h;
    h.u64(techKey(p)).i64(p.cores).f64(p.floorplanScale);
    return h.digest();
}

/** Hash of the axes the baseline's suite performance depends on. */
std::uint64_t
baselineKey(const DesignPoint &p)
{
    Fnv1a h;
    h.u64(familyKey(p)).str(p.suite).str(p.workload);
    return h.digest();
}

} // namespace

const std::vector<std::string> &
PointMetrics::metricNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        out.reserve(kMetrics.size());
        for (const MetricDef &m : kMetrics)
            out.emplace_back(m.name);
        return out;
    }();
    return names;
}

std::string
PointMetrics::json() const
{
    JsonWriter w;
    writeJson(w);
    return w.take();
}

void
PointMetrics::writeJson(JsonWriter &w,
                        const std::vector<std::string> &subset) const
{
    std::vector<bool> seen(subset.size(), false);
    w.beginObject();
    // Canonical order: iterate the registry, not the subset, so two
    // requests naming the same metrics in different order render
    // byte-identical replies.
    for (const MetricDef &m : kMetrics) {
        bool wanted = subset.empty();
        for (std::size_t i = 0; i < subset.size(); ++i) {
            if (subset[i] == m.name) {
                seen[i] = true;
                wanted = true;
            }
        }
        if (!wanted)
            continue;
        w.key(m.name);
        if (m.num != nullptr)
            w.value(this->*(m.num));
        else
            w.value(this->*(m.flag));
    }
    w.endObject();
    for (std::size_t i = 0; i < subset.size(); ++i)
        fatalIf(!seen[i],
                "unknown metric \"" + subset[i] +
                    "\" requested (see PointMetrics::metricNames)");
}

PointMetrics
PointMetrics::fromJson(const JsonValue &obj)
{
    PointMetrics out;
    std::array<bool, kMetrics.size()> seen{};
    std::size_t position = 0;
    for (const JsonValue::Member &member : obj.members()) {
        // A canonical record lists the metrics in registry order, so
        // the member's own position is tried before the scan.
        std::size_t k = position++;
        if (k >= kMetrics.size() || member.first != kMetrics[k].name) {
            k = 0;
            while (k < kMetrics.size() && member.first != kMetrics[k].name)
                ++k;
        }
        if (k == kMetrics.size())
            fatal("unknown metric \"" + member.first +
                  "\" at line " + std::to_string(member.second.line()));
        if (seen[k])
            fatal("duplicate metric \"" + member.first +
                  "\" at line " + std::to_string(member.second.line()));
        seen[k] = true;
        const MetricDef &m = kMetrics[k];
        if (m.num != nullptr)
            out.*(m.num) = member.second.asNumber();
        else
            out.*(m.flag) = member.second.asBool();
    }
    // Every metric exactly once: a record written before a metric was
    // added must not read that metric as 0.
    for (std::size_t k = 0; k < kMetrics.size(); ++k)
        if (!seen[k])
            fatal(std::string("missing metric \"") + kMetrics[k].name +
                  "\" in the metrics object at line " +
                  std::to_string(obj.line()));
    return out;
}

void
PointMetrics::appendCsv(std::vector<std::string> &cells) const
{
    for (const MetricDef &m : kMetrics) {
        if (m.num != nullptr)
            cells.push_back(formatDouble(this->*(m.num)));
        else
            cells.push_back(this->*(m.flag) ? "true" : "false");
    }
}

ModelStack::ModelStack(std::shared_ptr<const tech::Technology> technology,
                       const DesignPoint &point)
    : tech(std::move(technology)),
      builder(*tech, point.cores,
              pipeline::Floorplan::skylakeLike().scaled(
                  point.floorplanScale))
{
}

PointEvaluator::PointEvaluator() = default;
PointEvaluator::~PointEvaluator() = default;

std::shared_ptr<const tech::Technology>
makeTechnology(const DesignPoint &point)
{
    tech::MosfetParams params;
    if (fieldIsSet(point.mosfetAlpha))
        params.alpha = point.mosfetAlpha;
    return std::make_shared<const tech::Technology>(
        point.nodeNm == 45.0 && !point.thickWire
            ? tech::Technology::freePdk45(std::move(params))
            : tech::Technology::scaledNode(point.nodeNm,
                                           point.thickWire,
                                           std::move(params)));
}

std::shared_ptr<const tech::Technology>
PointEvaluator::technologyFor(const DesignPoint &point) const
{
    const std::uint64_t key = techKey(point);
    std::lock_guard<std::mutex> lock(mu_);
    auto it = techCache_.find(key);
    if (it != techCache_.end())
        return it->second;

    auto tech = makeTechnology(point);
    techCache_.emplace(key, tech);
    return tech;
}

std::shared_ptr<const ModelStack>
PointEvaluator::stackFor(const DesignPoint &point) const
{
    const std::uint64_t key = familyKey(point);
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = stackCache_.find(key);
        if (it != stackCache_.end())
            return it->second;
    }

    // Build outside the lock (technologyFor takes it). When threads
    // race on a cold family the first insert wins and every caller
    // gets that one, so a family never holds two builders.
    auto stack =
        std::make_shared<const ModelStack>(technologyFor(point), point);
    std::lock_guard<std::mutex> lock(mu_);
    return stackCache_.try_emplace(key, std::move(stack)).first->second;
}

double
PointEvaluator::baselinePerf(const DesignPoint &point,
                             const ModelStack &stack) const
{
    const std::uint64_t key = baselineKey(point);
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = baselineCache_.find(key);
        if (it != baselineCache_.end())
            return it->second;
    }

    // Compute outside the lock: a cold cache under parallelFor may
    // evaluate the same baseline twice, but both runs produce the
    // identical double, so last-writer-wins is benign.
    const sys::IntervalSimulator sim;
    const auto suite = suiteFor(point);
    const auto results =
        sim.runSuite(stack.builder.baseline300Mesh(), suite);
    double perf = 0.0;
    for (const sys::SimResult &r : results)
        perf += r.perf();

    std::lock_guard<std::mutex> lock(mu_);
    baselineCache_.insert_or_assign(key, perf);
    return perf;
}

PointMetrics
PointEvaluator::evaluate(const DesignPoint &point) const
{
    CRYO_FAILPOINT("dse.eval");
    point.validate();

    const auto stack = stackFor(point);
    const core::SystemBuilder &builder = stack->builder;
    const sys::SystemDesign design = designFor(builder, point);
    const auto suite = suiteFor(point);

    const sys::IntervalSimulator sim;
    const auto results = sim.runSuite(design, suite);

    PointMetrics m;
    double perf = 0.0;
    int saturated = 0;
    for (const sys::SimResult &r : results) {
        perf += r.perf();
        m.utilization += r.utilization;
        saturated += r.saturated ? 1 : 0;
        m.converged = m.converged && r.converged;
    }
    const double n = static_cast<double>(results.size());
    m.utilization /= n;
    m.saturatedShare = static_cast<double>(saturated) / n;
    m.perf = perf / baselinePerf(point, *stack);
    m.freqGhz = design.core.frequency / 1e9;

    // Fig. 27 power accounting: activity follows frequency
    // (iso_activity=false), normalized to the same-technology 300 K
    // baseline core.
    const power::McpatLite mcpat{*stack->tech, /*iso_activity=*/false};
    const auto p = mcpat.corePower(design.core,
                                   builder.cores().baseline300());
    m.devicePower = p.device();
    m.coolingPower = p.cooling;
    m.totalPower = p.total();
    m.perfPerWatt = m.totalPower > 0.0 ? m.perf / m.totalPower : 0.0;
    return m;
}

} // namespace cryo::dse
