/**
 * @file
 * dse-grid: a seeded sweep spec through dse::runSweep at 2 jobs, with
 * a file-backed ResultCache in a fresh directory, in two passes - a
 * cold pass that evaluates and appends every point, and an identical
 * resume pass that only loads and looks up. No netsim work.
 *
 * The pair of passes repeats for the run's --seconds (each pair on a
 * fresh cache); times are medians over the pairs.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common.hh"
#include "core/system_builder.hh"
#include "dse/result_cache.hh"
#include "dse/sweep_runner.hh"
#include "dse/sweep_spec.hh"
#include "inputs.hh"
#include "pipeline/floorplan.hh"
#include "power/mcpat_lite.hh"
#include "sys/interval_sim.hh"
#include "sys/workload.hh"
#include "trace.hh"
#include "util/diag.hh"

namespace perfbench
{

namespace
{

using namespace cryo;
namespace fs = std::filesystem;

constexpr int kJobs = 2;
/** Setup samples per slice; a slice runs before the first pass pair
 * and after each one, so the median spans the whole run. */
constexpr int kSetupRepsPerSlice = 25;
constexpr GridShape kShape{};
/** Every kSampleStride-th point is re-evaluated directly (1%). */
constexpr std::size_t kSampleStride = 100;

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream in{text};
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

/** One cold + resume pair on a fresh cache. */
struct PassPair
{
    double coldS = 0.0;
    double coldCpuS = 0.0;
    double resumeS = 0.0;
    std::string coldOut;
    std::string resumeOut;
    dse::SweepStats cold;
    dse::SweepStats resume;
};

PassPair
runPair(const dse::SweepSpec &spec, const std::string &dir)
{
    fs::remove_all(dir);
    fs::create_directories(dir);
    dse::SweepOptions opts;
    opts.jobs = kJobs;
    opts.cachePath = dir + "/cache.jsonl";

    PassPair p;
    {
        const dse::PointEvaluator evaluator;
        std::ostringstream out;
        const double cpu0 = processCpuSeconds();
        const std::int64_t t0 = nowNs();
        {
            ScopedSpan span{"dse.runSweep.cold", "dse"};
            dse::runSweep(spec, evaluator, out, opts, &p.cold);
        }
        p.coldS = secondsBetween(t0, nowNs());
        p.coldCpuS = processCpuSeconds() - cpu0;
        p.coldOut = out.str();
    }
    {
        const dse::PointEvaluator evaluator;
        std::ostringstream out;
        const std::int64_t t0 = nowNs();
        {
            ScopedSpan span{"dse.runSweep.resume", "dse"};
            dse::runSweep(spec, evaluator, out, opts, &p.resume);
        }
        p.resumeS = secondsBetween(t0, nowNs());
        p.resumeOut = out.str();
    }
    return p;
}

/** The pass-pair checks; the attempted operations are the points. */
void
checkPair(const PassPair &p, std::size_t points, Outcome &out)
{
    out.attempted += points;
    out.check(p.resumeOut == p.coldOut,
              "resume output differs from the cold output", points);
    out.check(p.cold.evaluated == points && p.cold.cacheHits == 0,
              "cold pass evaluated " + std::to_string(p.cold.evaluated) +
                  " of " + std::to_string(points) + " points",
              points - std::min(points, p.cold.evaluated));
    out.check(p.resume.cacheHits == points && p.resume.evaluated == 0 &&
                  p.resume.quarantined == 0,
              "resume pass: " + std::to_string(p.resume.cacheHits) +
                  " hits, " + std::to_string(p.resume.evaluated) +
                  " evaluated, " + std::to_string(p.resume.quarantined) +
                  " quarantined of " + std::to_string(points),
              points - std::min(points, p.resume.cacheHits));
}

/**
 * Re-evaluate every kSampleStride-th point (from @p offset) with a
 * fresh PointEvaluator and compare its result line with the sweep's.
 */
void
checkSample(const dse::SweepSpec &spec, const std::string &coldOut,
            std::size_t offset, Outcome &out)
{
    const std::vector<std::string> lines = splitLines(coldOut);
    out.check(lines.size() == spec.pointCount(),
              "sweep wrote " + std::to_string(lines.size()) +
                  " lines for " + std::to_string(spec.pointCount()) +
                  " points");
    const dse::PointEvaluator fresh;
    std::size_t mismatches = 0;
    for (std::size_t i = offset; i < lines.size(); i += kSampleStride) {
        dse::EvaluatedPoint ep;
        ep.index = i;
        ep.point = spec.point(i);
        ep.metrics = fresh.evaluate(ep.point);
        if (dse::formatResultLine(ep) != lines[i])
            ++mismatches;
    }
    out.check(mismatches == 0,
              std::to_string(mismatches) +
                  " sampled point(s) differ from a direct evaluation",
              mismatches);
}

/** Setup as a user pays it: spec load (parse + dry-run validation)
 * plus evaluator construction; appends seconds and load [ms]. */
void
sampleSetup(const std::string &specPath, std::vector<double> &seconds,
            std::vector<double> &loadMs)
{
    for (int i = 0; i < kSetupRepsPerSlice; ++i) {
        const std::int64_t t0 = nowNs();
        const dse::SweepSpec spec = dse::SweepSpec::load(specPath);
        const std::int64_t t1 = nowNs();
        const dse::PointEvaluator evaluator;
        seconds.push_back(secondsBetween(t0, nowNs()));
        loadMs.push_back(secondsBetween(t0, t1) * 1e3);
    }
}

/** Mean cost [us] of @p fn over @p n calls, under one span. */
template <typename Fn>
double
meanUs(const char *span, std::size_t n, Fn &&fn)
{
    ScopedSpan s{span, "dse"};
    const std::int64_t t0 = nowNs();
    for (std::size_t i = 0; i < n; ++i)
        fn(i);
    return secondsBetween(t0, nowNs()) * 1e6 / static_cast<double>(n);
}

/**
 * Serial replay of the public calls runSweep composes, over every
 * point of the spec, each timed on its own.
 */
void
replayLayers(const dse::SweepSpec &spec, const std::string &dir,
             Outcome &out)
{
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::size_t n = spec.pointCount();
    std::vector<dse::DesignPoint> points(n);
    std::vector<std::string> hashes(n);
    std::vector<dse::PointMetrics> metrics(n);
    const dse::PointEvaluator evaluator;

    out.metric("dse.point_us", meanUs("dse.point", n, [&](std::size_t i) {
                   points[i] = spec.point(i);
               }),
               "us");
    out.metric("dse.hash_us", meanUs("dse.hash", n, [&](std::size_t i) {
                   hashes[i] = points[i].hashHex();
               }),
               "us");
    out.metric("dse.evaluate_us",
               meanUs("dse.evaluate", n,
                      [&](std::size_t i) {
                          metrics[i] = evaluator.evaluate(points[i]);
                      }),
               "us");
    const std::string path = dir + "/cache.jsonl";
    {
        dse::ResultCache cache{path};
        out.metric("dse.cache_store_us",
                   meanUs("dse.cache.store", n,
                          [&](std::size_t i) {
                              cache.store(hashes[i], metrics[i]);
                          }),
                   "us");
    }
    const std::int64_t t0 = nowNs();
    std::unique_ptr<dse::ResultCache> cache;
    {
        ScopedSpan span{"dse.cache.load", "dse"};
        cache = std::make_unique<dse::ResultCache>(path);
    }
    out.metric("dse.cache_load_ms", secondsBetween(t0, nowNs()) * 1e3,
               "ms");
    std::size_t missing = 0;
    out.metric("dse.cache_lookup_us",
               meanUs("dse.cache.lookup", n,
                      [&](std::size_t i) {
                          dse::PointMetrics m;
                          if (!cache->lookup(hashes[i], &m))
                              ++missing;
                      }),
               "us");
    out.check(missing == 0, "replayed cache lost " +
                                std::to_string(missing) + " record(s)");
    out.metric("dse.format_us", meanUs("dse.format", n, [&](std::size_t i) {
                   dse::EvaluatedPoint ep{i, points[i], metrics[i]};
                   (void)dse::formatResultLine(ep);
               }),
               "us");
}

/**
 * What PointEvaluator::evaluate composes, timed call by call on the
 * 1% sample. The grid only holds cryosp-cryobus77 points with tempK
 * set, so the design is always SystemBuilder::atTemperature.
 */
void
replayModelLayers(const dse::SweepSpec &spec, Outcome &out)
{
    std::vector<double> techMs, builderUs, designUs, suiteUs, powerUs;
    for (std::size_t i = 0; i < spec.pointCount(); i += kSampleStride) {
        const dse::DesignPoint p = spec.point(i);
        std::int64_t t = nowNs();
        const auto lap = [&t]() {
            const std::int64_t now = nowNs();
            const double s = secondsBetween(t, now);
            t = now;
            return s;
        };
        std::shared_ptr<const tech::Technology> tech;
        {
            ScopedSpan span{"tech.makeTechnology", "tech"};
            tech = dse::makeTechnology(p);
        }
        techMs.push_back(lap() * 1e3);
        std::unique_ptr<core::SystemBuilder> builder;
        {
            ScopedSpan span{"core.SystemBuilder", "core"};
            builder = std::make_unique<core::SystemBuilder>(
                *tech, p.cores,
                pipeline::Floorplan::skylakeLike().scaled(
                    p.floorplanScale));
        }
        builderUs.push_back(lap() * 1e6);
        const sys::SystemDesign design = [&] {
            ScopedSpan span{"core.atTemperature", "core"};
            sys::SystemDesign d = builder->atTemperature(p.tempK);
            d.busWays = p.busWays;
            return d;
        }();
        designUs.push_back(lap() * 1e6);
        std::vector<sys::Workload> suite = sys::parsec21();
        if (!p.workload.empty())
            suite = {sys::findWorkload(suite, p.workload)};
        t = nowNs();
        {
            ScopedSpan span{"sys.runSuite", "sys"};
            (void)sys::IntervalSimulator{}.runSuite(design, suite);
        }
        suiteUs.push_back(lap() * 1e6);
        {
            ScopedSpan span{"power.corePower", "power"};
            const power::McpatLite mcpat{*tech, /*iso_activity=*/false};
            (void)mcpat.corePower(design.core,
                                  builder->baseline300Mesh().core);
        }
        powerUs.push_back(lap() * 1e6);
    }
    out.metric("tech.technology_ms", median(techMs), "ms");
    out.metric("core.builder_us", median(builderUs), "us");
    out.metric("core.design_us", median(designUs), "us");
    out.metric("sys.run_suite_us", median(suiteUs), "us");
    out.metric("power.core_power_us", median(powerUs), "us");
}

} // namespace

Outcome
runDseGrid(const RunConfig &cfg)
{
    Outcome out;
    const std::string specPath = cfg.workDir + "/dse-spec.json";
    {
        std::ofstream f{specPath};
        f << dseSpecJson(cfg.seed, kShape);
        fatalIf(!f, "cannot write " + specPath);
    }
    std::vector<double> setupS, specLoadMs;
    sampleSetup(specPath, setupS, specLoadMs);
    const dse::SweepSpec spec = dse::SweepSpec::load(specPath);
    const std::size_t points = gridPoints(kShape);
    out.check(spec.pointCount() == points,
              "spec holds " + std::to_string(spec.pointCount()) +
                  " points, expected " + std::to_string(points));

    std::vector<double> coldS, coldCpuS, resumeS;
    PassPair first;
    const std::int64_t start = nowNs();
    const int minPairs = cfg.trace ? 1 : 3;
    for (int k = 0;; ++k) {
        PassPair p = runPair(spec, cfg.workDir + "/grid");
        checkPair(p, points, out);
        checkSample(spec, p.coldOut,
                    static_cast<std::size_t>(k) % kSampleStride, out);
        coldS.push_back(p.coldS);
        coldCpuS.push_back(p.coldCpuS);
        resumeS.push_back(p.resumeS);
        if (k == 0 && cfg.trace)
            first = std::move(p); // compared with the traced pair
        sampleSetup(specPath, setupS, specLoadMs);
        if (k + 1 >= minPairs &&
            secondsBetween(start, nowNs()) >= cfg.seconds)
            break;
    }
    out.note("dse-grid: " + std::to_string(points) + " points, " +
             std::to_string(coldS.size()) + " cold+resume pairs, cold " +
             formatDouble(*std::min_element(coldS.begin(), coldS.end())) +
             " .. " +
             formatDouble(*std::max_element(coldS.begin(), coldS.end())) +
             " s");

    if (!cfg.trace) {
        out.metric("wall_s", median(coldS), "s");
        out.metric("cpu_s", median(coldCpuS), "s");
        out.metric("setup_s", median(setupS), "s");
        out.metric("peak_rss_mb", peakRssMb(), "MB");
        out.note("dse-grid resume_s " + formatDouble(median(resumeS)));
        return out;
    }

    Tracer tracer;
    Tracer::install(&tracer);
    const PassPair traced = runPair(spec, cfg.workDir + "/grid-traced");
    checkPair(traced, points, out);
    out.check(traced.coldOut == first.coldOut,
              "sweep output differs between the untraced and the "
              "traced run",
              points);
    replayLayers(spec, cfg.workDir + "/replay", out);
    replayModelLayers(spec, out);
    Tracer::install(nullptr);

    out.metric("dse.spec_load_ms", median(specLoadMs), "ms");
    out.metric("dse.resume_s", median(resumeS), "s");
    out.metric("dse.evaluated", static_cast<double>(traced.cold.evaluated),
               "count");
    out.metric("dse.cache_hits",
               static_cast<double>(traced.resume.cacheHits), "count");
    out.metric("dse.quarantined",
               static_cast<double>(traced.resume.quarantined), "count");
    out.metric("util.parallel_eff",
               median(coldCpuS) / (median(coldS) * kJobs), "ratio");
    out.metric("trace.overhead_wall_s", traced.coldS - median(coldS),
               "s");
    writeTraceFile(cfg, tracer, out);
    return out;
}

} // namespace perfbench
