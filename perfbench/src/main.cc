/**
 * @file
 * cryowire_perfbench: one workload, one seed, one result line.
 *
 *   cryowire_perfbench --workload anchors|dse-grid|serve-mixed
 *       --seed N --seconds S --trace 0|1 --work-dir DIR
 *       [--trace-dir DIR] [--commit REV]
 *   cryowire_perfbench --selftest BENCHMARK.json --work-dir DIR
 *
 * The last line of standard output is the result object: "correct",
 * "attempted", "failed", and "metrics" (the end-to-end metrics, or
 * with --trace 1 the per-layer ones). Lines before it are notes.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>

#include "common.hh"
#include "trace.hh"
#include "util/diag.hh"
#include "util/json.hh"

namespace perfbench
{

const std::vector<MetricSpec> &
endToEndMetrics()
{
    static const std::vector<MetricSpec> list = {
        {"wall_s", "s"},
        {"cpu_s", "s"},
        {"setup_s", "s"},
        {"peak_rss_mb", "MB"},
    };
    return list;
}

const std::vector<MetricSpec> &
perLayerMetrics()
{
    static const std::vector<MetricSpec> list = [] {
        std::vector<MetricSpec> l = {
            {"exp.fig25.s", "s"},
            {"exp.fig21.s", "s"},
            {"exp.fig18.s", "s"},
            {"exp.analytic.s", "s"},
            {"exp.anchor_err", "%"},
            {"exp.anchor_misses", "count"},
        };
        for (const char *kind :
             {"bus64", "cryobus64", "hybrid256", "mesh64", "cmesh64",
              "fb64", "mesh256", "cmesh256", "fb256"}) {
            l.push_back({std::string("netsim.") + kind +
                             ".ns_per_cycle_low",
                         "ns"});
            l.push_back({std::string("netsim.") + kind +
                             ".ns_per_cycle_sat",
                         "ns"});
        }
        const std::vector<MetricSpec> rest = {
            {"netsim.sat_probes", "count"},
            {"netsim.cycles", "count"},
            {"netsim.packets", "count"},
            {"dse.spec_load_ms", "ms"},
            {"dse.evaluate_us", "us"},
            {"dse.cache_store_us", "us"},
            {"dse.cache_load_ms", "ms"},
            {"dse.cache_lookup_us", "us"},
            {"dse.point_us", "us"},
            {"dse.hash_us", "us"},
            {"dse.format_us", "us"},
            {"dse.resume_s", "s"},
            {"dse.evaluated", "count"},
            {"dse.cache_hits", "count"},
            {"dse.quarantined", "count"},
            {"tech.technology_ms", "ms"},
            {"core.builder_us", "us"},
            {"core.design_us", "us"},
            {"sys.run_suite_us", "us"},
            {"power.core_power_us", "us"},
            {"svc.p50_ms", "ms"},
            {"svc.p90_ms", "ms"},
            {"svc.server_us_p50", "us"},
            {"svc.transport_us_p50", "us"},
            {"svc.hit_ms_p50", "ms"},
            {"svc.miss_ms_p50", "ms"},
            {"svc.parse_us", "us"},
            {"svc.format_us", "us"},
            {"svc.reply_parse_us", "us"},
            {"svc.evaluations", "count"},
            {"svc.cache_hits", "count"},
            {"svc.deduped", "count"},
            {"svc.overloaded", "count"},
            {"svc.expired", "count"},
            {"svc.p99_ms", "ms"},
            {"svc.p999_ms", "ms"},
            {"svc.gen_late_p99_ms", "ms"},
            {"util.parallel_eff", "ratio"},
            {"host.calib_s", "s"},
            {"host.sleep_late_p99_ms", "ms"},
            {"host.steal_share", "ratio"},
            {"trace.overhead_wall_s", "s"},
            {"trace.overhead_p50_ms", "ms"},
        };
        l.insert(l.end(), rest.begin(), rest.end());
        return l;
    }();
    return list;
}

void
writeTraceFile(const RunConfig &cfg, const Tracer &tracer, Outcome &out)
{
    if (cfg.traceDir.empty())
        return;
    std::filesystem::create_directories(cfg.traceDir);
    const std::string path = cfg.traceDir + "/" + cfg.workload + "-seed" +
        std::to_string(cfg.seed) + ".trace.json";
    std::ofstream f{path};
    tracer.writeChrome(f);
    cryo::fatalIf(!f, "cannot write trace " + path);
    out.note("trace: " + path + " (" +
             std::to_string(tracer.spans().size()) + " spans)");
    for (const auto &[layer, s] : tracer.selfSeconds())
        out.note("self time " + layer + ": " + cryo::formatDouble(s) +
                 " s");
}

namespace
{

/** Keep exactly the catalogue's metrics of the run's mode, in order;
 * the ones a workload did not measure (its layer is not entered)
 * read 0. */
std::vector<MetricValue>
finalMetrics(const Outcome &o, bool trace)
{
    const std::vector<MetricSpec> &want =
        trace ? perLayerMetrics() : endToEndMetrics();
    std::vector<MetricValue> out;
    for (const auto &[name, unit] : want) {
        MetricValue v{name, 0.0, unit};
        for (const MetricValue &m : o.metrics)
            if (m.name == name)
                v.value = m.value;
        out.push_back(v);
    }
    return out;
}

std::string
resultLine(const Outcome &o, const std::vector<MetricValue> &metrics)
{
    std::ostringstream line;
    cryo::JsonWriter w{line, /*indent=*/0};
    w.beginObject();
    w.key("correct").value(o.correct);
    w.key("attempted").value(static_cast<std::uint64_t>(o.attempted));
    w.key("failed").value(static_cast<std::uint64_t>(o.failed));
    w.key("metrics").beginObject();
    for (const MetricValue &m : metrics) {
        w.key(m.name).beginObject();
        w.key("value").value(m.value);
        w.key("unit").value(m.unit);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    return line.str();
}

int
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "cryowire_perfbench: %s\nusage: cryowire_perfbench "
                 "--workload anchors|dse-grid|serve-mixed --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR [--trace-dir "
                 "DIR] [--commit REV]\n       cryowire_perfbench "
                 "--selftest BENCHMARK.json --work-dir DIR\n",
                 why.c_str());
    return 2;
}

/** Strict unsigned parse: digits only. */
bool
parseUnsigned(const std::string &text, std::uint64_t *out)
{
    if (text.empty() || text.size() > 19 ||
        text.find_first_not_of("0123456789") != std::string::npos)
        return false;
    *out = std::stoull(text);
    return true;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    RunConfig cfg;
    std::string selftest;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(arg + " expects a value");
        const std::string v = argv[++i];
        std::uint64_t n = 0;
        if (arg == "--workload") {
            cfg.workload = v;
        } else if (arg == "--seed") {
            if (!parseUnsigned(v, &cfg.seed))
                return usage("--seed wants a non-negative integer");
            haveSeed = true;
        } else if (arg == "--seconds") {
            if (!parseUnsigned(v, &n) || n < 1 || n > 600)
                return usage("--seconds wants an integer in [1, 600]");
            cfg.seconds = static_cast<double>(n);
            haveSeconds = true;
        } else if (arg == "--trace") {
            if (v != "0" && v != "1")
                return usage("--trace wants 0 or 1");
            cfg.trace = v == "1";
            haveTrace = true;
        } else if (arg == "--work-dir") {
            cfg.workDir = v;
        } else if (arg == "--trace-dir") {
            cfg.traceDir = v;
        } else if (arg == "--commit") {
            cfg.commit = v;
        } else if (arg == "--selftest") {
            selftest = v;
        } else {
            return usage("unknown option " + arg);
        }
    }
    if (cfg.workDir.empty())
        return usage("--work-dir is required");
    try {
        std::filesystem::create_directories(cfg.workDir);
        if (!selftest.empty())
            return runSelfTests(selftest, cfg.workDir) == 0 ? 0 : 1;
        if (!haveSeed || !haveSeconds || !haveTrace)
            return usage("--seed, --seconds and --trace are required");

        const double steal0 = hostStealSeconds();
        const std::int64_t t0 = nowNs();
        Outcome o;
        if (cfg.workload == "anchors")
            o = runAnchors(cfg);
        else if (cfg.workload == "dse-grid")
            o = runDseGrid(cfg);
        else if (cfg.workload == "serve-mixed")
            o = runServeMixed(cfg);
        else
            return usage("unknown workload '" + cfg.workload + "'");

        // Host drift markers, measured after the workload so they
        // never perturb it.
        const double steal = (hostStealSeconds() - steal0) /
            (secondsBetween(t0, nowNs()) * hostCpus());
        const double calib = hostCalibSeconds();
        const double late = hostSleepLateP99Ms();
        o.metric("host.calib_s", calib, "s");
        o.metric("host.sleep_late_p99_ms", late, "ms");
        o.metric("host.steal_share", steal, "ratio");
        o.note("host: " + hostFingerprint(cfg.commit));
        o.note("host.calib_s " + cryo::formatDouble(calib) +
               ", host.sleep_late_p99_ms " + cryo::formatDouble(late) +
               ", host.steal_share " + cryo::formatDouble(steal));

        const std::vector<MetricValue> metrics =
            finalMetrics(o, cfg.trace);
        for (const std::string &n : o.notes)
            std::cout << "# " << n << '\n';
        for (const MetricValue &m : metrics)
            std::cout << "# " << m.name << " = "
                      << cryo::formatDouble(m.value) << ' ' << m.unit
                      << '\n';
        std::cout << resultLine(o, metrics) << std::endl;
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "cryowire_perfbench: %s\n", e.what());
        return 1;
    }
}
