/**
 * @file
 * Self-tests of the benchmark's own pieces: seeded input generators,
 * the counting netsim decorator, the metric catalogue against
 * BENCHMARK.json, and output bytes with tracing on and off.
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>

#include "common.hh"
#include "dse/sweep_spec.hh"
#include "inputs.hh"
#include "netprobe.hh"
#include "util/json.hh"

namespace perfbench
{

namespace
{

using namespace cryo;

int g_failures = 0;

void
expect(bool ok, const std::string &what)
{
    std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
    std::fflush(stdout);
    if (!ok)
        ++g_failures;
}

std::set<std::uint64_t>
specHashes(const std::string &json)
{
    const dse::SweepSpec spec =
        dse::SweepSpec::fromJson(parseJson(json, "<spec>"));
    std::set<std::uint64_t> out;
    for (std::size_t i = 0; i < spec.pointCount(); ++i)
        out.insert(spec.point(i).hash());
    return out;
}

void
testInputs()
{
    const GridShape shape;
    const std::string a = dseSpecJson(7, shape);
    const std::string b = dseSpecJson(8, shape);
    expect(a == dseSpecJson(7, shape), "dse spec: same seed, same bytes");
    const std::set<std::uint64_t> ha = specHashes(a);
    const std::set<std::uint64_t> hb = specHashes(b);
    expect(ha.size() == gridPoints(shape) && hb.size() == ha.size(),
           "dse spec: every seed gives gridPoints() distinct points");
    std::size_t shared = 0;
    for (std::uint64_t h : ha)
        shared += hb.count(h);
    expect(shared < ha.size() / 100,
           "dse spec: another seed gives other point hashes");

    ServeShape ss;
    ss.preloaded = 2000;
    ss.seconds = 5.0;
    const ServePlan p7 = makeServePlan(7, ss);
    const ServePlan p8 = makeServePlan(8, ss);
    expect(p7.render() == makeServePlan(7, ss).render(),
           "serve plan: same seed, same bytes");
    expect(p7.preloaded == p8.preloaded &&
               p7.slots.size() == p8.slots.size(),
           "serve plan: another seed, same counts");
    std::set<std::uint64_t> h7;
    for (const auto &p : p7.points)
        h7.insert(p.hash());
    std::size_t common = 0;
    for (const auto &p : p8.points)
        common += h7.count(p.hash());
    expect(h7.size() == p7.points.size() && common < p8.points.size() / 100,
           "serve plan: distinct points, another seed gives other hashes");
    const auto share = [](const ServePlan &p, SlotKind k) {
        std::size_t n = 0;
        for (const Slot &s : p.slots)
            n += s.kind == k ? 1 : 0;
        return static_cast<double>(n) / static_cast<double>(p.slots.size());
    };
    bool mix = true;
    for (const ServePlan *p : {&p7, &p8})
        mix = mix && std::abs(share(*p, SlotKind::kFresh) - 0.25) < 0.02 &&
            std::abs(share(*p, SlotKind::kPair) - 0.05) < 0.01;
    expect(mix, "serve plan: the mix holds at both seeds");
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

void
testCountingNetwork()
{
    const std::vector<NetKind> kinds = netKinds(1);
    const NetKind &bus = kinds[1];  // cryobus64
    const NetKind &mesh = kinds[3]; // mesh64
    netsim::MeasureOpts opts;
    opts.warmupCycles = 500;
    opts.measureCycles = 1500;

    NetCounters c;
    const double plain =
        netsim::saturationRate(bus.factory, bus.traffic, 0.6, 0.003, opts);
    const double counted = netsim::saturationRate(
        countingFactory(bus.factory, &c), bus.traffic, 0.6, 0.003, opts);
    expect(sameBits(plain, counted) && c.networks > 0 && c.cycles > 0,
           "counting decorator: bus saturationRate bit-identical");

    for (const double rate : {mesh.lowRate, mesh.satRate}) {
        netsim::TrafficSpec tr = mesh.traffic;
        tr.injectionRate = rate;
        NetCounters mc;
        const netsim::LoadPoint a =
            netsim::measureLoadPoint(mesh.factory, tr, opts);
        const netsim::LoadPoint b = netsim::measureLoadPoint(
            countingFactory(mesh.factory, &mc), tr, opts);
        expect(sameBits(a.avgLatency, b.avgLatency) &&
                   sameBits(a.p99Latency, b.p99Latency) &&
                   sameBits(a.throughput, b.throughput) &&
                   a.saturated == b.saturated &&
                   mc.cycles == opts.warmupCycles + opts.measureCycles,
               "counting decorator: router measureLoadPoint bit-identical "
               "at rate " + formatDouble(rate));
    }
}

void
testCatalogue(const std::string &benchmarkJson)
{
    std::ifstream in{benchmarkJson};
    std::stringstream text;
    text << in.rdbuf();
    expect(static_cast<bool>(in), "BENCHMARK.json readable");
    const JsonValue root = parseJson(text.str(), benchmarkJson);
    const std::regex name{"[A-Za-z0-9_.-]+"};
    const auto same = [&](const char *key,
                          const std::vector<MetricSpec> &emitted) {
        std::set<MetricSpec> listed;
        bool names = true;
        for (const JsonValue &m : root.at(key).items()) {
            const std::string n = m.at("name").asString();
            names = names && std::regex_match(n, name);
            listed.insert({n, m.at("unit").asString()});
        }
        const std::set<MetricSpec> mine(emitted.begin(), emitted.end());
        expect(names, std::string(key) + ": names match [A-Za-z0-9_.-]+");
        expect(listed == mine, std::string(key) +
                                   ": BENCHMARK.json lists exactly the "
                                   "emitted metrics with their units");
    };
    same("end_to_end", endToEndMetrics());
    same("per_layer", perLayerMetrics());
}

void
testTracedBytes(const std::string &workDir)
{
    // The analytic experiments: cheap, and every hook is spanned.
    expect(anchorsTraceInvariant(1, "pipeline"),
           "anchors: results JSON identical with tracing on and off");
    for (const char *workload : {"dse-grid", "serve-mixed"}) {
        RunConfig cfg;
        cfg.workload = workload;
        cfg.seed = 3;
        cfg.seconds = 1.0;
        cfg.trace = true;
        cfg.workDir = workDir + "/selftest-" + workload;
        std::filesystem::create_directories(cfg.workDir);
        const Outcome o = cfg.workload == "dse-grid" ? runDseGrid(cfg)
                                                     : runServeMixed(cfg);
        for (const std::string &n : o.notes)
            if (n.rfind("CHECK FAILED", 0) == 0)
                std::printf("  %s\n", n.c_str());
        expect(o.correct && o.failed == 0,
               std::string(workload) +
                   ": output bytes identical with tracing on and off, "
                   "all checks pass");
    }
}

} // namespace

int
runSelfTests(const std::string &benchmarkJson, const std::string &workDir)
{
    testInputs();
    testCountingNetwork();
    testCatalogue(benchmarkJson);
    testTracedBytes(workDir);
    std::printf("%d self-test failure(s)\n", g_failures);
    return g_failures;
}

} // namespace perfbench
