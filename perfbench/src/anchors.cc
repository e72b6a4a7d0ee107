/**
 * @file
 * anchors: the registered experiments with their anchor gate, through
 * exp::runExperiments at 3 jobs - the run a reproducer waits for.
 *
 * fig26-hybrid-256core is left out: alone it takes ~86 s of one core,
 * which does not fit a run that must finish (twice, when traced) inside
 * the benchmark's per-run limit. Its 256-node router networks are still
 * timed per simulated cycle by the traced run's netsim probe.
 */

#include <array>
#include <atomic>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>

#include "common.hh"
#include "exp/registry.hh"
#include "exp/runner.hh"
#include "exp/sinks.hh"
#include "netprobe.hh"
#include "trace.hh"
#include "util/diag.hh"
#include "util/json.hh"

namespace perfbench
{

namespace
{

using namespace cryo;

constexpr const char *kLeftOut = "fig26-hybrid-256core";
constexpr int kJobs = 3;
/** Setup is sampled in slices before and after the run, so its median
 * averages the host's state over the run's length. */
constexpr int kSetupRepsPerSlice = 100;
constexpr std::size_t kMaxExperiments = 64;

/**
 * Run-hook trampolines: exp::RunFn is a plain function pointer, so
 * each registry slot gets its own instantiation that times (and, when
 * traced, spans) the original hook.
 */
std::array<exp::RunFn, kMaxExperiments> g_hooks{};
std::array<const char *, kMaxExperiments> g_names{};
std::array<std::atomic<std::int64_t>, kMaxExperiments> g_ns{};

template <std::size_t I>
void
timedHook(const exp::Context &ctx, exp::ExperimentResult &r)
{
    ScopedSpan span{g_names[I], "exp"};
    const std::int64_t t0 = nowNs();
    g_hooks[I](ctx, r);
    g_ns[I].store(nowNs() - t0, std::memory_order_relaxed);
}

template <std::size_t... I>
constexpr std::array<exp::RunFn, sizeof...(I)>
makeTrampolines(std::index_sequence<I...>)
{
    return {&timedHook<I>...};
}

constexpr auto kTrampolines =
    makeTrampolines(std::make_index_sequence<kMaxExperiments>{});

/** The anchors selection (or the experiments tagged @p tag), every
 * hook routed through a trampoline. */
exp::Registry
timedSelection(const std::string &tag = {})
{
    exp::Registry reg;
    std::size_t slot = 0;
    for (const exp::Experiment &e : exp::Registry::builtins().all()) {
        if (e.name == kLeftOut || (!tag.empty() && !e.hasTag(tag)))
            continue;
        fatalIf(slot >= kMaxExperiments, "too many experiments");
        g_hooks[slot] = e.run;
        g_names[slot] = e.name.c_str();
        exp::Experiment timed = e;
        timed.run = kTrampolines[slot];
        reg.add(std::move(timed));
        ++slot;
    }
    return reg;
}

/** One measured registry run. */
struct AnchorRun
{
    double wallS = 0.0;
    double cpuS = 0.0;
    std::string json;
    std::vector<exp::RunRecord> records;
    std::map<std::string, double> experimentS;
};

AnchorRun
runOnce(const exp::Registry &reg, std::uint64_t seed)
{
    for (auto &ns : g_ns)
        ns.store(0, std::memory_order_relaxed);
    exp::RunOptions opts;
    opts.seed = seed;
    opts.jobs = kJobs;
    opts.quiet = true;

    AnchorRun run;
    const double cpu0 = processCpuSeconds();
    const std::int64_t t0 = nowNs();
    {
        ScopedSpan span{"exp.runExperiments", "exp"};
        run.records = exp::runExperiments(reg, opts);
    }
    run.wallS = secondsBetween(t0, nowNs());
    run.cpuS = processCpuSeconds() - cpu0;

    std::ostringstream json;
    {
        ScopedSpan span{"exp.writeJson", "exp"};
        exp::writeJson(json, run.records, seed);
    }
    run.json = json.str();
    for (std::size_t i = 0; i < reg.all().size(); ++i)
        run.experimentS[reg.all()[i].name] =
            static_cast<double>(g_ns[i].load()) * 1e-9;
    return run;
}

/** Setup as a user pays it: the registry plus the shared Context. */
void
sampleSetup(std::uint64_t seed, std::vector<double> &seconds)
{
    for (int i = 0; i < kSetupRepsPerSlice; ++i) {
        const std::int64_t t0 = nowNs();
        exp::Registry reg;
        exp::registerAll(reg);
        const exp::Context ctx{seed};
        seconds.push_back(secondsBetween(t0, nowNs()));
    }
}

/** Anchor accounting of one run, into @p out. */
struct AnchorTally
{
    std::uint64_t anchored = 0;
    std::uint64_t misses = 0;
    std::uint64_t broken = 0; ///< failed experiment or non-finite value
    double errPct = 0.0;      ///< mean |value/anchor - 1| [%]
};

AnchorTally
tally(const std::vector<exp::RunRecord> &records)
{
    AnchorTally t;
    double errSum = 0.0;
    std::uint64_t errN = 0;
    for (const exp::RunRecord &rec : records) {
        for (const exp::Metric &m : rec.result.metrics()) {
            if (!m.hasAnchor())
                continue;
            ++t.anchored;
            if (rec.failed || !std::isfinite(m.value)) {
                ++t.broken;
                continue;
            }
            if (!m.pass())
                ++t.misses;
            if (m.anchor != 0.0) {
                errSum += std::abs(m.value / m.anchor - 1.0);
                ++errN;
            }
        }
    }
    t.errPct = errN > 0 ? 100.0 * errSum / static_cast<double>(errN)
                        : 0.0;
    return t;
}

void
reportTally(const AnchorRun &run, const AnchorTally &t, Outcome &out)
{
    out.attempted += t.anchored;
    out.check(t.broken == 0,
              std::to_string(t.broken) +
                  " anchored metric(s) from failed experiments or "
                  "non-finite",
              t.broken);
    for (const exp::RunRecord &rec : run.records) {
        if (rec.failed)
            out.note("experiment failed: " + rec.experiment->name + ": " +
                     rec.error);
        for (const exp::Metric &m : rec.result.metrics())
            if (m.hasAnchor() && !m.pass())
                out.note("anchor miss: " + rec.experiment->name + " " +
                         m.name + " = " + formatDouble(m.value) +
                         " vs " + formatDouble(m.anchor) + " +/-" +
                         formatDouble(100.0 * m.relTol) + "%");
    }
    out.note("anchors: " + std::to_string(t.anchored - t.misses -
                                          t.broken) +
             "/" + std::to_string(t.anchored) +
             " within tolerance, anchor_err " + formatDouble(t.errPct) +
             "%");
}

bool
isNetsimFigure(const std::string &name)
{
    return name == "fig18-bus-load-latency" ||
        name == "fig21-noc-load-latency" ||
        name == "fig25-traffic-patterns";
}

} // namespace

bool
anchorsTraceInvariant(std::uint64_t seed, const std::string &tag)
{
    const exp::Registry reg = timedSelection(tag);
    const AnchorRun plain = runOnce(reg, seed);
    Tracer tracer;
    Tracer::install(&tracer);
    const AnchorRun traced = runOnce(reg, seed);
    Tracer::install(nullptr);
    return !plain.json.empty() && plain.json == traced.json &&
        !tracer.spans().empty();
}

Outcome
runAnchors(const RunConfig &cfg)
{
    Outcome out;
    const exp::Registry reg = timedSelection();
    std::vector<double> setupS;
    if (!cfg.trace)
        sampleSetup(cfg.seed, setupS);

    const AnchorRun run = runOnce(reg, cfg.seed);
    const AnchorTally t = tally(run.records);
    reportTally(run, t, out);

    if (!cfg.trace) {
        sampleSetup(cfg.seed, setupS);
        out.metric("wall_s", run.wallS, "s");
        out.metric("cpu_s", run.cpuS, "s");
        out.metric("setup_s", median(setupS), "s");
        out.metric("peak_rss_mb", peakRssMb(), "MB");
        return out;
    }

    Tracer tracer;
    Tracer::install(&tracer);
    const AnchorRun traced = runOnce(reg, cfg.seed);
    out.check(traced.json == run.json,
              "anchors results JSON differs between the untraced and "
              "the traced run",
              t.anchored);
    ProbeResult probe;
    {
        ScopedSpan span{"netsim.probe", "netsim"};
        probe = runNetProbe(cfg.seed);
    }
    Tracer::install(nullptr);

    double analyticS = 0.0;
    for (const auto &[name, s] : traced.experimentS) {
        if (!isNetsimFigure(name))
            analyticS += s;
    }
    out.metric("exp.fig25.s", traced.experimentS.at("fig25-traffic-patterns"),
               "s");
    out.metric("exp.fig21.s", traced.experimentS.at("fig21-noc-load-latency"),
               "s");
    out.metric("exp.fig18.s", traced.experimentS.at("fig18-bus-load-latency"),
               "s");
    out.metric("exp.analytic.s", analyticS, "s");
    out.metric("exp.anchor_err", t.errPct, "%");
    out.metric("exp.anchor_misses", static_cast<double>(t.misses),
               "count");
    for (const ProbeResult::PerKind &k : probe.kinds) {
        out.metric("netsim." + k.name + ".ns_per_cycle_low",
                   k.nsPerCycleLow, "ns");
        out.metric("netsim." + k.name + ".ns_per_cycle_sat",
                   k.nsPerCycleSat, "ns");
        if (k.lowSaturated || !k.satSaturated)
            out.note("netsim probe: " + k.name +
                     " low/sat rates did not bracket saturation");
    }
    out.metric("netsim.sat_probes", static_cast<double>(probe.satProbes),
               "count");
    out.metric("netsim.cycles", static_cast<double>(probe.counters.cycles),
               "count");
    out.metric("netsim.packets",
               static_cast<double>(probe.counters.packets), "count");
    out.metric("util.parallel_eff", run.cpuS / (run.wallS * kJobs),
               "ratio");
    out.note("netsim probe: cryobus64 saturation " +
             formatDouble(probe.busSaturation) + ", hybrid256 " +
             formatDouble(probe.hybridSaturation) + " req/node/cycle");
    out.metric("trace.overhead_wall_s", traced.wallS - run.wallS, "s");
    writeTraceFile(cfg, tracer, out);
    return out;
}

} // namespace perfbench
