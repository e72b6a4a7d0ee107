/**
 * @file
 * Tests of the experiment engine: registry selection, the metric
 * anchor gate, result composition, deterministic parallel dispatch,
 * and the sink layer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "core/voltage_optimizer.hh"
#include "dse/sweep_runner.hh"
#include "exp/registry.hh"
#include "exp/runner.hh"
#include "exp/sinks.hh"
#include "mem/memory_system.hh"
#include "pipeline/ipc_model.hh"
#include "pipeline/stage_library.hh"
#include "pipeline/superpipeline.hh"
#include "power/orion_lite.hh"
#include "sys/interval_sim.hh"
#include "sys/workload.hh"
#include "util/diag.hh"
#include "util/failpoint.hh"
#include "util/hash.hh"
#include "util/json.hh"
#include "util/output.hh"

#include "temp_dir.hh"

namespace cryo::exp
{
namespace
{

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

TEST(Metric, UnanchoredAlwaysPasses)
{
    Metric m{"x", 123.0, "GHz", kNan, 0.0};
    EXPECT_FALSE(m.hasAnchor());
    EXPECT_TRUE(m.pass());
    EXPECT_TRUE(std::isnan(m.deviation()));
}

TEST(Metric, RelativeToleranceGate)
{
    Metric m{"f", 4.1, "GHz", 4.0, 0.05};
    EXPECT_TRUE(m.hasAnchor());
    EXPECT_TRUE(m.pass()); // |4.1 - 4| = 0.1 <= 0.05 * 4 = 0.2
    m.value = 4.21;
    EXPECT_FALSE(m.pass());
    EXPECT_NEAR(m.deviation(), 0.0525, 1e-12);
}

TEST(Metric, ZeroToleranceDemandsEquality)
{
    Metric m{"hops", 4.0, "", 4.0, 0.0};
    EXPECT_TRUE(m.pass());
    m.value = std::nextafter(4.0, 5.0);
    EXPECT_FALSE(m.pass());
}

TEST(Metric, ZeroAnchorOnlyMatchesZero)
{
    // relTol * |anchor| = 0 whatever the tolerance: only 0 passes.
    Metric m{"cuts", 0.0, "", 0.0, 0.5};
    EXPECT_TRUE(m.pass());
    m.value = 1e-9;
    EXPECT_FALSE(m.pass());
    EXPECT_TRUE(std::isnan(m.deviation()));
}

TEST(Metric, NonFiniteValueFailsTheGate)
{
    Metric m{"x", kNan, "", 1.0, 0.5};
    EXPECT_FALSE(m.pass());
    m.value = std::numeric_limits<double>::infinity();
    EXPECT_FALSE(m.pass());
}

TEST(ExperimentResult, PreservesEmissionOrder)
{
    ExperimentResult r;
    r.note("before");
    Table &t = r.table({"a", "b"});
    t.addRow({"1", "2"});
    r.note("after");
    r.verdict("done");

    ASSERT_EQ(r.items().size(), 3u);
    EXPECT_EQ(r.items()[0].kind, ExperimentResult::Item::Kind::Note);
    EXPECT_EQ(r.items()[1].kind, ExperimentResult::Item::Kind::TableRef);
    EXPECT_EQ(r.items()[2].kind, ExperimentResult::Item::Kind::Note);
    EXPECT_EQ(r.notes()[r.items()[2].index], "after");
    EXPECT_EQ(r.verdict(), "done");
}

TEST(ExperimentResult, CountsFailedAnchors)
{
    ExperimentResult r;
    EXPECT_EQ(r.metric("free", 7.0), 7.0);
    EXPECT_EQ(r.anchored("good", 1.0, 1.0, 0.0), 1.0);
    EXPECT_EQ(r.anchored("bad", 2.0, 1.0, 0.1), 2.0);
    ASSERT_EQ(r.metrics().size(), 3u);
    EXPECT_EQ(r.failedAnchors(), 1u);
}

TEST(Registry, BuiltinsCoverEveryFigureAndTable)
{
    const Registry &reg = Registry::builtins();
    EXPECT_EQ(reg.all().size(), 29u);

    std::set<std::string> names;
    for (const auto &e : reg.all()) {
        EXPECT_TRUE(names.insert(e.name).second)
            << "duplicate name " << e.name;
        EXPECT_NE(e.run, nullptr) << e.name;
        EXPECT_FALSE(e.title.empty()) << e.name;
        EXPECT_FALSE(e.tags.empty()) << e.name;
    }

    // Paper order: the registry starts with the motivation figures.
    EXPECT_EQ(reg.all().front().name, "fig02-stage-breakdown");
    EXPECT_NE(reg.find("fig23-system-performance"), nullptr);
    EXPECT_EQ(reg.find("fig99-no-such-thing"), nullptr);
}

TEST(Registry, EveryExperimentIsEitherSmokeOrSlow)
{
    // The ctest smoke label must cover everything the slow set skips.
    for (const auto &e : Registry::builtins().all())
        EXPECT_NE(e.hasTag("smoke"), e.hasTag("slow")) << e.name;
}

TEST(Registry, GlobMatch)
{
    EXPECT_TRUE(Registry::globMatch("*", "anything"));
    EXPECT_TRUE(Registry::globMatch("fig1*", "fig16-llc-latency"));
    EXPECT_FALSE(Registry::globMatch("fig1*", "fig23-system"));
    EXPECT_TRUE(Registry::globMatch("fig?2*", "fig22-noc-power"));
    EXPECT_FALSE(Registry::globMatch("fig?2", "fig22-noc-power"));
    EXPECT_TRUE(Registry::globMatch("", ""));
    EXPECT_FALSE(Registry::globMatch("", "x"));
}

TEST(Registry, MatchSelectsByTagOrGlob)
{
    const Registry &reg = Registry::builtins();

    // Empty filter = everything, registration order.
    EXPECT_EQ(reg.match({}).size(), reg.all().size());

    const auto slow = reg.match({"slow"});
    std::vector<std::string> slow_names;
    for (const auto *e : slow)
        slow_names.push_back(e->name);
    EXPECT_EQ(slow_names,
              (std::vector<std::string>{
                  "fig21-noc-load-latency", "fig25-traffic-patterns",
                  "fig26-hybrid-256core", "ablation-voltage"}));

    // OR semantics, deduplicated, registry order preserved.
    const auto sel = reg.match({"table*", "ablation-voltage"});
    ASSERT_EQ(sel.size(), 4u);
    EXPECT_EQ(sel.front()->name, "table1-floorplan");
    EXPECT_EQ(sel.back()->name, "ablation-voltage");

    const auto dup = reg.match({"table1-floorplan", "table*"});
    EXPECT_EQ(dup.size(), 3u);

    EXPECT_TRUE(reg.match({"no-such-tag"}).empty());
}

TEST(Runner, CheapExperimentPassesItsAnchors)
{
    const Registry &reg = Registry::builtins();
    const Experiment *e = reg.find("fig20-bus-latency-breakdown");
    ASSERT_NE(e, nullptr);

    Context ctx;
    ExperimentResult r;
    e->run(ctx, r);

    EXPECT_FALSE(r.tables().empty());
    EXPECT_FALSE(r.metrics().empty());
    EXPECT_EQ(r.failedAnchors(), 0u);

    const std::string text = renderText(*e, r);
    EXPECT_NE(text.find(e->title), std::string::npos);
    EXPECT_NE(text.find(r.verdict()), std::string::npos);
}

TEST(Runner, ParallelJsonIsByteIdenticalToSerial)
{
    RunOptions opts;
    // The last four cover the runner's cell pool (fig18) and the
    // loops beneath the runner that a width-1 call keeps on its
    // thread: IntervalSimulator::speedups/runSuite (fig23/24) and the
    // voltage grid.
    opts.filters = {"fig20-bus-latency-breakdown", "table4-eval-setup",
                    "fig05-wire-speedup", "fig18-bus-load-latency",
                    "fig23-system-performance", "fig24-spec-prefetch",
                    "ablation-voltage"};
    opts.quiet = true;

    const auto render = [&](int jobs) {
        RunOptions o = opts;
        o.jobs = jobs;
        const auto records = runExperiments(Registry::builtins(), o);
        std::ostringstream os;
        writeJson(os, records, o.seed);
        return os.str();
    };

    const std::string serial = render(1);
    EXPECT_EQ(serial, render(4));
    EXPECT_NE(serial.find("cryowire-results-v2"), std::string::npos);
    EXPECT_NE(serial.find("fig05-wire-speedup"), std::string::npos);
}

// --- Runner failure isolation -----------------------------------------

void
healthyRun(const Context &, ExperimentResult &r)
{
    r.anchored("healthy-metric", 1.0, 1.0, 0.0);
    r.verdict("healthy sibling ran to completion");
}

void
throwingRun(const Context &, ExperimentResult &r)
{
    r.metric("partial-metric", 42.0);
    CRYO_CONTEXT("inner model step");
    fatal("injected failure");
}

Registry
syntheticRegistry()
{
    Registry reg;
    reg.add({"exp-healthy", "Healthy experiment", "always passes",
             {"synthetic"}, &healthyRun});
    reg.add({"exp-throwing", "Throwing experiment", "always throws",
             {"synthetic"}, &throwingRun});
    return reg;
}

TEST(Runner, ThrowingExperimentIsIsolated)
{
    const Registry reg = syntheticRegistry();
    RunOptions opts;
    opts.quiet = true;
    const auto records = runExperiments(reg, opts);
    ASSERT_EQ(records.size(), 2u);

    // The sibling ran to completion despite the throw.
    EXPECT_FALSE(records[0].failed);
    EXPECT_EQ(records[0].result.failedAnchors(), 0u);
    EXPECT_EQ(records[0].result.verdict(),
              "healthy sibling ran to completion");

    // The throw was captured, not propagated.
    EXPECT_TRUE(records[1].failed);
    EXPECT_EQ(records[1].error, "injected failure");
    ASSERT_EQ(records[1].errorContext.size(), 2u);
    EXPECT_EQ(records[1].errorContext[0], "experiment exp-throwing");
    EXPECT_EQ(records[1].errorContext[1], "inner model step");
    // Whatever the experiment recorded before dying is preserved.
    ASSERT_EQ(records[1].result.metrics().size(), 1u);
    EXPECT_EQ(records[1].result.metrics()[0].name, "partial-metric");
}

TEST(Runner, FailedExperimentLandsInJsonAsFailedStatus)
{
    const Registry reg = syntheticRegistry();
    RunOptions opts;
    opts.quiet = true;
    const auto records = runExperiments(reg, opts);

    std::ostringstream os;
    writeJson(os, records, opts.seed);
    const std::string json = os.str();
    EXPECT_NE(json.find("cryowire-results-v2"), std::string::npos);
    EXPECT_NE(json.find("\"status\": \"ok\""), std::string::npos);
    EXPECT_NE(json.find("\"status\": \"failed\""), std::string::npos);
    EXPECT_NE(json.find("injected failure"), std::string::npos);
    EXPECT_NE(json.find("experiment exp-throwing"), std::string::npos);
    EXPECT_NE(json.find("\"experiments_failed\": 1"),
              std::string::npos);
    // The healthy sibling's anchor still counts; the dead one's
    // partial metrics do not.
    EXPECT_NE(json.find("\"total\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"failed\": 0"), std::string::npos);
}

TEST(Runner, FailedExperimentFailsTheGate)
{
    const Registry reg = syntheticRegistry();
    RunOptions opts;
    opts.quiet = true;
    const auto records = runExperiments(reg, opts);

    std::ostringstream sum;
    EXPECT_EQ(renderAnchorSummary(sum, records), 1u);
    EXPECT_NE(sum.str().find("EXPERIMENT FAILED  exp-throwing"),
              std::string::npos);
    EXPECT_NE(sum.str().find("inner model step"), std::string::npos);
    EXPECT_NE(sum.str().find("experiments failed: 1"),
              std::string::npos);

    const std::string text = renderText(records[1]);
    EXPECT_NE(text.find("EXPERIMENT FAILED"), std::string::npos);
    EXPECT_NE(text.find("injected failure"), std::string::npos);
}

TEST(Runner, ParallelFailureIsDeterministic)
{
    const Registry reg = syntheticRegistry();
    const auto render = [&](int jobs) {
        RunOptions o;
        o.quiet = true;
        o.jobs = jobs;
        const auto records = runExperiments(reg, o);
        std::ostringstream os;
        writeJson(os, records, o.seed);
        return os.str();
    };
    EXPECT_EQ(render(1), render(4));
}

TEST(Runner, AnchorSummaryReportsMisses)
{
    RunOptions opts;
    opts.filters = {"fig20-bus-latency-breakdown"};
    opts.quiet = true;
    auto records = runExperiments(Registry::builtins(), opts);
    ASSERT_EQ(records.size(), 1u);

    std::ostringstream ok;
    EXPECT_EQ(renderAnchorSummary(ok, records), 0u);
    EXPECT_NE(ok.str().find("within tolerance"), std::string::npos);

    // Break one anchored metric and the summary must name it.
    records[0].result.anchored("synthetic-miss", 2.0, 1.0, 0.1);
    std::ostringstream bad;
    EXPECT_EQ(renderAnchorSummary(bad, records), 1u);
    EXPECT_NE(bad.str().find("synthetic-miss"), std::string::npos);
}

// --- The CSV sink -----------------------------------------------------

/** Two records for writeCsv: a healthy one whose table has a rule and
 * cells to quote, and a failed one with an error and two frames. */
std::vector<RunRecord>
csvRecords()
{
    static const Experiment healthy{"csv-healthy", "Healthy", "one table",
                                    {"synthetic"}, nullptr};
    static const Experiment dead{"csv-failed", "Failed", "throws",
                                 {"synthetic"}, nullptr};
    std::vector<RunRecord> records(2);
    records[0].experiment = &healthy;
    ExperimentResult &r = records[0].result;
    r.anchored("freq", 4.1, 4.0, 0.05, "GHz");
    r.anchored("missed", 2.0, 1.0, 0.1);
    r.metric("third", 1.0 / 3.0);
    Table &t = r.table({"design", "note"});
    t.addRow({"a,b", "said \"hi\""});
    t.addRule();
    t.addRow({"plain", "2"});
    records[1].experiment = &dead;
    records[1].result.metric("partial", 1e-300, "W");
    records[1].failed = true;
    records[1].error = "injected failure";
    records[1].errorContext = {"experiment csv-failed", "step 2, retry"};
    return records;
}

TEST(Sinks, CsvFilesArePinned)
{
    const test::TempDir tmp;
    const std::string dir = tmp.path + "/csv"; // writeCsv creates it
    for (const RunRecord &rec : csvRecords())
        writeCsv(dir, rec);

    std::map<std::string, std::string> files;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        files[entry.path().filename().string()] =
            test::readFile(entry.path().string());
    // Recorded before writeFile and csvRow replaced CsvWriter.
    const std::map<std::string, std::string> expected = {
        {"csv-failed.error.csv", "field,value\n"
                                 "error,injected failure\n"
                                 "context,experiment csv-failed\n"
                                 "context,\"step 2, retry\"\n"},
        {"csv-failed.metrics.csv",
         "metric,value,unit,anchor,rel_tol,status\n"
         "partial,1e-300,W,,,\n"},
        {"csv-healthy.metrics.csv",
         "metric,value,unit,anchor,rel_tol,status\n"
         "freq,4.1,GHz,4,0.05,pass\n"
         "missed,2,,1,0.1,FAIL\n"
         "third,0.3333333333333333,,,,\n"},
        {"csv-healthy.table1.csv", "design,note\n"
                                   "\"a,b\",\"said \"\"hi\"\"\"\n"
                                   "plain,2\n"},
    };
    EXPECT_EQ(files, expected);
}

TEST(Sinks, CsvIntoARegularFileIsFatalNamingIt)
{
    const test::TempDir tmp;
    const std::string file = tmp.path + "/results.csv";
    writeFile(file, "");
    try {
        writeCsv(file, csvRecords()[0]);
        FAIL() << "no throw";
    } catch (const FatalError &e) {
        EXPECT_NE(e.message().find("\"" + file + "\""), std::string::npos)
            << e.message();
    }
}

// --- The cell pool ----------------------------------------------------

/** A cheap cell: an 8-node bus over a short window. */
netsim::Cell
busCell(netsim::ProbeKind probe, double rate, const Context &ctx,
        int nodes = 8)
{
    netsim::BusSpec bus;
    bus.nodes = nodes;
    netsim::TrafficSpec tr = ctx.traffic();
    tr.injectionRate = rate;
    netsim::MeasureOpts opts;
    opts.warmupCycles = 100;
    opts.measureCycles = 400;
    switch (probe) {
    case netsim::ProbeKind::ZeroLoad:
        return netsim::Cell::zeroLoad(bus, tr, opts);
    case netsim::ProbeKind::LoadPoint:
        return netsim::Cell::loadPoint(bus, tr, opts);
    case netsim::ProbeKind::Saturation:
        break;
    }
    return netsim::Cell::saturation(bus, tr, 0.5, 0.01, opts);
}

/** Record every cell's value as a metric, in order. */
void
recordCells(const Context &ctx, const std::vector<netsim::Cell> &cells,
            ExperimentResult &r)
{
    const auto res = ctx.measure(cells);
    for (std::size_t i = 0; i < res.size(); ++i)
        r.metric("cell-" + std::to_string(i), res[i].value);
    r.verdict("measured " + std::to_string(res.size()) + " cells");
}

std::vector<netsim::Cell>
alphaCells(const Context &ctx)
{
    using netsim::ProbeKind;
    return {busCell(ProbeKind::ZeroLoad, 0.0, ctx),
            busCell(ProbeKind::LoadPoint, 0.02, ctx),
            busCell(ProbeKind::LoadPoint, 0.05, ctx),
            busCell(ProbeKind::Saturation, 0.0, ctx)};
}

void
alphaRun(const Context &ctx, ExperimentResult &r)
{
    recordCells(ctx, alphaCells(ctx), r);
}

/** Shares its first cell with alpha. */
std::vector<netsim::Cell>
betaCells(const Context &ctx)
{
    using netsim::ProbeKind;
    return {busCell(ProbeKind::LoadPoint, 0.02, ctx),
            busCell(ProbeKind::LoadPoint, 0.08, ctx, 16)};
}

void
betaRun(const Context &ctx, ExperimentResult &r)
{
    recordCells(ctx, betaCells(ctx), r);
}

/** A good cell, then one whose 1-node bus cannot be built. */
std::vector<netsim::Cell>
brokenCells(const Context &ctx)
{
    using netsim::ProbeKind;
    return {busCell(ProbeKind::LoadPoint, 0.03, ctx),
            busCell(ProbeKind::LoadPoint, 0.03, ctx, 1)};
}

void
brokenRun(const Context &ctx, ExperimentResult &r)
{
    recordCells(ctx, brokenCells(ctx), r);
}

/** alpha, beta and their five distinct cells. */
Registry
pooledRegistry(bool with_broken)
{
    Registry reg;
    reg.add({"exp-alpha", "Alpha", "four cells", {"pool"}, &alphaRun,
             &alphaCells});
    if (with_broken)
        reg.add({"exp-broken", "Broken", "one cell throws", {"pool"},
                 &brokenRun, &brokenCells});
    reg.add({"exp-beta", "Beta", "two cells, one shared", {"pool"},
             &betaRun, &betaCells});
    return reg;
}

std::string
poolJson(const Registry &reg, int jobs)
{
    RunOptions o;
    o.quiet = true;
    o.jobs = jobs;
    const auto records = runExperiments(reg, o);
    std::ostringstream os;
    writeJson(os, records, o.seed);
    return os.str();
}

/** Arms "netsim.cell" for the scope; the test reads its hit count. */
struct CellFailpoint
{
    explicit CellFailpoint(const std::string &spec)
    {
        failpoint::arm("netsim.cell", spec);
    }
    ~CellFailpoint() { failpoint::disarmAll(); }
    CellFailpoint(const CellFailpoint &) = delete;
    CellFailpoint &operator=(const CellFailpoint &) = delete;
};

TEST(CellPool, EveryDeclaredCellIsSimulatedExactlyOnce)
{
    const Registry reg = pooledRegistry(false);
    for (int jobs : {1, 4}) {
        // Never fires; it counts every runCell, the hooks' included.
        CellFailpoint count{"nth(1000000000):error"};
        RunOptions o;
        o.quiet = true;
        o.jobs = jobs;
        const auto records = runExperiments(reg, o);
        EXPECT_EQ(failpoint::hits("netsim.cell"), 5u) << "jobs " << jobs;
        ASSERT_EQ(records.size(), 2u);
        EXPECT_FALSE(records[0].failed);
        EXPECT_FALSE(records[1].failed);
        EXPECT_EQ(records[0].result.metrics().size(), 4u);
        EXPECT_EQ(records[1].result.metrics().size(), 2u);
        // The shared cell reads the same result in both experiments.
        EXPECT_EQ(records[0].result.metrics()[1].value,
                  records[1].result.metrics()[0].value);
    }
}

TEST(CellPool, JsonIsByteIdenticalAcrossJobs)
{
    const Registry reg = pooledRegistry(true);
    const std::string serial = poolJson(reg, 1);
    EXPECT_EQ(serial, poolJson(reg, 4));
    EXPECT_NE(serial.find("cell-3"), std::string::npos);
}

TEST(CellPool, ThrowingCellFailsOnlyItsExperiment)
{
    // The message the hook gives when it runs its cells itself.
    std::string direct;
    try {
        ExperimentResult r;
        brokenRun(Context{}, r);
    } catch (const FatalError &err) {
        direct = err.message();
    }
    ASSERT_FALSE(direct.empty());

    for (int jobs : {1, 4}) {
        RunOptions o;
        o.quiet = true;
        o.jobs = jobs;
        const auto records = runExperiments(pooledRegistry(true), o);
        ASSERT_EQ(records.size(), 3u);
        EXPECT_FALSE(records[0].failed);
        EXPECT_FALSE(records[2].failed);
        EXPECT_EQ(records[2].result.metrics().size(), 2u);

        const RunRecord &bad = records[1];
        EXPECT_TRUE(bad.failed);
        EXPECT_EQ(bad.error, direct);
        ASSERT_FALSE(bad.errorContext.empty());
        EXPECT_EQ(bad.errorContext[0], "experiment exp-broken");
    }
}

TEST(CellPool, PlainContextHookGivesTheRunnersResult)
{
    const Registry reg = pooledRegistry(false);
    RunOptions o;
    o.quiet = true;
    o.jobs = 4;
    o.seed = 3;
    const auto records = runExperiments(reg, o);
    ASSERT_EQ(records.size(), 2u);

    const Context plain{o.seed};
    for (const RunRecord &rec : records) {
        ExperimentResult direct;
        rec.experiment->run(plain, direct);
        const auto &pooled = rec.result.metrics();
        ASSERT_EQ(direct.metrics().size(), pooled.size());
        for (std::size_t i = 0; i < pooled.size(); ++i)
            EXPECT_EQ(direct.metrics()[i].value, pooled[i].value)
                << rec.experiment->name << " cell " << i;
    }
}

std::vector<netsim::Cell>
slowCells(const Context &ctx)
{
    return {busCell(netsim::ProbeKind::LoadPoint, 0.02, ctx)};
}

void
slowRun(const Context &ctx, ExperimentResult &r)
{
    recordCells(ctx, slowCells(ctx), r);
}

TEST(CellPool, WatchdogFlagsALongCellOnceUnderItsExperiment)
{
    Registry reg;
    reg.add({"exp-slow", "Slow", "one slow cell", {"pool"}, &slowRun,
             &slowCells});
    const std::string quiet_json = poolJson(reg, 1);

    std::string json;
    std::string err;
    {
        // Hold the pool's only cell for 3.5 monitor polls.
        CellFailpoint slow{"nth(1):delay(700)"};
        RunOptions o;
        o.quiet = true;
        o.watchdogSeconds = 0.05;
        testing::internal::CaptureStderr();
        const auto records = runExperiments(reg, o);
        err = testing::internal::GetCapturedStderr();
        std::ostringstream os;
        writeJson(os, records, o.seed);
        json = os.str();
    }
    EXPECT_EQ(json, quiet_json);

    std::size_t flags = 0;
    for (std::size_t at = err.find("still running");
         at != std::string::npos; at = err.find("still running", at + 1))
        ++flags;
    EXPECT_EQ(flags, 1u) << err;
    EXPECT_NE(err.find("experiment exp-slow still running"),
              std::string::npos)
        << err;
}

TEST(ExpTest, SystemFiguresArePinned)
{
    // Every table cell, note, verdict and metric bit of the system
    // figures, as FNV-1a digests of the text report and the results
    // JSON at seed 1. Recorded before these figures moved onto
    // IntervalSimulator::speedups and dse::PointEvaluator.
    RunOptions opts;
    opts.filters = {"fig03-cpi-stacks", "fig17-bus-vs-mesh",
                    "fig23-system-performance", "fig24-spec-prefetch",
                    "fig27-temperature-sweep", "ablation-cloudsuite"};
    opts.quiet = true;
    const auto records = runExperiments(Registry::builtins(), opts);
    ASSERT_EQ(records.size(), opts.filters.size());

    std::string text;
    for (const RunRecord &rec : records) {
        EXPECT_FALSE(rec.failed) << rec.error;
        text += renderText(rec);
    }
    std::ostringstream json;
    writeJson(json, records, opts.seed);

    const auto digestOf = [](const std::string &bytes) {
        Fnv1a h;
        h.bytes(bytes.data(), bytes.size());
        char hex[32];
        std::snprintf(hex, sizeof hex, "0x%016llx",
                      static_cast<unsigned long long>(h.digest()));
        return std::string{hex};
    };
    EXPECT_EQ(digestOf(text), "0xada313ddfde553f3");
    EXPECT_EQ(digestOf(json.str()), "0xc21f5c8d2faab95e");
}

/** The value of @p r's metric @p name (NaN when it has none). */
double
metricValue(const ExperimentResult &r, const std::string &name)
{
    for (const Metric &m : r.metrics())
        if (m.name == name)
            return m.value;
    return kNan;
}

TEST(ExpTest, Fig23ReadsTheContextsOwnBuilder)
{
    // A Context built from a non-default point has one model stack:
    // Fig. 23 reports the speed-ups of that point's Table-4 systems,
    // not those of a default-floorplan second builder.
    dse::DesignPoint point;
    point.floorplanScale = 1.3;
    const Context ctx{point};
    const Experiment *e =
        Registry::builtins().find("fig23-system-performance");
    ASSERT_NE(e, nullptr);
    ExperimentResult r;
    e->run(ctx, r);

    const auto designs = ctx.builder().table4Systems();
    const auto suite = sys::parsec21();
    const auto mean = [&](std::size_t d) {
        return ctx.simulator().meanSpeedup(designs[d], designs[1], suite);
    };
    EXPECT_EQ(metricValue(r, "mean-baseline300"), mean(0));
    EXPECT_EQ(metricValue(r, "mean-cryosp-mesh"), mean(2));
    EXPECT_EQ(metricValue(r, "mean-chp-cryobus"), mean(3));
    EXPECT_EQ(metricValue(r, "mean-cryosp-cryobus"), mean(4));
}

TEST(ExpTest, Tables3And4ReadTheContextsOwnBuilder)
{
    // At a non-default floorplan, Tables 3 and 4 clock CryoSP as the
    // Context's own builder does, not as a default-floorplan
    // designer would.
    dse::DesignPoint point;
    point.floorplanScale = 1.3;
    const Context ctx{point};
    const sys::SystemDesign cryoSp = ctx.builder().cryoSpMesh77();
    const double cryoSpGhz = cryoSp.core.frequency / 1e9;

    const Experiment *t3 = Registry::builtins().find("table3-core-configs");
    ASSERT_NE(t3, nullptr);
    ExperimentResult r3;
    t3->run(ctx, r3);
    EXPECT_EQ(metricValue(r3, "f/77K CryoSP"), cryoSpGhz);

    const Experiment *t4 = Registry::builtins().find("table4-eval-setup");
    ASSERT_NE(t4, nullptr);
    ExperimentResult r4;
    t4->run(ctx, r4);
    const Table &systems = r4.tables().front();
    ASSERT_GE(systems.rows().size(), 3u);
    EXPECT_EQ(systems.rows()[2][0], cryoSp.name);
    EXPECT_EQ(systems.rows()[2][2], Table::num(cryoSpGhz, 2) + " GHz");
}

TEST(ExpTest, HooksReadTheContextsOwnModelStack)
{
    // A Context built from a non-default point has one model stack:
    // each hook reports that point's floorplan, core count and NoCs,
    // not those of a default-point model of its own. Each case
    // recomputes one reported number from ctx.builder(). (Figs. 2, 9
    // and 12 read the same at this point from either stack; Fig. 23
    // and Tables 3 and 4 have tests of their own above.)
    dse::DesignPoint point;
    point.cores = 16;
    point.floorplanScale = 1.3;
    const Context ctx{point};
    const pipeline::CoreDesigner &cores = ctx.builder().cores();
    const pipeline::CriticalPathModel &model = cores.model();
    const noc::NocDesigner &nocs = ctx.builder().nocs();

    const auto stages = pipeline::boomSkylakeStages();
    const auto d77 = model.stageDelays(stages, constants::ln2Temp);
    std::size_t bypass = 0; // a forwarding stage, whose wire scales
    while (d77.at(bypass).name != "execute bypass")
        ++bypass;
    const double max300 = model.maxDelay(stages, constants::roomTemp);
    const auto plan =
        pipeline::Superpipeliner{model}.plan(stages, constants::ln2Temp);
    const double netGain77 =
        model.frequency(plan.result, constants::ln2Temp) /
        model.frequency(stages, constants::ln2Temp) *
        pipeline::IpcModel{}.frontendDeepeningFactor(plan.addedStages);
    core::VoltageConstraints budget;
    budget.totalPowerBudget = 1.30;
    const double paperPointGhz =
        core::VoltageOptimizer{ctx.technology(), model}
            .evaluate(cores.superpipelineCryoCore77(), cores.baseline300(),
                      77.0, {0.64, 0.25}, budget)
            .frequency /
        1e9;
    const power::OrionLite orion{ctx.technology()};

    using Reported = std::function<std::string(const ExperimentResult &)>;
    const auto metric = [](std::string name) -> Reported {
        return [name](const ExperimentResult &r) {
            return formatDouble(metricValue(r, name));
        };
    };
    const auto cell = [](std::size_t table, std::size_t row,
                         std::size_t col) -> Reported {
        return [=](const ExperimentResult &r) {
            return r.tables().at(table).rows().at(row).at(col);
        };
    };
    struct Case
    {
        std::string experiment;
        Reported reported;
        std::string want;
    };
    const Case cases[] = {
        {"fig13-critical-path-77k", cell(0, bypass, 2),
         Table::num(d77[bypass].total())},
        {"fig14-superpipelined", metric("freq-gain-vs-300k"),
         formatDouble(max300 /
                          model.maxDelay(plan.result, constants::ln2Temp) -
                      1.0)},
        {"table1-floorplan", metric("forwarding-wire-um"),
         formatDouble(cores.floorplan().forwardingWireLength().value() *
                      1e6)},
        {"fig16-llc-latency", metric("mesh77-hit-noc-share"),
         formatDouble(mem::MemorySystem{mem::MemTiming::at77(),
                                        nocs.mesh77()}
                          .l3Hit()
                          .nocShare())},
        {"fig20-bus-latency-breakdown", cell(0, 0, 6),
         std::to_string(nocs.sharedBus300().busBreakdown().total())},
        {"fig22-noc-power", metric("mesh77-total"),
         formatDouble(orion.power(nocs.mesh77()).total() /
                      orion.power(nocs.mesh300()).total())},
        {"ablation-voltage", metric("paper-point-freq-ghz"),
         formatDouble(paperPointGhz)},
        {"ablation-superpipeline", metric("net-gain-77k"),
         formatDouble(netGain77)},
        {"ablation-bus-design", cell(1, 0, 1),
         Table::num(sys::IntervalSimulator::saturationTxRate(
                        nocs.cryoBus(), 1),
                    4)},
    };
    std::map<std::string, ExperimentResult> results;
    for (const Case &c : cases) {
        SCOPED_TRACE(c.experiment);
        auto it = results.find(c.experiment);
        if (it == results.end()) {
            const Experiment *e = Registry::builtins().find(c.experiment);
            ASSERT_NE(e, nullptr);
            it = results.emplace(c.experiment, ExperimentResult{}).first;
            e->run(ctx, it->second);
        }
        EXPECT_EQ(c.reported(it->second), c.want);
    }

    // The netsim figures simulate the point's core count; Fig. 26's
    // own axis is 256 cores.
    const std::pair<const char *, int> netsimCases[] = {
        {"fig18-bus-load-latency", point.cores},
        {"fig21-noc-load-latency", point.cores},
        {"fig25-traffic-patterns", point.cores},
        {"fig26-hybrid-256core", 256}};
    for (const auto &[name, nodes] : netsimCases) {
        SCOPED_TRACE(name);
        const Experiment *e = Registry::builtins().find(name);
        ASSERT_NE(e, nullptr);
        ASSERT_NE(e->cells, nullptr);
        std::set<int> sizes;
        for (const netsim::Cell &c : e->cells(ctx))
            sizes.insert(netsim::buildNetwork(c.network)->nodes());
        EXPECT_EQ(sizes, std::set<int>{nodes});
    }
}

TEST(ExpTest, Fig27EqualsItsSweepSpec)
{
    // examples/specs/fig27_temperature.json sweeps the design points
    // Fig. 27 evaluates; the registry's figures must equal the sweep's
    // to the bit.
    const dse::SweepSpec spec = dse::SweepSpec::load(
        CRYOWIRE_SOURCE_DIR "/examples/specs/fig27_temperature.json");
    const dse::PointEvaluator eval;
    std::ostringstream lines;
    dse::SweepOptions opts;
    opts.jobs = 1;
    double ppw77 = 0.0, ppw100 = 0.0, best_ppw = 0.0, best_t = 0.0;
    for (const dse::EvaluatedPoint &p :
         dse::runSweep(spec, eval, lines, opts)) {
        const double temp =
            dse::fieldIsSet(p.point.tempK) ? p.point.tempK : 300.0;
        const double ppw = p.metrics.perfPerWatt;
        if (temp == 77.0)
            ppw77 = ppw;
        if (temp == 100.0)
            ppw100 = ppw;
        if (ppw > best_ppw) {
            best_ppw = ppw;
            best_t = temp;
        }
    }

    const Experiment *e =
        Registry::builtins().find("fig27-temperature-sweep");
    ASSERT_NE(e, nullptr);
    ExperimentResult r;
    e->run(Context{}, r);
    EXPECT_EQ(metricValue(r, "ppw-100k-over-77k"), ppw100 / ppw77);
    EXPECT_EQ(metricValue(r, "best-temperature-k"), best_t);
}

TEST(Context, SeedFlowsIntoTraffic)
{
    Context a{7};
    EXPECT_EQ(a.seed(), 7u);
    EXPECT_EQ(a.traffic().seed, 7u);
    EXPECT_EQ(a.directoryTraffic().seed, 7u);
    // Directory traffic models 5-flit data replies.
    EXPECT_GT(a.directoryTraffic().responseFlits,
              a.traffic().responseFlits);
}

} // namespace
} // namespace cryo::exp
