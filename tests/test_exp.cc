/**
 * @file
 * Tests of the experiment engine: registry selection, the metric
 * anchor gate, result composition, deterministic parallel dispatch,
 * and the sink layer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <sstream>

#include "exp/registry.hh"
#include "exp/runner.hh"
#include "exp/sinks.hh"
#include "util/diag.hh"

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
    // The last four cover the loops beneath the runner that a width-1
    // call keeps on its thread: sweepLoadLatency (fig18),
    // Evaluator::evaluate/runSuite (fig23/24) and the voltage grid.
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
