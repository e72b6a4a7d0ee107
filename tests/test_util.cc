/**
 * @file
 * Unit tests for the util layer: statistics, histogram, table, CSV,
 * the deterministic RNG, and the drivers' flag tables (util/cli).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <new>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/cli.hh"
#include "util/json.hh"
#include "util/diag.hh"
#include "util/output.hh"
#include "util/parallel.hh"
#include "util/thread_pool.hh"
#include "util/rng.hh"
#include "util/stats.hh"
#include "util/table.hh"
#include "util/units.hh"
#include "util/validate.hh"

#include "temp_dir.hh"

namespace
{

/** operator new calls on this thread while tls_counting is set. */
thread_local bool tls_counting = false;
thread_local std::size_t tls_allocations = 0;

} // namespace

// Counting replacements of the global allocation functions (the array
// and nothrow forms call these), so a test can assert that a path
// allocates nothing. Not inlined: GCC would otherwise see free() meet
// a pointer from operator new and warn (-Wmismatched-new-delete).
[[gnu::noinline]] void *
operator new(std::size_t size)
{
    if (tls_counting)
        ++tls_allocations;
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace
{

using namespace cryo;

/** Heap allocations @p fn makes on the calling thread. */
template <typename Fn>
std::size_t
allocationsOf(Fn &&fn)
{
    tls_allocations = 0;
    tls_counting = true;
    fn();
    tls_counting = false;
    return tls_allocations;
}

TEST(RunningStats, EmptyIsZero)
{
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.sum(), 0.0);
}

TEST(RunningStats, SingleValue)
{
    RunningStats s;
    s.add(42.0);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.mean(), 42.0);
    EXPECT_DOUBLE_EQ(s.min(), 42.0);
    EXPECT_DOUBLE_EQ(s.max(), 42.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownMoments)
{
    RunningStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    // Sample variance of the classic example: 32/7.
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesSequential)
{
    RunningStats a, b, all;
    for (int i = 0; i < 100; ++i) {
        const double x = std::sin(i) * 10.0;
        (i % 2 ? a : b).add(x);
        all.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeIntoEmpty)
{
    RunningStats a, b;
    b.add(1.0);
    b.add(3.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.mean(), 2.0);
}

TEST(RunningStats, ResetClears)
{
    RunningStats s;
    s.add(5.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
}

TEST(Histogram, RejectsBadConfig)
{
    EXPECT_THROW(Histogram(0, 1.0), FatalError);
    EXPECT_THROW(Histogram(4, 0.0), FatalError);
}

TEST(Histogram, BinsAndPercentiles)
{
    Histogram h(10, 1.0);
    for (int i = 0; i < 100; ++i)
        h.add(i / 10.0); // uniform over [0, 10)
    EXPECT_EQ(h.total(), 100u);
    const double median = h.percentile(0.5);
    EXPECT_NEAR(median, 5.0, 1.0);
    EXPECT_LE(h.percentile(0.1), h.percentile(0.9));
}

TEST(Histogram, OverflowCounted)
{
    Histogram h(4, 1.0);
    h.add(100.0);
    EXPECT_EQ(h.total(), 1u);
    // The percentile of an all-overflow histogram is the top edge.
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 4.0);
}

TEST(Histogram, UnderflowKeptOutOfBinZero)
{
    Histogram h(4, 1.0);
    h.add(-5.0);
    h.add(-0.5);
    h.add(0.5);
    EXPECT_EQ(h.total(), 3u);
    EXPECT_EQ(h.underflow(), 2u);
    // Bin 0 holds only the genuine [0, 1) sample, not the negatives.
    EXPECT_EQ(h.bins()[0], 1u);
}

TEST(Histogram, PercentileEdgesLandOnRealSamples)
{
    Histogram h(10, 1.0);
    h.add(3.5); // bin 3
    h.add(6.5); // bin 6
    // p0 is the first sample's bin, not empty bin 0's midpoint.
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 3.5);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 3.5);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 6.5);
}

TEST(Histogram, OutOfRangeMassSaturatesToEdges)
{
    Histogram h(4, 2.0);
    h.add(-1.0); // underflow
    h.add(5.0);  // bin 2
    h.add(99.0); // overflow
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    // Underflow mass reports the lower range edge, overflow the upper.
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 5.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 8.0);
}

TEST(Histogram, MergeAddsCountsBinwiseWithEdgeMass)
{
    Histogram a(8, 1.0);
    Histogram b(8, 1.0);
    a.add(0.5);
    a.add(1.5);
    b.add(1.5);
    b.add(100.0); // overflow
    b.add(-3.0);  // underflow
    a.merge(b);
    EXPECT_EQ(a.total(), 5u);
    EXPECT_EQ(a.overflow(), 1u);
    EXPECT_EQ(a.underflow(), 1u);
    EXPECT_EQ(a.bins()[0], 1u);
    EXPECT_EQ(a.bins()[1], 2u); // both 1.5 samples landed together
}

TEST(Histogram, MergeRejectsMismatchedGeometry)
{
    Histogram a(8, 1.0);
    Histogram fewer(4, 1.0);
    Histogram wider(8, 2.0);
    EXPECT_THROW(a.merge(fewer), FatalError);
    EXPECT_THROW(a.merge(wider), FatalError);
}

TEST(Histogram, WriteJsonSnapshotsCountsAndPercentiles)
{
    Histogram h(10, 1.0);
    for (int i = 0; i < 100; ++i)
        h.add(i / 10.0); // uniform over [0, 10)
    h.add(-1.0);
    h.add(99.0);

    std::ostringstream out;
    JsonWriter w{out, /*indent=*/0};
    h.writeJson(w);
    const JsonValue v = parseJson(out.str(), "<hist>");
    EXPECT_EQ(v.find("count")->asInteger(), 102);
    EXPECT_EQ(v.find("underflow")->asInteger(), 1);
    EXPECT_EQ(v.find("overflow")->asInteger(), 1);
    EXPECT_EQ(v.find("bins")->asInteger(), 10);
    EXPECT_DOUBLE_EQ(v.find("bin_width")->asNumber(), 1.0);
    EXPECT_DOUBLE_EQ(v.find("p50")->asNumber(), h.percentile(0.50));
    EXPECT_DOUBLE_EQ(v.find("p99")->asNumber(), h.percentile(0.99));
    EXPECT_LE(v.find("p50")->asNumber(), v.find("p999")->asNumber());
}

TEST(Means, Geometric)
{
    EXPECT_NEAR(geometricMean({2.0, 8.0}), 4.0, 1e-12);
    EXPECT_NEAR(geometricMean({3.0, 3.0, 3.0}), 3.0, 1e-12);
    EXPECT_THROW(geometricMean({}), FatalError);
    EXPECT_THROW(geometricMean({1.0, -1.0}), FatalError);
}

TEST(Means, Arithmetic)
{
    EXPECT_DOUBLE_EQ(arithmeticMean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_DOUBLE_EQ(arithmeticMean({}), 0.0);
}

TEST(Table, RendersAlignedCells)
{
    Table t({"a", "bb"});
    t.addRow({"x", "y"});
    const std::string s = t.str();
    EXPECT_NE(s.find("| a "), std::string::npos);
    EXPECT_NE(s.find("| x "), std::string::npos);
    // Every line has equal width.
    std::size_t width = s.find('\n');
    for (std::size_t pos = 0; pos < s.size();) {
        const std::size_t next = s.find('\n', pos);
        EXPECT_EQ(next - pos, width);
        pos = next + 1;
    }
}

TEST(Table, RowWidthChecked)
{
    Table t({"a", "b"});
    EXPECT_THROW(t.addRow({"only one"}), FatalError);
}

TEST(Table, Formatters)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::mult(3.824, 2), "3.82x");
    EXPECT_EQ(Table::pct(0.456, 1), "45.6%");
}

TEST(Table, RuleRows)
{
    Table t({"h"});
    t.addRow({"1"});
    t.addRule();
    t.addRow({"2"});
    const std::string s = t.str();
    // header rule + top + mid + bottom = 4 separator lines.
    int rules = 0;
    for (std::size_t pos = 0; (pos = s.find("+-", pos)) !=
         std::string::npos; ++pos)
        ++rules;
    EXPECT_EQ(rules, 4);
}

TEST(Csv, EscapesSpecials)
{
    const std::vector<std::pair<std::vector<std::string>, std::string>>
        cases = {
            {{"plain", "1.5"}, "plain,1.5\n"},
            {{"a,b"}, "\"a,b\"\n"},
            {{"he said \"hi\""}, "\"he said \"\"hi\"\"\"\n"},
            {{"two\nlines", "x"}, "\"two\nlines\",x\n"},
            {{"", "x", ""}, ",x,\n"},
            {{}, "\n"},
        };
    for (const auto &[cells, row] : cases)
        EXPECT_EQ(csvRow(cells), row);
}

TEST(WriteFile, WritesTheBytesExactly)
{
    const test::TempDir dir;
    const std::string path = dir.path + "/out.csv";
    // Past a page, with a NUL and no trailing newline.
    std::string bytes = "a,\"b\"\n" + std::string(1, '\0');
    for (int i = 0; i < 2000; ++i)
        bytes += std::to_string(i) + ',';
    writeFile(path, bytes);
    EXPECT_EQ(test::readFile(path), bytes);
    // An existing file is truncated, not appended to.
    writeFile(path, "short");
    EXPECT_EQ(test::readFile(path), "short");
    writeFile(path, "");
    EXPECT_EQ(test::readFile(path), "");
}

TEST(WriteFile, FailuresAreFatalNamingThePathAndReason)
{
    const test::TempDir dir;
    std::vector<std::pair<std::string, int>> cases = {
        {dir.path + "/no-such-dir/out.json", ENOENT}};
    if (std::filesystem::exists("/dev/full")) // absent on some hosts
        cases.emplace_back("/dev/full", ENOSPC);
    for (const auto &[path, err] : cases) {
        try {
            writeFile(path, "{}\n");
            ADD_FAILURE() << path << ": no throw";
        } catch (const FatalError &e) {
            EXPECT_NE(e.message().find("\"" + path + "\""),
                      std::string::npos)
                << e.message();
            EXPECT_NE(e.message().find(std::strerror(err)),
                      std::string::npos)
                << e.message();
        }
    }
}

TEST(Rng, DeterministicBySeed)
{
    Rng a(7), b(7), c(8);
    EXPECT_EQ(a.next(), b.next());
    EXPECT_NE(a.next(), c.next());
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(3);
    double sum = 0.0;
    for (int i = 0; i < 20000; ++i) {
        const double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(Rng, BelowStaysInRange)
{
    Rng r(11);
    std::vector<int> counts(7, 0);
    for (int i = 0; i < 14000; ++i) {
        const auto v = r.below(7);
        ASSERT_LT(v, 7u);
        ++counts[static_cast<std::size_t>(v)];
    }
    for (int c : counts)
        EXPECT_NEAR(c, 2000, 300);
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng r(5);
    int hits = 0;
    for (int i = 0; i < 50000; ++i)
        hits += r.chance(0.25) ? 1 : 0;
    EXPECT_NEAR(hits / 50000.0, 0.25, 0.01);
}

TEST(Units, ThermalVoltage)
{
    // kT/q at 300 K is the textbook 25.85 mV.
    EXPECT_NEAR(constants::thermalVoltage(constants::roomTemp).value(),
                25.85e-3, 0.1e-3);
    EXPECT_NEAR(constants::thermalVoltage(constants::ln2Temp).value(),
                6.63e-3, 0.05e-3);
}

TEST(Log, FatalThrows)
{
    EXPECT_THROW(fatal("boom"), FatalError);
    EXPECT_THROW(fatalIf(true, "boom"), FatalError);
    EXPECT_NO_THROW(fatalIf(false, "fine"));
}

TEST(Diag, FatalCarriesContextChain)
{
    try {
        CRYO_CONTEXT("outer frame");
        CRYO_CONTEXT("inner frame");
        fatal("with context");
        FAIL() << "fatal must throw";
    } catch (const FatalError &e) {
        EXPECT_EQ(e.message(), "with context");
        ASSERT_EQ(e.context().size(), 2u);
        EXPECT_EQ(e.context()[0], "outer frame");
        EXPECT_EQ(e.context()[1], "inner frame");
        // what() renders message + chain for uncaught-exception dumps.
        const std::string what = e.what();
        EXPECT_NE(what.find("with context"), std::string::npos);
        EXPECT_NE(what.find("inner frame"), std::string::npos);
    }
    // The scopes unwound with the throw: a later error is clean.
    try {
        fatal("no frames");
    } catch (const FatalError &e) {
        EXPECT_TRUE(e.context().empty());
    }
}

TEST(Diag, LazyFramesReadAsTheEagerTextDid)
{
    // Frames built from a local string and a std::to_string, nested
    // in a called function: the chain reads the bytes the strings
    // built on entry held.
    const std::string design = "cryosp-cryobus77";
    const double tempK = 77.5;
    const auto inner = [](int step) {
        CRYO_CONTEXT("step " + std::to_string(step));
        fatal("deep");
    };
    try {
        CRYO_CONTEXT("interval_sim: design=" + design + " workload=x264");
        CRYO_CONTEXT("voltage optimize @ " + std::to_string(tempK) +
                     " K");
        inner(3);
        FAIL() << "fatal must throw";
    } catch (const FatalError &e) {
        EXPECT_EQ(e.context(),
                  (std::vector<std::string>{
                      "interval_sim: design=cryosp-cryobus77 workload=x264",
                      "voltage optimize @ 77.500000 K", "step 3"}));
        EXPECT_STREQ(e.what(),
                     "cryowire fatal: deep\n  context:"
                     "\n    interval_sim: design=cryosp-cryobus77 "
                     "workload=x264"
                     "\n    voltage optimize @ 77.500000 K"
                     "\n    step 3");
    }
    EXPECT_TRUE(diag::contextStack().empty());
}

TEST(Diag, ContextStackInAnOuterCatchHoldsOnlyTheOuterFrame)
{
    // The experiment runner's use: a catch inside the outer scope
    // reads the chain as it stands there, without the inner frames
    // the throw unwound.
    const std::string name = "fig23-system-performance";
    CRYO_CONTEXT("experiment " + name);
    try {
        CRYO_CONTEXT("interval_sim suite: design=" + name);
        throw std::runtime_error("not a FatalError");
    } catch (const std::runtime_error &) {
        EXPECT_EQ(diag::contextStack(),
                  std::vector<std::string>{
                      "experiment fig23-system-performance"});
    }
}

TEST(Diag, SuccessPathsAllocateNothing)
{
    // Entering a scope with a concatenated frame and a clean named
    // Validator pass build no string; the same frame built eagerly
    // does, so the counter sees allocations when there are any.
    const std::string design = "cryosp-cryobus77";
    const std::string workload = "streamcluster";
    const auto enter = [&] {
        CRYO_CONTEXT("interval_sim: design=" + design +
                     " workload=" + workload);
        Validator v{"Workload", workload};
        v.positive("cpiCore", 1.0).nonNegative("l2Apki", 0.0).done();
    };
    enter(); // the thread's frame stack takes its storage once
    EXPECT_EQ(allocationsOf(enter), 0u);
    EXPECT_GT(allocationsOf([&] {
                  const std::string eager = "interval_sim: design=" +
                                            design + " workload=" +
                                            workload;
                  EXPECT_FALSE(eager.empty());
              }),
              0u);
}

TEST(Diag, WarnDedupsPerCallSite)
{
    diag::resetWarnings();
    for (int i = 0; i < 5; ++i)
        warn("repeated diagnostic (dedup test)");
    auto s = diag::warnStats();
    EXPECT_EQ(s.emitted, 1u);
    EXPECT_EQ(s.suppressed, 4u);

    warn("distinct call site (dedup test)");
    s = diag::warnStats();
    EXPECT_EQ(s.emitted, 2u);
    EXPECT_EQ(s.suppressed, 4u);
    diag::resetWarnings();
}

TEST(Diag, WarnIsThreadSafe)
{
    diag::resetWarnings();
    ParallelOptions par;
    par.jobs = 8;
    par.chunk = 1;
    parallelFor(
        64, [](std::size_t) { warn("hammered from the pool"); }, par);
    const auto s = diag::warnStats();
    EXPECT_EQ(s.emitted, 1u);
    EXPECT_EQ(s.suppressed, 63u);
    diag::resetWarnings();
}

TEST(Diag, CheckFiniteReturnsValueOrThrows)
{
    EXPECT_DOUBLE_EQ(CRYO_CHECK_FINITE(2.5), 2.5);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_THROW(CRYO_CHECK_FINITE(nan), FatalError);
    EXPECT_THROW(CRYO_CHECK_FINITE(inf), FatalError);
    try {
        CRYO_CONTEXT("finite-check frame");
        CRYO_CHECK_FINITE(nan * 2.0);
        FAIL() << "must throw";
    } catch (const FatalError &e) {
        EXPECT_NE(e.message().find("non-finite model output"),
                  std::string::npos);
        ASSERT_FALSE(e.context().empty());
        EXPECT_EQ(e.context().back(), "finite-check frame");
    }
}

TEST(Validate, AccumulatesEveryOffence)
{
    Validator v{"Widget"};
    v.positive("a", -1.0)
        .inRange("b", 5.0, 0.0, 1.0)
        .inRightOpen("c", 1.0, 0.0, 1.0)
        .atLeast("n", 0, 1)
        .temperature("tempK", 1000.0)
        .require(false, "cross-field rule violated");
    EXPECT_FALSE(v.ok());
    EXPECT_EQ(v.errors().size(), 6u);
    try {
        v.done();
        FAIL() << "done() must throw";
    } catch (const FatalError &e) {
        EXPECT_NE(e.message().find("invalid Widget"),
                  std::string::npos);
        EXPECT_NE(e.message().find("cross-field rule violated"),
                  std::string::npos);
        ASSERT_FALSE(e.context().empty());
        EXPECT_EQ(e.context().back(), "validate Widget");
    }
}

TEST(Validate, CleanValidatorIsSilent)
{
    Validator v{"Widget"};
    v.positive("a", 1.0)
        .nonNegative("b", 0.0)
        .inRange("c", 0.5, 0.0, 1.0)
        .inRightOpen("d", 0.0, 0.0, 1.0)
        .atLeast("n", 1, 1)
        .finite("e", -3.0)
        .temperature("tempK", 77.0)
        .require(true, "holds");
    EXPECT_TRUE(v.ok());
    EXPECT_NO_THROW(v.done());
}

TEST(Validate, SubjectRendersOnFailureAsTheConcatenationDid)
{
    const auto failure = [](const Validator &v) {
        try {
            v.done();
        } catch (const FatalError &e) {
            return std::pair{e.message(), e.context()};
        }
        ADD_FAILURE() << "done() must throw";
        return std::pair{std::string{}, std::vector<std::string>{}};
    };
    const std::string name = "x264";
    Validator named{"Workload", name};
    named.positive("cpiCore", -1.0);
    EXPECT_EQ(failure(named),
              std::pair(std::string{"invalid Workload x264: cpiCore = -1 "
                                    "must be finite and > 0"},
                        std::vector<std::string>{"validate Workload x264"}));

    // An empty name keeps its separator, as "Workload " + name did.
    const std::string empty;
    Validator unnamed{"Workload", empty};
    unnamed.require(false, "broken");
    EXPECT_EQ(failure(unnamed),
              std::pair(std::string{"invalid Workload : broken"},
                        std::vector<std::string>{"validate Workload "}));

    Validator widget{"Widget"};
    widget.require(false, "broken");
    EXPECT_EQ(failure(widget),
              std::pair(std::string{"invalid Widget: broken"},
                        std::vector<std::string>{"validate Widget"}));
}

TEST(Validate, CheckedModelTempGuardsTheWindow)
{
    EXPECT_DOUBLE_EQ(checkedModelTemp(77.0, "test query"), 77.0);
    EXPECT_DOUBLE_EQ(checkedModelTemp(kMinModelTempK, "edge"),
                     kMinModelTempK);
    EXPECT_DOUBLE_EQ(checkedModelTemp(kMaxModelTempK, "edge"),
                     kMaxModelTempK);
    EXPECT_THROW(checkedModelTemp(1.0, "too cold"), FatalError);
    EXPECT_THROW(checkedModelTemp(500.0, "too hot"), FatalError);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(checkedModelTemp(nan, "not a number"), FatalError);
}

TEST(Table, FormattersEdgeCases)
{
    // Negative values keep the sign through every formatter.
    EXPECT_EQ(Table::num(-1.5, 1), "-1.5");
    EXPECT_EQ(Table::mult(-0.5, 2), "-0.50x");
    EXPECT_EQ(Table::pct(-0.072, 1), "-7.2%");
    // Zero precision truncates to a bare integer (round-half-even on
    // exactly-representable halves, per printf).
    EXPECT_EQ(Table::num(2.5, 0), "2");
    EXPECT_EQ(Table::num(3.5, 0), "4");
    EXPECT_EQ(Table::num(0.0, 0), "0");
}

TEST(Table, AccessorsExposeCellsAndRules)
{
    Table t({"a", "b"});
    t.addRow({"1", "2"});
    t.addRule();
    t.addRow({"3", "4"});
    ASSERT_EQ(t.header().size(), 2u);
    ASSERT_EQ(t.rows().size(), 3u);
    EXPECT_FALSE(Table::isRule(t.rows()[0]));
    EXPECT_TRUE(Table::isRule(t.rows()[1]));
    EXPECT_EQ(t.rows()[2][1], "4");
}

TEST(Json, FormatDoubleRoundTrips)
{
    for (double v : {1.0 / 3.0, 0.1, 1e-300, 1.7976931348623157e308,
                     -0.0, 123456.789, 6.02214076e23}) {
        const std::string s = formatDouble(v);
        EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
    }
    // Integral doubles print without an exponent or trailing zeros.
    EXPECT_EQ(formatDouble(4.0), "4");
    EXPECT_EQ(formatDouble(0.5), "0.5");
}

/**
 * formatDouble's contract for a finite @p value, spelled out with
 * printf and strtod: the first of %.15g/%.16g/%.17g that reads back
 * as @p value. *precision is the one it took.
 */
std::string
printfFormatDouble(double value, int *precision)
{
    char buf[40];
    for (*precision = 15; *precision <= 17; ++*precision) {
        std::snprintf(buf, sizeof(buf), "%.*g", *precision, value);
        if (std::strtod(buf, nullptr) == value)
            break;
    }
    return buf;
}

TEST(JsonTest, FormatDoubleMatchesPrintfReference)
{
    // Byte equality with the printf/strtod rendering over ~2.16M
    // doubles: every JSON, CSV and cache record prints through
    // formatDouble, so one differing digit would move every pinned
    // output.
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_EQ(formatDouble(nan), "nan");
    EXPECT_EQ(formatDouble(-nan), "nan");
    EXPECT_EQ(formatDouble(inf), "inf");
    EXPECT_EQ(formatDouble(-inf), "-inf");

    std::vector<double> values = {
        0.0,
        -0.0,
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        std::nextafter(std::numeric_limits<double>::min(), 0.0),
        std::numeric_limits<double>::min(),
        -std::numeric_limits<double>::min(),
        std::numeric_limits<double>::max(),
        -std::numeric_limits<double>::max(),
        std::nextafter(std::numeric_limits<double>::max(), 0.0),
    };
    std::mt19937_64 gen{20261018};
    const auto randomFinite = [&gen] {
        for (;;) {
            const double v = std::bit_cast<double>(gen());
            if (std::isfinite(v))
                return v;
        }
    };
    // Random finite bit patterns: every exponent and sign.
    for (int i = 0; i < 1'000'000; ++i)
        values.push_back(randomFinite());
    // Magnitudes the model prints (1e-12 to 1e12), full mantissas.
    std::uniform_real_distribution<double> decade{-12.0, 12.0};
    for (int i = 0; i < 500'000; ++i)
        values.push_back(std::pow(10.0, decade(gen)));
    // Subnormals: a zero exponent field under a random mantissa.
    for (int i = 0; i < 200'000; ++i)
        values.push_back(std::bit_cast<double>(
            gen() & 0x800fffffffffffffull));
    // Integers around 2^53, where doubles stop holding every integer.
    for (int k = -5'000; k <= 5'000; ++k) {
        values.push_back(9007199254740992.0 + k);
        values.push_back(-9007199254740992.0 + 2.0 * k);
    }
    // Powers of ten and their neighbours.
    for (int e = -300; e <= 300; ++e) {
        char text[16];
        std::snprintf(text, sizeof text, "1e%d", e);
        const double p = std::strtod(text, nullptr);
        values.push_back(p);
        values.push_back(std::nextafter(p, 0.0));
        values.push_back(std::nextafter(p, inf));
    }
    // Powers of two and their neighbours, subnormal to the top
    // binade. At a binade boundary the rounding interval is narrower
    // below the value than above it, so the shortest digits can be 16
    // while the nearest 16-digit rendering does not read back: the
    // case formatDouble's parse-back check exists for.
    for (int k = -1074; k <= 1023; ++k) {
        const double p = std::ldexp(1.0, k);
        for (const double v :
             {p, std::nextafter(p, 0.0), std::nextafter(p, inf)}) {
            values.push_back(v);
            values.push_back(-v);
        }
    }
    // Values that need at most 15, 16 and 17 digits: a random double
    // read back from its %.(d-1)e text holds at most d digits.
    for (const int digits : {15, 16, 17}) {
        for (int i = 0; i < 110'000; ++i) {
            char text[40];
            std::snprintf(text, sizeof text, "%.*e", digits - 1,
                          randomFinite());
            values.push_back(std::strtod(text, nullptr));
        }
    }
    // Ties: values whose exact decimal expansion ends in a 5 one place
    // after the 15th, 16th or 17th significant digit, exactly halfway
    // between two decimals of that length, so the rendering must break
    // the tie to even as printf does. An integer n in [2^40, 2^57) plus
    // an odd multiple of 2^-j (a multiple of n's ULP) ends in that 5 at
    // digit digits(n) + j; with no fractional bits to spare, n itself
    // ends in 5 and zeros, where its ULP allows. Both signs, scaled by
    // 2^k: the same significands in other binades.
    const auto decimalDigits = [](std::uint64_t n) {
        int d = 0;
        for (; n != 0; n /= 10)
            ++d;
        return d;
    };
    const std::size_t ties = values.size();
    while (values.size() - ties < 100'000) {
        const int binade = 40 + static_cast<int>(gen() % 17);
        const std::uint64_t top = std::uint64_t{1} << binade;
        std::uint64_t n = top | (gen() & (top - 1));
        const int last = 16 + static_cast<int>(gen() % 3); // the 5
        const int j = last - decimalDigits(n);
        double tie = 0.0;
        if (j >= 1) {
            if (j > 52 - binade)
                continue; // finer than the binade's ULP
            const std::uint64_t c = (gen() & ((1ull << j) - 1)) | 1;
            tie = static_cast<double>(n) + std::ldexp(double(c), -j);
        } else {
            std::uint64_t unit = 1; // 10^(digits(n) - last)
            for (int i = j; i < 0; ++i)
                unit *= 10;
            n = n / (10 * unit) * (10 * unit) + 5 * unit;
            tie = static_cast<double>(n);
            if (static_cast<std::uint64_t>(tie) != n)
                continue; // not on the binade's grid
        }
        for (const int k : {-60, -20, 0, 30, 100}) {
            values.push_back(std::ldexp(tie, k));
            values.push_back(-std::ldexp(tie, k));
        }
    }
    ASSERT_GE(values.size(), 2'100'000u);

    // The reference costs a few microseconds a value, so the values
    // are checked on the pool; each verdict is a function of its
    // index alone.
    struct Verdict
    {
        int precision = 0; ///< the one the reference took
        bool same = false;
    };
    const std::vector<Verdict> verdicts =
        parallelMap(values.size(), [&values](std::size_t i) {
            Verdict out;
            out.same = formatDouble(values[i]) ==
                       printfFormatDouble(values[i], &out.precision);
            return out;
        });
    std::size_t byPrecision[3] = {0, 0, 0};
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < values.size(); ++i) {
        ++byPrecision[std::min(verdicts[i].precision, 17) - 15];
        if (!verdicts[i].same && ++mismatches <= 10) {
            int precision = 0;
            ADD_FAILURE() << std::hexfloat << values[i]
                          << ": formatDouble " << formatDouble(values[i])
                          << ", printf "
                          << printfFormatDouble(values[i], &precision);
        }
    }
    EXPECT_EQ(mismatches, 0u);
    // Every rung of the precision ladder was exercised.
    for (const std::size_t n : byPrecision)
        EXPECT_GT(n, 10'000u);
}

TEST(Json, NonFiniteBecomesNull)
{
    std::ostringstream os;
    JsonWriter w{os, 0};
    w.beginArray();
    w.value(std::numeric_limits<double>::quiet_NaN());
    w.value(std::numeric_limits<double>::infinity());
    w.value(-std::numeric_limits<double>::infinity());
    w.value(1.5);
    w.endArray();
    EXPECT_EQ(os.str(), "[null,null,null,1.5]");
}

TEST(Json, EscapesStrings)
{
    EXPECT_EQ(JsonWriter::escape("plain"), "plain");
    EXPECT_EQ(JsonWriter::escape("say \"hi\""), "say \\\"hi\\\"");
    EXPECT_EQ(JsonWriter::escape("a\\b"), "a\\\\b");
    EXPECT_EQ(JsonWriter::escape("line\nbreak\ttab"),
              "line\\nbreak\\ttab");
    EXPECT_EQ(JsonWriter::escape(std::string{"\x01"}), "\\u0001");
}

TEST(Json, NestedStructure)
{
    std::ostringstream os;
    JsonWriter w{os, 0};
    w.beginObject();
    w.key("name");
    w.value("cryo");
    w.key("list");
    w.beginArray();
    w.value(1);
    w.beginObject();
    w.key("ok");
    w.value(true);
    w.endObject();
    w.endArray();
    w.key("none");
    w.null();
    w.endObject();
    EXPECT_EQ(os.str(),
              "{\"name\":\"cryo\",\"list\":[1,{\"ok\":true}],"
              "\"none\":null}");
}

/** One document exercising every token kind, escapes and nesting. */
void
writeSampleDocument(JsonWriter &w)
{
    w.beginObject();
    w.key("name").value("fig\"27\"\n");
    w.key("seed").value(std::uint64_t{18446744073709551615ull});
    w.key("delta").value(std::int64_t{-42});
    w.key("cores").value(64);
    w.key("tempK").value(77.5);
    w.key("third").value(1.0 / 3.0);
    w.key("bad").value(std::numeric_limits<double>::infinity());
    w.key("ok").value(true);
    w.key("none").null();
    w.key("empty").beginObject().endObject();
    w.key("list").beginArray();
    w.value(std::string{"a\tb\x01"});
    w.beginArray().endArray();
    w.beginObject().key("x").value(0.1).endObject();
    w.endArray();
    w.endObject();
}

/** writeSampleDocument's bytes at indent 0 and 2, as the writer
 * streamed them token by token before it kept one buffer. */
const char *const kSampleCompact =
    R"({"name":"fig\"27\"\n","seed":18446744073709551615,"delta":-42,)"
    R"("cores":64,"tempK":77.5,"third":0.3333333333333333,"bad":null,)"
    R"("ok":true,"none":null,"empty":{},)"
    R"("list":["a\tb\u0001",[],{"x":0.1}]})";
const char *const kSampleIndented = R"({
  "name": "fig\"27\"\n",
  "seed": 18446744073709551615,
  "delta": -42,
  "cores": 64,
  "tempK": 77.5,
  "third": 0.3333333333333333,
  "bad": null,
  "ok": true,
  "none": null,
  "empty": {},
  "list": [
    "a\tb\u0001",
    [],
    {
      "x": 0.1
    }
  ]
})";

TEST(Json, WriterBytesAreStable)
{
    // Each document reaches the stream when its root closes, and the
    // destructor adds the newline that ends it.
    for (const auto &[indent, want] :
         {std::pair{0, kSampleCompact}, std::pair{2, kSampleIndented}}) {
        std::ostringstream os;
        {
            JsonWriter w{os, indent};
            writeSampleDocument(w);
            EXPECT_EQ(os.str(), want) << "indent " << indent;
        }
        EXPECT_EQ(os.str(), std::string{want} + "\n")
            << "indent " << indent;
    }

    // Two documents back to back on one stream, after content the
    // stream already held.
    std::ostringstream os;
    os << "prefix:";
    {
        JsonWriter w{os, 0};
        writeSampleDocument(w);
    }
    {
        JsonWriter w{os, 2};
        writeSampleDocument(w);
    }
    os << "suffix";
    EXPECT_EQ(os.str(), std::string{"prefix:"} + kSampleCompact + "\n" +
                            kSampleIndented + "\nsuffix");

    // A root scalar is a document too.
    std::ostringstream scalar;
    {
        JsonWriter w{scalar};
        w.value(1.5);
    }
    EXPECT_EQ(scalar.str(), "1.5\n");
}

TEST(Json, TakeMatchesTheCompactStream)
{
    // A writer with no stream hands over the bytes a compact stream
    // writer writes for the same calls, without the newline the
    // stream writer's destructor adds.
    JsonWriter w;
    writeSampleDocument(w);
    EXPECT_EQ(w.take(), kSampleCompact);

    JsonWriter scalar;
    scalar.value(1.5);
    EXPECT_EQ(scalar.take(), "1.5");
}

TEST(Json, UnfinishedDocumentReachesTheStream)
{
    // A writer unwound by an exception mid-document still hands over
    // what it wrote, with no trailing newline.
    std::ostringstream os;
    try {
        JsonWriter w{os, 2};
        w.beginObject();
        w.key("a").value(1);
        w.key("b").beginArray();
        w.value(2.5);
        throw std::runtime_error("mid-document");
    } catch (const std::runtime_error &) {
    }
    EXPECT_EQ(os.str(), "{\n  \"a\": 1,\n  \"b\": [\n    2.5");

    // A misuse that throws keeps the bytes written before it.
    std::ostringstream misused;
    try {
        JsonWriter w{misused, 0};
        w.beginObject();
        w.key("x");
        w.key("y");
    } catch (const FatalError &) {
    }
    EXPECT_EQ(misused.str(), "{\"x\":");
}

TEST(Json, MisuseIsFatal)
{
    std::ostringstream os;
    JsonWriter w{os, 0};
    w.beginObject();
    // A value inside an object requires a key first, a spliced one
    // too.
    EXPECT_THROW(w.value(1.0), FatalError);
    EXPECT_THROW(w.raw("1"), FatalError);

    // take() hands over a finished document, from a writer with no
    // stream only.
    JsonWriter open;
    EXPECT_THROW(open.take(), FatalError);
    open.beginObject();
    EXPECT_THROW(open.take(), FatalError);
    std::ostringstream streamed;
    JsonWriter finished{streamed, 0};
    finished.value(1);
    EXPECT_THROW(finished.take(), FatalError);
}

TEST(JsonParse, ScalarsAndNesting)
{
    const JsonValue v = parseJson(R"({
        "name": "sweep",
        "temps": [77, 1.5e2, 300.0],
        "deep": { "flag": true, "none": null },
        "neg": -12
    })");
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.at("name").asString(), "sweep");
    const auto &temps = v.at("temps").items();
    ASSERT_EQ(temps.size(), 3u);
    EXPECT_DOUBLE_EQ(temps[0].asNumber(), 77.0);
    EXPECT_DOUBLE_EQ(temps[1].asNumber(), 150.0);
    EXPECT_DOUBLE_EQ(temps[2].asNumber(), 300.0);
    EXPECT_TRUE(v.at("deep").at("flag").asBool());
    EXPECT_TRUE(v.at("deep").at("none").isNull());
    EXPECT_EQ(v.at("neg").asInteger(), -12);
    EXPECT_EQ(v.find("absent"), nullptr);
    // Members keep source order (sweep-spec axis order matters).
    ASSERT_EQ(v.members().size(), 4u);
    EXPECT_EQ(v.members()[0].first, "name");
    EXPECT_EQ(v.members()[3].first, "neg");
}

TEST(JsonParse, StringEscapes)
{
    const JsonValue v = parseJson(
        R"(["a\"b\\c\/d\n\t", "\u0041\u00e9", "\ud83d\ude00"])");
    const auto &items = v.items();
    ASSERT_EQ(items.size(), 3u);
    EXPECT_EQ(items[0].asString(), "a\"b\\c/d\n\t");
    EXPECT_EQ(items[1].asString(), "A\xc3\xa9");
    // Surrogate pair -> U+1F600 as UTF-8.
    EXPECT_EQ(items[2].asString(), "\xf0\x9f\x98\x80");
}

TEST(JsonParse, MalformedCitesLineAndColumn)
{
    const auto expectError = [](const std::string &text,
                                const std::string &needle) {
        try {
            parseJson(text, "bad.json");
            FAIL() << "must throw for: " << text;
        } catch (const FatalError &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("bad.json:"), std::string::npos)
                << what;
            EXPECT_NE(what.find(needle), std::string::npos) << what;
        }
    };
    expectError("", "end of input");
    expectError("{\"a\":1,}", "");       // trailing comma
    expectError("{\"a\" 1}", ":");       // missing colon
    expectError("[1, 2", "");            // unterminated array
    expectError("\"abc", "");            // unterminated string
    expectError("01", "");               // leading zero
    expectError("1.", "");               // fraction needs digits
    expectError("1e", "");               // exponent needs digits
    expectError("tru", "");              // bad literal
    expectError("{\"a\":1} x", "");      // trailing garbage
    expectError("\"\\q\"", "");          // unknown escape
    expectError("\"\\ud800\"", "");      // lone surrogate
    // Depth bomb: deeper than the parser's recursion cap.
    expectError(std::string(300, '[') + std::string(300, ']'),
                "nest");
}

TEST(JsonParse, PositionIsExact)
{
    try {
        parseJson("{\n  \"a\": [1, }\n}", "pos.json");
        FAIL() << "must throw";
    } catch (const FatalError &e) {
        // The bad token '}' sits on line 2, column 12.
        EXPECT_NE(std::string(e.what()).find("pos.json:2:12"),
                  std::string::npos)
            << e.what();
    }
}

TEST(JsonParse, PositionsAreExactAfterStringsEscapesAndLineBreaks)
{
    // Each input is malformed after something the parser skips in
    // bulk: long plain strings, escapes, \u surrogate pairs, CRLF and
    // runs of blank lines. The messages were recorded from the
    // byte-at-a-time parser; columns count bytes, '\r' included, and
    // a control byte is reported just past itself.
    const std::string run(300, 'x');
    const std::vector<std::pair<std::string, std::string>> table = {
        {"{\"a\": \"" + run + "\", }",
         "bad.json:1:311: expected a quoted member name"},
        {"{\"a\": \"" + run + "\" \"b\": 1}",
         "bad.json:1:310: expected ',' or '}' in an object"},
        {"{\"" + run + "\" 1}",
         "bad.json:1:305: expected ':' after the member name"},
        {"[\"a\\\"b\\\\c\\/d\\n\\t\", tru]",
         "bad.json:1:23: invalid literal (expected 'true')"},
        {"[\"\\ud83d\\ude00\\u00e9\", 01]",
         "bad.json:1:25: expected ',' or ']' in an array"},
        {"[\"\\u00e9\\u00e9\\u00e9\" 2]",
         "bad.json:1:23: expected ',' or ']' in an array"},
        {"[\"\\ud83d\\ude00\" \"\\ud83d\"]",
         "bad.json:1:17: expected ',' or ']' in an array"},
        {"[\"tab\\tand\\u0041\\u00e9\\ud83d\\ude00\", nul]",
         "bad.json:1:41: invalid literal (expected 'null')"},
        {"{\r\n  \"a\": 1,\r\n  \"b\": x\r\n}",
         "bad.json:3:8: unexpected character 'x'"},
        {"\n\n   \t  [1,\n\n  2,, 3]",
         "bad.json:5:5: unexpected character ','"},
        {"{\"k\"\n:\n1\n,\n\"k2\"\n:\n}",
         "bad.json:7:1: unexpected character '}'"},
        {"\r\r\r\n\r{\"a\":[1,2,3,]}",
         "bad.json:2:14: unexpected character ']'"},
        {"{}\r\n\r\n  x",
         "bad.json:3:3: trailing garbage after the JSON document"},
        {"\"\xc3\xa9\" x",
         "bad.json:1:6: trailing garbage after the JSON document"},
        {"\"abc\tdef\"",
         "bad.json:1:6: unescaped control character in a string"},
        {"[\"ab\ncd\"]",
         "bad.json:2:1: unescaped control character in a string"},
        {"\"" + std::string(100, 'y') + "\\q\"",
         "bad.json:1:104: invalid escape '\\q'"},
        {"\"\\u12G4\"", "bad.json:1:7: invalid \\u escape (need 4 hex "
                        "digits)"},
        {"\"\\udc00\"", "bad.json:1:8: unpaired UTF-16 surrogate"},
        {"\"\\ud83dx\"", "bad.json:1:8: unpaired UTF-16 surrogate"},
        {"\"\\ud83d\\u0041\"", "bad.json:1:14: invalid low surrogate"},
        {"\"abc\\n", "bad.json:1:7: unexpected end of input"},
        {"[-]", "bad.json:1:3: invalid number"},
        {"-", "bad.json:1:2: invalid number"},
        {"[1.e5]", "bad.json:1:4: digit required after the decimal point"},
        {"[1e+]", "bad.json:1:5: digit required in the exponent"},
        {"[trux]", "bad.json:1:5: invalid literal (expected 'true')"},
        {std::string(202, '[') + std::string(202, ']'),
         "bad.json:1:202: nesting deeper than 200 levels"},
    };
    for (const auto &[text, want] : table) {
        try {
            parseJson(text, "bad.json");
            ADD_FAILURE() << "must throw for: " << text;
        } catch (const FatalError &e) {
            EXPECT_EQ(e.message(), want) << text;
        }
    }
}

/** Byte offset of "<source>:<line>:<column>:" in @p text, or npos. */
std::size_t
errorOffset(const std::string &message, const std::string &source,
            std::string_view text)
{
    int line = 0;
    int column = 0;
    if (message.rfind(source + ":", 0) != 0 ||
        std::sscanf(message.c_str() + source.size() + 1, "%d:%d", &line,
                    &column) != 2 ||
        line < 1 || column < 1)
        return std::string_view::npos;
    std::size_t start = 0;
    for (int l = 1; l < line; ++l) {
        start = text.find('\n', start);
        if (start == std::string_view::npos)
            return std::string_view::npos;
        ++start;
    }
    const std::size_t end = std::min(text.find('\n', start), text.size());
    const std::size_t offset = start + static_cast<std::size_t>(column - 1);
    return offset <= end ? offset : std::string_view::npos;
}

TEST(JsonParse, EveryProperPrefixThrowsInsideTheText)
{
    // A cache payload, a request line and a multi-line spec with
    // escapes, CRLF and every number form. Each is an object, so no
    // proper prefix is a document; the error must cite a position
    // within the prefix (its end at most). Run under ASan, this is
    // also the bulk scans' check for reads past the end.
    const std::vector<std::string> docs = {
        "{\"hash\":\"0f3a9c2e4b5d6e7f\",\"metrics\":{\"perf\":"
        "1.2345678901234567,\"freqGhz\":6.5,\"devicePower\":0.123,"
        "\"coolingPower\":1.5e-3,\"totalPower\":0.1245,\"perfPerWatt\":"
        "9.91,\"utilization\":0.25,\"saturatedShare\":0,\"converged\":"
        "true}}",
        "{\"id\":\"r12\",\"op\":\"eval\",\"point\":{\"design\":"
        "\"cryosp-cryobus77\",\"tempK\":150,\"vdd\":null,\"seed\":7},"
        "\"metrics\":[\"perf\",\"totalPower\"],\"deadline_ms\":250}",
        "{\r\n  \"name\": \"fig27 \\\"temperature\\\" sweep\\n\",\n"
        "  \"base\": { \"design\": \"cryosp-cryobus77\",\n"
        "            \"workload\": \"caf\\u00e9 \\ud83d\\ude00\\/\" },\n"
        "\n\t\"axes\": [\r\n"
        "    { \"field\": \"tempK\",\n"
        "      \"range\": { \"from\": 77, \"to\": 3.0e2, \"steps\": 5 } },\n"
        "    { \"field\": \"vdd\", \"values\": [-0, 1E-3, 0.9e+0, false] }\n"
        "  ]\n"
        "}",
    };
    for (const std::string &doc : docs) {
        ASSERT_NO_THROW(parseJson(doc, "doc.json")) << doc;
        for (std::size_t n = 0; n < doc.size(); ++n) {
            // An exact-size copy, so a read past the prefix is a read
            // past the allocation.
            const std::unique_ptr<char[]> copy =
                std::make_unique<char[]>(n);
            std::copy_n(doc.data(), n, copy.get());
            const std::string_view prefix{copy.get(), n};
            try {
                parseJson(prefix, "prefix.json");
                ADD_FAILURE() << "no error for the " << n
                              << "-byte prefix of " << doc;
            } catch (const FatalError &e) {
                EXPECT_LE(errorOffset(e.message(), "prefix.json", prefix),
                          n)
                    << e.message() << " for the " << n
                    << "-byte prefix of " << doc;
            }
        }
    }
}

TEST(JsonParse, NumbersMatchStrtodBitForBit)
{
    // The test-only reference: what the parser read before it used
    // from_chars.
    const auto strtodBits = [](const std::string &text) {
        return std::bit_cast<std::uint64_t>(
            std::strtod(text.c_str(), nullptr));
    };
    std::vector<std::string> corpus = {
        "0", "-0", "-0.0", "0e5", "-0E-5", "1e308",
        "1.7976931348623157e308", "1.7976931348623158e308",
        "1.7976931348623159e308", "1e309", "-1e309", "1e999",
        "4.9e-324", "-4.9e-324", "2.5e-324", "2.4e-324", "1e-400",
        "-1e-400", "0.0001e-320", "0.00000000000000000001e330",
        "100000000000000000000e-350", "1e-99999999999999999999",
        "1e+99999999999999999999", "-0.5e-99999999999999999999",
        "2.2250738585072011e-308", "2.2250738585072014e-308",
        "1.5E+10", "12345678901234567890123456789012345678901234567890",
        "0.1000000000000000055511151231257827021181583404541015625",
        "9007199254740993", "-9007199254740993", "18446744073709551616",
        // Out of range only once the mantissa's digits are counted.
        "1" + std::string(400, '0') + "e-50",
        "1" + std::string(400, '0') + "e-750",
        "0." + std::string(400, '0') + "1e70",
        "-0." + std::string(400, '0') + "1e750",
    };
    std::mt19937_64 gen{20261019};
    const auto randomFinite = [&gen] {
        for (;;) {
            const double v = std::bit_cast<double>(gen());
            if (std::isfinite(v))
                return v;
        }
    };
    const auto render = [](const char *format, double v) {
        char text[40];
        std::snprintf(text, sizeof text, format, v);
        return std::string(text);
    };
    // Random finite bit patterns: every exponent and sign.
    for (int i = 0; i < 100'000; ++i) {
        const double v = randomFinite();
        corpus.push_back(render("%.17g", v));
        corpus.push_back(render("%.15g", v));
    }
    // Subnormals: a zero exponent field under a random mantissa.
    for (int i = 0; i < 20'000; ++i) {
        const double v =
            std::bit_cast<double>(gen() & 0x800fffffffffffffull);
        corpus.push_back(render("%.17g", v));
        corpus.push_back(render("%.15g", v));
    }
    // Integers around 2^53, written out in full.
    for (long long k = -2'000; k <= 2'000; ++k) {
        corpus.push_back(std::to_string(9007199254740992LL + k));
        corpus.push_back(std::to_string(-9007199254740992LL - k));
    }

    std::size_t mismatches = 0;
    for (const std::string &text : corpus) {
        const double parsed = parseJson(text, "<number>").asNumber();
        if (std::bit_cast<std::uint64_t>(parsed) != strtodBits(text) &&
            ++mismatches <= 10)
            ADD_FAILURE() << text << ": parsed " << std::hexfloat
                          << parsed << ", strtod "
                          << std::strtod(text.c_str(), nullptr);
    }
    EXPECT_EQ(mismatches, 0u);
}

TEST(JsonParse, WrongKindAccessCitesPosition)
{
    const JsonValue v = parseJson("{\"n\": 2.5}");
    EXPECT_THROW(v.at("n").asString(), FatalError);
    EXPECT_THROW(v.at("n").asBool(), FatalError);
    EXPECT_THROW(v.at("n").items(), FatalError);
    // 2.5 is a number but not a whole one.
    EXPECT_THROW(v.at("n").asInteger(), FatalError);
    EXPECT_THROW(v.at("missing"), FatalError);
    try {
        v.at("n").asString();
        FAIL() << "must throw";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("line 1"),
                  std::string::npos)
            << e.what();
    }
}

TEST(JsonParse, WriterOutputRoundTrips)
{
    std::ostringstream os;
    {
        JsonWriter w{os, 0};
        w.beginObject();
        w.key("pi").value(3.141592653589793);
        w.key("tiny").value(5e-324);
        w.key("text").value("quote \" slash \\ control \n end");
        w.key("flags").beginArray();
        w.value(true).value(false).null();
        w.endArray();
        w.key("big").value(std::uint64_t{1} << 53);
        w.endObject();
    }
    const JsonValue v = parseJson(os.str(), "<writer>");
    EXPECT_DOUBLE_EQ(v.at("pi").asNumber(), 3.141592653589793);
    EXPECT_DOUBLE_EQ(v.at("tiny").asNumber(), 5e-324);
    EXPECT_EQ(v.at("text").asString(),
              "quote \" slash \\ control \n end");
    ASSERT_EQ(v.at("flags").size(), 3u);
    EXPECT_TRUE(v.at("flags").items()[2].isNull());
    EXPECT_EQ(v.at("big").asInteger(),
              std::int64_t{1} << 53);
}

TEST(ThreadPoolJobs, AcceptsPlainAndPaddedIntegers)
{
    EXPECT_EQ(ThreadPool::parseJobs("1"), 1);
    EXPECT_EQ(ThreadPool::parseJobs("16"), 16);
    EXPECT_EQ(ThreadPool::parseJobs("  8 \t"), 8);
    EXPECT_EQ(ThreadPool::parseJobs(nullptr),
              ThreadPool::parseJobs(nullptr)); // stable default
    EXPECT_GE(ThreadPool::parseJobs(nullptr), 1);
}

TEST(ThreadPoolJobs, RejectsGarbageWithWarning)
{
    diag::resetWarnings();
    const int fallback = ThreadPool::parseJobs(nullptr);
    // Regression: these used to silently become 0 workers (atoi) and
    // hang the pool.
    for (const char *bad : {"", "   ", "abc", "12abc", "1.5", "0",
                            "-3", "999999999999999999999", "0x10"}) {
        EXPECT_EQ(ThreadPool::parseJobs(bad), fallback) << bad;
    }
    const auto s = diag::warnStats();
    EXPECT_EQ(s.emitted + s.suppressed, 9u);
    diag::resetWarnings();
}

TEST(ThreadPoolJobs, CapsAbsurdCounts)
{
    diag::resetWarnings();
    const int fallback = ThreadPool::parseJobs(nullptr);
    EXPECT_EQ(ThreadPool::parseJobs(std::to_string(
                                        ThreadPool::kMaxJobs)
                                        .c_str()),
              ThreadPool::kMaxJobs);
    EXPECT_EQ(ThreadPool::parseJobs(std::to_string(
                                        ThreadPool::kMaxJobs + 1)
                                        .c_str()),
              fallback);
    const auto s = diag::warnStats();
    EXPECT_EQ(s.emitted + s.suppressed, 1u);
    diag::resetWarnings();
}

/** A flag table with one entry of every kind. */
struct CliTable
{
    bool quiet = false;
    std::string out = "-", pattern = "steady", shard = "0/1";
    std::vector<std::string> filters, merge;
    int jobs = 1;
    std::uint64_t seed = 1;
    double rate = 20.0;

    cli::Spec spec()
    {
        return {"tool",
                "usage: tool\n",
                {cli::toggle("--quiet", &quiet, "say less"),
                 cli::text("--out", "FILE", &out, "output file"),
                 cli::list("--filter", "F", &filters, "selection"),
                 cli::operands("--merge", "OUT IN...", &merge, 2, "merge"),
                 cli::number("--jobs", "N", &jobs, 1, 8, "workers"),
                 cli::number("--seed", "S", &seed, 0, UINT64_MAX, "seed"),
                 cli::number("--rate", "R", &rate, 0.5, 100.0, "rate"),
                 cli::choice("--pattern", "P", &pattern,
                             {"steady", "bursty"}, "arrivals"),
                 {"--shard", "I/N", "I/N", "0/1", "shard",
                  [this](const std::string &v) {
                      fatalIf(v.find('/') == std::string::npos, "want I/N");
                      shard = v;
                  }}},
                [this] { fatalIf(jobs == 7, "seven is unlucky"); }};
    }

    /** cli::parse() of @p args, or the message it throws. */
    std::string parse(std::vector<const char *> args)
    {
        args.insert(args.begin(), "tool");
        try {
            return cli::parse(spec(), static_cast<int>(args.size()),
                              args.data())
                       ? "parsed"
                       : "help";
        } catch (const FatalError &e) {
            return e.message();
        }
    }
};

TEST(Cli, ParsesEveryKindIntoItsTarget)
{
    CliTable t;
    ASSERT_EQ(t.parse({"--quiet", "--out", "-", "--filter", "a,b",
                       "--filter", "c", "--merge", "o", "i1", "i2",
                       "--jobs", "8", "--seed", "18446744073709551615",
                       "--rate", "0.5", "--pattern", "bursty", "--shard",
                       "1/3", "--jobs", "3"}),
              "parsed");
    EXPECT_TRUE(t.quiet);
    EXPECT_EQ(t.filters, (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(t.merge, (std::vector<std::string>{"o", "i1", "i2"}));
    EXPECT_EQ(t.jobs, 3); // the last occurrence wins
    EXPECT_EQ(t.seed, std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(t.rate, 0.5);
    EXPECT_EQ(t.pattern, "bursty");
    EXPECT_EQ(t.shard, "1/3");
    EXPECT_EQ(t.parse({"--jobs", "2", "--help", "--bogus"}), "help");
    EXPECT_EQ(t.parse({"-h"}), "help");
}

TEST(Cli, ErrorsNameTheFlagAndTheText)
{
    const std::string want = "\" (want an integer in [";
    const std::vector<std::pair<std::vector<const char *>, std::string>>
        cases = {
            {{"--jobs", "2x"}, "--jobs: bad value \"2x" + want + "1, 8])"},
            {{"--jobs", "9"}, "--jobs: bad value \"9" + want + "1, 8])"},
            {{"--seed", "-1"}, "--seed: bad value \"-1" + want +
                                   "0, 18446744073709551615])"},
            {{"--rate", "nan"}, "--rate: bad value \"nan\" (want a "
                                "finite number in [0.5, 100])"},
            {{"--rate", "1e400"}, "--rate: bad value \"1e400\" (want a "
                                  "finite number in [0.5, 100])"},
            {{"--pattern", "flat"}, "--pattern: bad value \"flat\" "
                                    "(want one of steady|bursty)"},
            {{"--shard", "3"}, "--shard: bad value \"3\" (want I/N)"},
            {{"--bogus"}, "--bogus: unknown flag"},
            {{"stray"}, "\"stray\": unexpected argument"},
            {{"--out"}, "--out: missing value FILE"},
            {{"--out", "--quiet"}, "--out: missing value FILE"},
            {{"--merge", "o"},
             "--merge: want OUT IN..., 2 or more values, got \"o\""},
            {{"--jobs", "7"}, "seven is unlucky"},
        };
    for (const auto &[args, message] : cases)
        EXPECT_EQ(CliTable{}.parse(args), message);
}

TEST(Cli, UsageListsKindRangeAndDefault)
{
    CliTable t;
    const std::string text = cli::usage(t.spec());
    EXPECT_EQ(text.rfind("usage: tool\n\noptions:\n", 0), 0u) << text;
    for (const char *line :
         {"--quiet", "switch; default off", "--out FILE",
          "string; default \"-\"", "--jobs N",
          "an integer in [1, 8]; default 1",
          "a finite number in [0.5, 100]; default 20",
          "one of steady|bursty; default steady", "--shard I/N",
          "--merge OUT IN...", "2 or more values", "--help, -h"})
        EXPECT_NE(text.find(line), std::string::npos) << line;
}

} // namespace
