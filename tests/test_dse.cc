/**
 * @file
 * DSE engine tests: canonical hashing (pinned cross-platform vectors),
 * DesignPoint serialization, sweep-spec expansion, the result cache's
 * resume semantics, shard-merge byte-identity, and Pareto extraction.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "dse/design_point.hh"
#include "dse/pareto.hh"
#include "dse/point_eval.hh"
#include "dse/result_cache.hh"
#include "dse/sweep_runner.hh"
#include "dse/sweep_spec.hh"
#include "util/diag.hh"
#include "util/hash.hh"

namespace
{

using namespace cryo;
using namespace cryo::dse;

/* ------------------------------------------------------------------ */
/* Canonical hashing                                                   */

TEST(Fnv1a, PinnedReferenceVectors)
{
    // Published FNV-1a 64-bit vectors: the empty hash is the offset
    // basis; "a" is the canonical one-byte probe. If these move, the
    // implementation is not FNV-1a and every cache on disk is stale.
    EXPECT_EQ(Fnv1a{}.digest(), 0xcbf29ce484222325ull);
    Fnv1a a;
    a.bytes("a", 1);
    EXPECT_EQ(a.digest(), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(hashHex(0xaf63dc4c8601ec8cull), "af63dc4c8601ec8c");
    EXPECT_EQ(hashHex(0x000000000000000full), "000000000000000f");
}

TEST(Fnv1a, CanonicalDoubleEncoding)
{
    // -0.0 and +0.0 must hash equally (they compare equal); every NaN
    // payload collapses to one canonical pattern.
    Fnv1a pos, neg;
    pos.f64(0.0);
    neg.f64(-0.0);
    EXPECT_EQ(pos.digest(), neg.digest());

    Fnv1a n1, n2;
    n1.f64(std::numeric_limits<double>::quiet_NaN());
    n2.f64(-std::numeric_limits<double>::quiet_NaN());
    EXPECT_EQ(n1.digest(), n2.digest());

    Fnv1a zero, nan;
    zero.f64(0.0);
    nan.f64(std::numeric_limits<double>::quiet_NaN());
    EXPECT_NE(zero.digest(), nan.digest());
}

TEST(Fnv1a, LengthPrefixPreventsConcatenationCollisions)
{
    // str() is length-prefixed: ("ab","c") must not collide with
    // ("a","bc") the way raw concatenation would.
    Fnv1a ab_c, a_bc;
    ab_c.str("ab").str("c");
    a_bc.str("a").str("bc");
    EXPECT_NE(ab_c.digest(), a_bc.digest());
}

TEST(DesignPointHash, PinnedVectors)
{
    // Cross-platform stability gate: these digests are part of the
    // cache format. A change here is a cache-format break and must
    // come with a kSchema bump (which changes them all anyway).
    const DesignPoint base;
    EXPECT_EQ(base.hashHex(), "f0e4a0b99c439981");

    DesignPoint fig27 = base;
    fig27.tempK = 100.0;
    fig27.suite = "spec-rate";
    EXPECT_EQ(fig27.hashHex(), "8436393b43b5dc85");

    DesignPoint baseline = base;
    baseline.design = "baseline300-mesh";
    EXPECT_EQ(baseline.hashHex(), "b077eef8e92bd2bb");
}

TEST(DesignPointHash, EverySingleFieldPerturbationChangesTheHash)
{
    const DesignPoint base;
    std::vector<DesignPoint> perturbed;

    DesignPoint p = base;
    p.design = "chp-mesh77";
    perturbed.push_back(p);
    p = base;
    p.tempK = 150.0;
    perturbed.push_back(p);
    p = base;
    p.vdd = 0.8;
    p.vth = 0.3; // vdd alone...
    perturbed.push_back(p);
    p = base;
    p.vdd = 0.8;
    p.vth = 0.31; // ...vs vth differing only in vth
    perturbed.push_back(p);
    p = base;
    p.nodeNm = 22.0;
    perturbed.push_back(p);
    p = base;
    p.thickWire = true;
    perturbed.push_back(p);
    p = base;
    p.mosfetAlpha = 0.7;
    perturbed.push_back(p);
    p = base;
    p.floorplanScale = 0.5;
    perturbed.push_back(p);
    p = base;
    p.cores = 16;
    perturbed.push_back(p);
    p = base;
    p.busWays = 2;
    perturbed.push_back(p);
    p = base;
    p.suite = "cloudsuite";
    perturbed.push_back(p);
    p = base;
    p.workload = "streamcluster";
    perturbed.push_back(p);
    p = base;
    p.seed = 2;
    perturbed.push_back(p);

    ASSERT_EQ(perturbed.size(), DesignPoint::fieldNames().size());
    for (std::size_t i = 0; i < perturbed.size(); ++i) {
        EXPECT_NE(perturbed[i].hash(), base.hash())
            << "perturbation " << i << " did not change the hash";
        EXPECT_FALSE(perturbed[i] == base);
        for (std::size_t j = i + 1; j < perturbed.size(); ++j)
            EXPECT_NE(perturbed[i].hash(), perturbed[j].hash())
                << "perturbations " << i << " and " << j << " collide";
    }
    EXPECT_TRUE(base == DesignPoint{});
}

/* ------------------------------------------------------------------ */
/* Serialization                                                       */

TEST(DesignPointJson, RoundTripsIncludingUnsetFields)
{
    DesignPoint original;
    original.design = "cryosp-cryobus77";
    original.tempK = 125.0;
    original.busWays = 4;
    original.workload = "canneal";
    original.seed = 7;
    // vdd/vth/mosfetAlpha stay unset -> JSON null -> unset again.

    std::ostringstream os;
    {
        JsonWriter w{os, 0};
        original.writeJson(w);
    }
    const DesignPoint back =
        DesignPoint::fromJson(parseJson(os.str(), "<round trip>"));
    EXPECT_TRUE(back == original);
    EXPECT_FALSE(fieldIsSet(back.vdd));
    EXPECT_FALSE(fieldIsSet(back.mosfetAlpha));
    EXPECT_DOUBLE_EQ(back.tempK, 125.0);

    // And the re-serialization is byte-identical (the merge
    // guarantee rests on this).
    std::ostringstream os2;
    {
        JsonWriter w{os2, 0};
        back.writeJson(w);
    }
    EXPECT_EQ(os.str(), os2.str());
}

TEST(DesignPointJson, RejectsUnknownAndWrongKindFields)
{
    DesignPoint p;
    try {
        p.setField("tempk", JsonValue::makeNumber(100.0));
        FAIL() << "must throw";
    } catch (const FatalError &e) {
        // The diagnostic lists the legal names (catches case typos).
        EXPECT_NE(std::string(e.what()).find("legal fields"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("tempK"),
                  std::string::npos);
    }
    EXPECT_THROW(p.setField("cores", JsonValue::makeNumber(2.5)),
                 FatalError);
    EXPECT_THROW(p.setField("design", JsonValue::makeNumber(1.0)),
                 FatalError);
    EXPECT_THROW(p.setField("thickWire", JsonValue::makeString("yes")),
                 FatalError);
}

TEST(DesignPointValidate, CatchesInconsistentCombinations)
{
    DesignPoint p;
    p.design = "no-such-design";
    EXPECT_THROW(p.validate(), FatalError);

    p = DesignPoint{};
    p.design = "chp-mesh77";
    p.tempK = 150.0; // only the CryoBus family interpolates
    EXPECT_THROW(p.validate(), FatalError);

    p = DesignPoint{};
    p.vdd = 0.8; // vth missing
    EXPECT_THROW(p.validate(), FatalError);

    p = DesignPoint{};
    p.design = "chp-mesh77";
    p.busWays = 2; // interleaving is a bus feature
    EXPECT_THROW(p.validate(), FatalError);

    p = DesignPoint{};
    p.tempK = 40.0; // below the interpolated window
    EXPECT_THROW(p.validate(), FatalError);

    p = DesignPoint{};
    p.tempK = 125.0;
    p.busWays = 2;
    EXPECT_NO_THROW(p.validate());
}

/* ------------------------------------------------------------------ */
/* Sweep specs                                                         */

constexpr const char *kSpecJson = R"({
    "name": "grid",
    "base": { "design": "cryosp-cryobus77", "suite": "parsec21",
              "workload": "streamcluster" },
    "axes": [
        { "field": "tempK",
          "range": { "from": 77, "to": 300, "steps": 3 } },
        { "field": "busWays", "values": [1, 2] }
    ],
    "points": [ { "design": "baseline300-mesh" } ]
})";

TEST(SweepSpec, CrossProductOrderAndRangeEndpoints)
{
    const SweepSpec spec =
        SweepSpec::fromJson(parseJson(kSpecJson, "<spec>"));
    EXPECT_EQ(spec.name(), "grid");
    ASSERT_EQ(spec.pointCount(), 7u); // 3 * 2 grid + 1 explicit

    // Last axis fastest: (77,1), (77,2), (188.5,1), ...
    EXPECT_DOUBLE_EQ(spec.point(0).tempK, 77.0);
    EXPECT_EQ(spec.point(0).busWays, 1);
    EXPECT_EQ(spec.point(1).busWays, 2);
    EXPECT_DOUBLE_EQ(spec.point(1).tempK, 77.0);
    EXPECT_DOUBLE_EQ(spec.point(2).tempK, 188.5);
    // Range endpoints are exact, not accumulated.
    EXPECT_DOUBLE_EQ(spec.point(4).tempK, 300.0);
    EXPECT_DOUBLE_EQ(spec.point(5).tempK, 300.0);
    // The explicit point comes after the grid, on the base's suite.
    EXPECT_EQ(spec.point(6).design, "baseline300-mesh");
    EXPECT_EQ(spec.point(6).workload, "streamcluster");
    EXPECT_THROW(spec.point(7), FatalError);
}

TEST(SweepSpec, DiagnosesBadSpecsAtLoadTime)
{
    const auto parse = [](const std::string &text) {
        return SweepSpec::fromJson(parseJson(text, "<bad spec>"));
    };
    // Unknown top-level key.
    EXPECT_THROW(parse(R"({"axis": []})"), FatalError);
    // Unknown axis field fails the dry run even with no evaluation.
    EXPECT_THROW(
        parse(R"({"axes": [{"field": "temp", "values": [77]}]})"),
        FatalError);
    // values and range are mutually exclusive, and one is required.
    EXPECT_THROW(parse(R"({"axes": [{"field": "tempK"}]})"),
                 FatalError);
    EXPECT_THROW(parse(R"({"axes": [{"field": "tempK",
        "values": [77], "range": {"from": 1, "to": 2, "steps": 2}}]})"),
                 FatalError);
    // Malformed range.
    EXPECT_THROW(parse(R"({"axes": [{"field": "tempK",
        "range": {"from": 77, "to": 300, "steps": 0}}]})"),
                 FatalError);
    EXPECT_THROW(parse(R"({"axes": [{"field": "tempK",
        "range": {"from": 77, "to": 300, "steps": 1}}]})"),
                 FatalError);
    // An axis over a non-existent kind.
    EXPECT_THROW(
        parse(R"({"axes": [{"field": "cores", "values": [2.5]}]})"),
        FatalError);
}

TEST(SweepSpec, PointsOnlySpecSkipsTheBaseGrid)
{
    const SweepSpec spec = SweepSpec::fromJson(parseJson(
        R"({"points": [{"design": "chp-mesh77"},
                        {"design": "ideal-noc77"}]})",
        "<points>"));
    ASSERT_EQ(spec.pointCount(), 2u);
    EXPECT_EQ(spec.point(0).design, "chp-mesh77");
    EXPECT_EQ(spec.point(1).design, "ideal-noc77");
}

/* ------------------------------------------------------------------ */
/* Result cache                                                        */

TEST(ResultCache, PersistsDedupesAndSurvivesTruncatedTail)
{
    const std::string path = "/tmp/cryowire_test_dse_cache.jsonl";
    std::remove(path.c_str());

    PointMetrics m1;
    m1.perf = 1.5;
    m1.totalPower = 0.75;
    PointMetrics m2 = m1;
    m2.perf = 2.0;
    {
        ResultCache cache{path};
        EXPECT_EQ(cache.loadedEntries(), 0u);
        cache.store("aaaa", m1);
        cache.store("bbbb", m2);
        cache.store("aaaa", m1); // dedupe: not appended again
        EXPECT_EQ(cache.size(), 2u);
    }
    // Two racing shards may both append a key (content hashes make
    // the payloads identical in practice; here they differ so the
    // load order is observable): the last occurrence wins.
    {
        std::ofstream out{path, std::ios::app};
        out << ResultCache::formatLine("aaaa", m2) << '\n';
    }
    // Simulate a kill mid-append: a torn final line.
    {
        std::ofstream out{path, std::ios::app};
        out << "{\"hash\":\"cccc\",\"metr";
    }
    {
        diag::resetWarnings();
        ResultCache cache{path};
        EXPECT_EQ(cache.loadedEntries(), 2u); // torn line dropped
        EXPECT_GE(diag::warnStats().emitted, 1u);
        PointMetrics out;
        ASSERT_TRUE(cache.lookup("aaaa", &out));
        EXPECT_DOUBLE_EQ(out.perf, 2.0); // last occurrence wins
        EXPECT_FALSE(cache.lookup("cccc", &out));
        cache.rewrite();
        diag::resetWarnings();
    }
    // After compaction the file is clean and loads without warnings.
    {
        diag::resetWarnings();
        ResultCache cache{path};
        EXPECT_EQ(cache.loadedEntries(), 2u);
        EXPECT_EQ(diag::warnStats().emitted, 0u);
        diag::resetWarnings();
    }
    std::remove(path.c_str());
}

/* ------------------------------------------------------------------ */
/* Sweep runner: determinism, sharding, resume                         */

std::string
runToString(const SweepSpec &spec, const PointEvaluator &eval,
            const SweepOptions &opts, SweepStats *stats = nullptr)
{
    std::ostringstream out;
    runSweep(spec, eval, out, opts, stats);
    return out.str();
}

TEST(SweepRunner, ShardedMergeIsByteIdenticalToSerial)
{
    const SweepSpec spec =
        SweepSpec::fromJson(parseJson(kSpecJson, "<spec>"));
    const PointEvaluator eval;

    const std::string serial = runToString(spec, eval, SweepOptions{});
    ASSERT_FALSE(serial.empty());

    for (const int shards : {2, 3}) {
        std::vector<std::string> paths;
        for (int k = 0; k < shards; ++k) {
            SweepOptions opts;
            opts.shardIndex = k;
            opts.shardCount = shards;
            opts.jobs = 1 + k; // job count must not matter either
            const std::string path =
                "/tmp/cryowire_test_dse_shard" + std::to_string(k) +
                "of" + std::to_string(shards) + ".jsonl";
            std::ofstream out{path};
            SweepStats stats;
            runSweep(spec, eval, out, opts, &stats);
            EXPECT_EQ(stats.totalPoints, spec.pointCount());
            paths.push_back(path);
        }
        std::ostringstream merged;
        mergeShards(paths, merged);
        EXPECT_EQ(merged.str(), serial)
            << shards << "-way merge diverged from the serial run";
        for (const std::string &p : paths)
            std::remove(p.c_str());
    }
}

TEST(SweepRunner, ResumeAfterPartialCacheLossEqualsFreshRun)
{
    const SweepSpec spec =
        SweepSpec::fromJson(parseJson(kSpecJson, "<spec>"));
    const PointEvaluator eval;
    const std::string cache_path =
        "/tmp/cryowire_test_dse_resume.cache.jsonl";
    std::remove(cache_path.c_str());

    const std::string fresh = runToString(spec, eval, SweepOptions{});

    // Populate the cache, then verify a warm run is all hits and
    // byte-identical.
    SweepOptions cached;
    cached.cachePath = cache_path;
    SweepStats cold;
    EXPECT_EQ(runToString(spec, eval, cached, &cold), fresh);
    EXPECT_EQ(cold.evaluated, spec.pointCount());
    EXPECT_EQ(cold.cacheHits, 0u);

    SweepStats warm;
    EXPECT_EQ(runToString(spec, eval, cached, &warm), fresh);
    EXPECT_EQ(warm.cacheHits, spec.pointCount());
    EXPECT_EQ(warm.evaluated, 0u);

    // Delete half the cache lines (every second one) - the injured
    // run must re-evaluate exactly the missing points and still
    // reproduce the fresh bytes.
    std::vector<std::string> lines;
    {
        std::ifstream in{cache_path};
        std::string line;
        while (std::getline(in, line))
            if (!line.empty())
                lines.push_back(line);
    }
    ASSERT_EQ(lines.size(), spec.pointCount());
    {
        std::ofstream out{cache_path, std::ios::trunc};
        for (std::size_t i = 0; i < lines.size(); i += 2)
            out << lines[i] << '\n';
    }
    SweepStats injured;
    EXPECT_EQ(runToString(spec, eval, cached, &injured), fresh);
    EXPECT_EQ(injured.cacheHits, (lines.size() + 1) / 2);
    EXPECT_EQ(injured.evaluated, lines.size() / 2);

    std::remove(cache_path.c_str());
}

TEST(SweepRunner, MergeRejectsGapsAndDuplicates)
{
    const std::string a = "/tmp/cryowire_test_dse_merge_a.jsonl";
    const std::string b = "/tmp/cryowire_test_dse_merge_b.jsonl";
    {
        std::ofstream out{a};
        out << R"({"i":0,"x":1})" << '\n' << R"({"i":2,"x":1})" << '\n';
    }
    {
        std::ofstream out{b};
        out << R"({"i":0,"x":1})" << '\n';
    }
    std::ostringstream merged;
    // Duplicate index 0 across shards.
    EXPECT_THROW(mergeShards({a, b}, merged), FatalError);
    // Gap: index 1 missing.
    EXPECT_THROW(mergeShards({a}, merged), FatalError);
    std::remove(a.c_str());
    std::remove(b.c_str());
}

/* ------------------------------------------------------------------ */
/* Evaluation sanity + Pareto                                          */

TEST(PointEvaluator, BaselineNormalizesToUnity)
{
    const PointEvaluator eval;
    DesignPoint p;
    p.design = "baseline300-mesh";
    p.workload = "streamcluster";
    const PointMetrics m = eval.evaluate(p);
    // The baseline measured against itself: perf and power are 1 by
    // construction, and there is no cryocooler at 300 K.
    EXPECT_NEAR(m.perf, 1.0, 1e-12);
    EXPECT_NEAR(m.devicePower, 1.0, 1e-9);
    EXPECT_DOUBLE_EQ(m.coolingPower, 0.0);
    EXPECT_TRUE(m.converged);

    // The paper's design beats the baseline on the same workload.
    DesignPoint cryo;
    cryo.workload = "streamcluster";
    EXPECT_GT(eval.evaluate(cryo).perf, 1.0);
}

TEST(Pareto, ExtractsTheNonDominatedSet)
{
    const auto mk = [](std::size_t i, double perf, double power) {
        EvaluatedPoint p;
        p.index = i;
        p.metrics.perf = perf;
        p.metrics.totalPower = power;
        return p;
    };
    const std::vector<EvaluatedPoint> pts = {
        mk(0, 1.0, 1.0), // on the frontier (cheapest)
        mk(1, 2.0, 2.0), // on the frontier
        mk(2, 1.5, 2.5), // dominated by 1
        mk(3, 3.0, 4.0), // on the frontier
        mk(4, 2.0, 3.0), // dominated by 1 (same perf, more power)
        mk(5, 1.0, 1.0), // duplicate of 0 - lowest index wins
    };
    const auto frontier = paretoFrontier(pts);
    EXPECT_EQ(frontier, (std::vector<std::size_t>{0, 1, 3}));

    std::ostringstream csv;
    writeParetoCsv(csv, pts, frontier);
    std::string line;
    std::istringstream in{csv.str()};
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line.rfind("index,design,", 0), 0u) << line;
    std::size_t rows = 0;
    while (std::getline(in, line))
        ++rows;
    EXPECT_EQ(rows, 3u);
}

TEST(DseTest, Grid10kOutputIsPinned)
{
    // The bytes `cryowire_sweep --spec examples/specs/dse_grid_10k.json
    // --out F --pareto P` writes, as FNV-1a digests of the JSONL stream
    // and the Pareto CSV: every metric of all 10,000 points, rendered
    // through formatDouble.  Recorded before the critical-path hoist
    // and the to_chars formatDouble; any change to the model's
    // arithmetic or to the number rendering moves a digest.
    const SweepSpec spec = SweepSpec::load(
        CRYOWIRE_SOURCE_DIR "/examples/specs/dse_grid_10k.json");
    ASSERT_EQ(spec.pointCount(), 10000u);
    const PointEvaluator eval;
    std::ostringstream jsonl;
    const std::vector<EvaluatedPoint> points = runSweep(spec, eval, jsonl);
    std::ostringstream csv;
    writeParetoCsv(csv, points, paretoFrontier(points));

    const auto digestOf = [](const std::string &bytes) {
        Fnv1a h;
        h.bytes(bytes.data(), bytes.size());
        char hex[32];
        std::snprintf(hex, sizeof hex, "0x%016llx",
                      static_cast<unsigned long long>(h.digest()));
        return std::string{hex};
    };
    EXPECT_EQ(digestOf(jsonl.str()), "0xf352f09b95bef763");
    EXPECT_EQ(digestOf(csv.str()), "0xcad2537cee8bd7f4");
}

} // namespace
