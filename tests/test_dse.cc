/**
 * @file
 * DSE engine tests: canonical hashing (pinned cross-platform vectors),
 * DesignPoint serialization, sweep-spec expansion, the result cache's
 * resume semantics, shard-merge byte-identity, and Pareto extraction.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "dse/design_point.hh"
#include "dse/pareto.hh"
#include "dse/point_eval.hh"
#include "dse/result_cache.hh"
#include "dse/sweep_runner.hh"
#include "dse/sweep_spec.hh"
#include "pipeline/core_config.hh"
#include "tech/technology.hh"
#include "util/diag.hh"
#include "util/hash.hh"
#include "util/parallel.hh"

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

TEST(Crc32c, PinnedReferenceVectors)
{
    // The check value of the CRC-32C catalogue and the RFC 3720
    // (iSCSI) B.4 vectors. Every cache record on disk carries this
    // CRC, so a drift here quarantines every record.
    EXPECT_EQ(Crc32c::of("123456789"), 0xe3069283u);
    const std::string zeros(32, '\x00');
    const std::string ones(32, '\xff');
    std::string up(32, '\0');
    std::string down(32, '\0');
    for (std::size_t i = 0; i < 32; ++i) {
        up[i] = static_cast<char>(i);
        down[i] = static_cast<char>(31 - i);
    }
    EXPECT_EQ(Crc32c::of(zeros), 0x8a9136aau);
    EXPECT_EQ(Crc32c::of(ones), 0x62a8ab43u);
    EXPECT_EQ(Crc32c::of(up), 0x46dd794eu);
    EXPECT_EQ(Crc32c::of(down), 0x113fdb5cu);
    EXPECT_EQ(Crc32c::of(""), 0x00000000u);
    EXPECT_EQ(crcHex(0xe3069283u), "e3069283");
    EXPECT_EQ(crcHex(0x0000000fu), "0000000f");
}

TEST(Crc32c, SlicingMatchesTheBytewiseLoop)
{
    // The textbook one-byte-per-step CRC-32C, the reference for the
    // eight-bytes-per-step bytes(): any length, any start alignment,
    // and any split into streamed pieces must agree with it.
    const auto bytewise = [](const std::uint8_t *p, std::size_t n) {
        std::uint32_t crc = 0xffffffffu;
        for (std::size_t i = 0; i < n; ++i) {
            crc ^= p[i];
            for (int k = 0; k < 8; ++k)
                crc = (crc & 1u) != 0 ? 0x82f63b78u ^ (crc >> 1)
                                      : crc >> 1;
        }
        return ~crc;
    };
    std::mt19937_64 gen{3720};
    std::vector<std::uint8_t> data(1100);
    for (std::uint8_t &b : data)
        b = static_cast<std::uint8_t>(gen());
    for (int trial = 0; trial < 2000; ++trial) {
        const std::size_t offset = gen() % 16;
        const std::size_t len =
            trial < 64 ? static_cast<std::size_t>(trial) : gen() % 1024;
        const std::uint8_t *p = data.data() + offset;
        const std::uint32_t want = bytewise(p, len);

        Crc32c whole;
        whole.bytes(p, len);
        EXPECT_EQ(whole.digest(), want) << offset << "+" << len;

        const std::size_t cut = len == 0 ? 0 : gen() % (len + 1);
        Crc32c split;
        split.bytes(p, cut).bytes(p + cut, len - cut);
        EXPECT_EQ(split.digest(), want)
            << offset << "+" << len << " cut at " << cut;
    }
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

TEST(SweepSpec, MosfetAlphaTwoFailsAtLoadCitingItsPosition)
{
    // MosfetParams takes alpha in [0, 2), so a point with alpha 2
    // could only fail at evaluation. Wherever the spec sets it (an
    // axis value, the base, an explicit point), load rejects it,
    // naming the file, line and column of the value.
    struct Case
    {
        const char *spec;
        const char *position;
    };
    const Case cases[] = {
        {"{\n  \"axes\": [\n"
         "    { \"field\": \"mosfetAlpha\", \"values\": [1.3, 2] }\n"
         "  ]\n}\n",
         "line 3, column 47"},
        {"{\n  \"base\": { \"mosfetAlpha\": 2.0 }\n}\n",
         "line 2, column 28"},
        {"{\n  \"points\": [ { \"design\": \"chp-mesh77\" },\n"
         "              { \"mosfetAlpha\": 2 } ]\n}\n",
         "line 3, column 32"},
    };
    const std::string path = "t_alpha_two_spec.json";
    for (const Case &c : cases) {
        {
            std::ofstream out{path};
            out << c.spec;
        }
        try {
            SweepSpec::load(path);
            ADD_FAILURE() << "no error for:\n" << c.spec;
        } catch (const FatalError &e) {
            const std::string msg = e.message();
            EXPECT_EQ(msg.rfind(path + ": ", 0), 0u) << msg;
            EXPECT_NE(msg.find(c.position), std::string::npos) << msg;
            EXPECT_NE(msg.find("mosfetAlpha must lie in (0, 2)"),
                      std::string::npos)
                << msg;
        }
    }
    std::remove(path.c_str());

    // Just below 2 is a valid point, and validate() holds the same
    // window for a point built in code.
    DesignPoint p;
    p.mosfetAlpha = std::nextafter(2.0, 0.0);
    EXPECT_NO_THROW(p.validate());
    p.mosfetAlpha = 2.0;
    EXPECT_THROW(p.validate(), FatalError);
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

std::string
readBytes(const std::string &path)
{
    std::ifstream in{path, std::ios::binary};
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

TEST(ResultCache, NonCanonicalFrameLengthsAreQuarantined)
{
    const std::string path = "/tmp/cryowire_test_dse_frame_len.jsonl";
    const std::string sidecar = ResultCache::quarantinePath(path);
    std::remove(path.c_str());
    std::remove(sidecar.c_str());

    PointMetrics m;
    m.perf = 1.25;
    const std::string payload = ResultCache::formatLine("aaaa", m);
    const std::string tail =
        " " + crcHex(Crc32c::of(payload)) + " " + payload;
    // 2^64 + the payload size: a 64-bit accumulator wraps it back to
    // the size, so only a check as the digits arrive rejects it.
    ASSERT_LT(payload.size(), 384u);
    const std::string wrapped =
        "18446744073709551" + std::to_string(616 + payload.size());
    const std::string overflowing = "v2 " + wrapped + tail;
    const std::string leadingZero =
        "v2 0" + std::to_string(payload.size()) + tail;
    {
        std::ofstream out{path, std::ios::binary};
        out << overflowing << '\n';
        out << leadingZero << '\n';
        out << ResultCache::formatRecord("bbbb", m) << '\n';
    }

    ResultCache cache{path};
    EXPECT_EQ(cache.loadedEntries(), 1u);
    EXPECT_EQ(cache.quarantinedEntries(), 2u);
    PointMetrics out;
    EXPECT_FALSE(cache.lookup("aaaa", &out));
    ASSERT_TRUE(cache.lookup("bbbb", &out));
    EXPECT_DOUBLE_EQ(out.perf, 1.25);
    EXPECT_EQ(readBytes(sidecar), overflowing + "\n" + leadingZero + "\n");
    std::remove(path.c_str());
    std::remove(sidecar.c_str());
}

TEST(ResultCache, LoadIsTheSameAtEveryWidthAndAcrossBlocks)
{
    // A file several load blocks long, with duplicates whose last
    // occurrence differs, damaged and legacy lines and blank lines
    // on both sides of the block boundaries.
    const std::size_t block = ResultCache::kLoadBlockLines;
    std::vector<std::string> lines;
    std::map<std::string, double> want; // last occurrence wins
    std::string wantSidecar;
    const auto metrics = [](double perf) {
        PointMetrics m;
        m.perf = perf;
        m.totalPower = 1.0 / perf;
        m.converged = true;
        return m;
    };
    const auto record = [&](const std::string &key, double perf) {
        lines.push_back(ResultCache::formatRecord(key, metrics(perf)));
        want[key] = perf;
    };
    const auto legacy = [&](const std::string &key, double perf) {
        lines.push_back(ResultCache::formatLine(key, metrics(perf)));
        want[key] = perf;
    };
    const auto damaged = [&](const std::string &line) {
        lines.push_back(line);
        wantSidecar += line + "\n";
    };
    const PointMetrics lost = metrics(3.0);
    const std::string torn =
        ResultCache::formatRecord(hashHex(0xdead), lost).substr(0, 40);
    std::string flipped = ResultCache::formatRecord(hashHex(0xbeef), lost);
    const std::size_t crcAt = flipped.find(' ', 3) + 1;
    flipped[crcAt] = flipped[crcAt] == '0' ? '1' : '0';
    const std::string dupA = hashHex(0xa);
    const std::string dupB = hashHex(0xb);
    const std::string dupC = hashHex(0xc);
    const std::string dupD = hashHex(0xd);

    std::uint64_t fresh = 0x1000;
    while (lines.size() < 3 * block + 40) {
        const std::size_t at = lines.size();
        if (at == 5)
            record(dupB, 1.0);
        else if (at == 9)
            record(dupD, 1.25);
        else if (at == 12)
            record(dupD, 1.5); // wins within the block
        else if (at == block - 2)
            record(dupA, 2.0);
        else if (at == block - 1)
            damaged(torn);
        else if (at == block)
            damaged(flipped);
        else if (at == block + 1)
            record(dupA, 2.5); // wins across the first boundary
        else if (at == 2 * block - 1)
            legacy(dupC, 3.0);
        else if (at == 2 * block || at == 2 * block + 1)
            lines.emplace_back(); // blank
        else if (at == 2 * block + 2)
            record(dupC, 3.5); // wins over the legacy line
        else if (at == 3 * block - 1)
            lines.emplace_back();
        else if (at == 3 * block)
            damaged("!! not a record");
        else if (at == 3 * block + 1)
            record(dupB, 4.5); // wins three blocks later
        else
            record(hashHex(fresh++), static_cast<double>(at) + 0.25);
    }
    std::string file;
    for (const std::string &line : lines)
        file += line + "\n";
    std::string wantCompacted;
    for (const auto &[key, perf] : want) {
        wantCompacted += ResultCache::formatRecord(key, metrics(perf));
        wantCompacted += '\n';
    }

    // Every width must load, quarantine and compact to the same
    // expectation, so the widths agree with each other too.
    const std::string path = "/tmp/cryowire_test_dse_widths.jsonl";
    const std::string sidecar = ResultCache::quarantinePath(path);
    for (const int width : {1, 2, 4}) {
        SCOPED_TRACE("width " + std::to_string(width));
        std::remove(sidecar.c_str());
        {
            std::ofstream out{path, std::ios::binary};
            out << file;
        }
        diag::resetWarnings();
        ResultCache cache{path, CacheWritability::kRequireWritable,
                          CacheDurability::kWritePerStore, width};
        EXPECT_EQ(diag::warnStats().emitted, 1u);
        diag::resetWarnings();
        EXPECT_EQ(cache.loadedEntries(), want.size());
        EXPECT_EQ(cache.quarantinedEntries(), 3u);
        for (const auto &[key, perf] : want) {
            PointMetrics m;
            ASSERT_TRUE(cache.lookup(key, &m)) << key;
            EXPECT_EQ(ResultCache::formatLine(key, m),
                      ResultCache::formatLine(key, metrics(perf)));
        }
        PointMetrics m;
        EXPECT_FALSE(cache.lookup(hashHex(0xdead), &m));
        EXPECT_FALSE(cache.lookup(hashHex(0xbeef), &m));
        cache.rewrite();
        EXPECT_EQ(readBytes(sidecar), wantSidecar);
        EXPECT_EQ(readBytes(path), wantCompacted);
    }
    std::remove(path.c_str());
    std::remove(sidecar.c_str());
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

/** Every metric of @p m as bits, in canonical order. */
std::vector<std::uint64_t>
metricBits(const PointMetrics &m)
{
    return {std::bit_cast<std::uint64_t>(m.perf),
            std::bit_cast<std::uint64_t>(m.freqGhz),
            std::bit_cast<std::uint64_t>(m.devicePower),
            std::bit_cast<std::uint64_t>(m.coolingPower),
            std::bit_cast<std::uint64_t>(m.totalPower),
            std::bit_cast<std::uint64_t>(m.perfPerWatt),
            std::bit_cast<std::uint64_t>(m.utilization),
            std::bit_cast<std::uint64_t>(m.saturatedShare),
            m.converged ? 1u : 0u};
}

/** @p members wrapped into a JSON object. */
std::string
metricsJson(const std::string &members)
{
    return "{" + members + "}";
}

constexpr const char *kAllMetrics =
    R"("perf":1.5,"freqGhz":6.5,"devicePower":0.25,)"
    R"("coolingPower":2,"totalPower":2.25,"perfPerWatt":0.5,)"
    R"("utilization":0.125,"saturatedShare":0,"converged":true)";

TEST(PointMetricsJson, RequiresEveryMetricExactlyOnce)
{
    const PointMetrics m =
        PointMetrics::fromJson(parseJson(metricsJson(kAllMetrics)));
    EXPECT_EQ(m.perf, 1.5);
    EXPECT_EQ(m.totalPower, 2.25);
    EXPECT_TRUE(m.converged);
    // Any order reads the same values; reversed, only totalPower sits
    // at its registry position.
    const PointMetrics reversed = PointMetrics::fromJson(parseJson(
        metricsJson(R"("converged":true,"saturatedShare":0,)"
                    R"("utilization":0.125,"perfPerWatt":0.5,)"
                    R"("totalPower":2.25,"coolingPower":2,)"
                    R"("devicePower":0.25,"freqGhz":6.5,"perf":1.5)")));
    EXPECT_EQ(metricBits(reversed), metricBits(m));

    const auto expectRejected = [](const std::string &text,
                                   const std::string &why) {
        try {
            PointMetrics::fromJson(parseJson(text));
            ADD_FAILURE() << "accepted " << text;
        } catch (const FatalError &e) {
            EXPECT_NE(e.message().find(why), std::string::npos)
                << e.message();
        }
    };
    // A record missing metrics must not read them as 0.
    expectRejected(R"({"freqGhz":6.5,"converged":true})",
                   "missing metric \"perf\"");
    expectRejected("{}", "missing metric \"perf\"");
    expectRejected(metricsJson(R"("perf":1,)" + std::string{kAllMetrics}),
                   "duplicate metric \"perf\"");
    expectRejected(
        metricsJson(std::string{kAllMetrics} + R"(,"converged":false)"),
        "duplicate metric \"converged\"");
    expectRejected(metricsJson(std::string{kAllMetrics} + R"(,"ipc":1)"),
                   "unknown metric \"ipc\"");
}

TEST(DseJson, StreamFreeDocumentsMatchTheCompactStream)
{
    // A metrics object, a result line and a cache record's payload,
    // rendered by writers with no stream, hold the bytes a compact
    // stream writer writes for the same calls.
    const PointEvaluator eval;
    EvaluatedPoint ep;
    ep.index = 42;
    ep.point.workload = "streamcluster";
    ep.point.tempK = 123.25;
    ep.metrics = eval.evaluate(ep.point);
    const std::string hash = ep.point.hashHex();
    const auto streamed = [](const auto &render) {
        std::ostringstream out;
        JsonWriter w{out, /*indent=*/0};
        render(w);
        return out.str();
    };
    const auto metrics = [&ep](JsonWriter &w) { ep.metrics.writeJson(w); };

    EXPECT_EQ(ep.metrics.json(), streamed(metrics));
    EXPECT_EQ(formatResultLine(ep), streamed([&](JsonWriter &w) {
                  w.beginObject();
                  w.key("i").value(std::uint64_t{42});
                  w.key("hash").value(hash);
                  w.key("point");
                  ep.point.writeJson(w);
                  w.key("metrics");
                  metrics(w);
                  w.endObject();
              }));
    const std::string payload = streamed([&](JsonWriter &w) {
        w.beginObject();
        w.key("hash").value(hash);
        w.key("metrics");
        metrics(w);
        w.endObject();
    });
    const std::string record = ResultCache::formatRecord(hash, ep.metrics);
    ASSERT_GT(record.size(), payload.size());
    EXPECT_EQ(record.substr(record.size() - payload.size()), payload);
    EXPECT_EQ(record[record.size() - payload.size() - 1], ' ');
}

TEST(SweepRunner, ReadResultsRejectsAnIncompleteRecordCitingItsLine)
{
    const SweepSpec spec =
        SweepSpec::fromJson(parseJson(kSpecJson, "<spec>"));
    const PointEvaluator eval;
    SweepOptions opts;
    opts.jobs = 1;
    const std::string full = runToString(spec, eval, opts);
    {
        std::istringstream in{full};
        EXPECT_EQ(readResults(in, "full.jsonl").size(),
                  spec.pointCount());
    }

    // Line 2 loses every metric but two.
    std::istringstream lines{full};
    std::string first, second, text;
    std::getline(lines, first);
    std::getline(lines, second);
    const std::size_t at = second.find("\"metrics\":");
    ASSERT_NE(at, std::string::npos);
    text = first + "\n" + second.substr(0, at) +
           R"("metrics":{"freqGhz":6.5,"converged":true}})" + "\n";
    std::istringstream in{text};
    try {
        readResults(in, "cut.jsonl");
        ADD_FAILURE() << "an incomplete record was read";
    } catch (const FatalError &e) {
        EXPECT_NE(e.message().find("cut.jsonl:2: missing metric"),
                  std::string::npos)
            << e.message();
    }
}

/* ------------------------------------------------------------------ */
/* Evaluation sanity + Pareto                                          */

TEST(PointEvaluator, MixedFamiliesMatchAFreshEvaluatorPerPoint)
{
    // One evaluator memoizes a Technology and a SystemBuilder (with
    // its CryoSP and 300 K baseline cores) per family: technology
    // axes x core count x floorplan scale. Points of many families,
    // interleaved and evaluated concurrently, must each get exactly
    // the bits a fresh evaluator computes for that point alone.
    std::vector<DesignPoint> grid;
    const std::array<const char *, 3> workloads = {"canneal", "x264",
                                                   ""};
    std::size_t w = 0;
    for (const double node : {45.0, 22.0, 14.0})
        for (const double scale : {0.85, 1.3})
            for (const int cores : {16, 64})
                for (const double t : {77.0, 150.25, 300.0}) {
                    DesignPoint p;
                    p.nodeNm = node;
                    p.floorplanScale = scale;
                    p.cores = cores;
                    p.tempK = t;
                    p.workload = workloads[w++ % workloads.size()];
                    grid.push_back(p);
                }
    for (const char *design : {"chp-mesh77", "baseline300-mesh"})
        for (const double node : {45.0, 14.0}) {
            DesignPoint p;
            p.design = design;
            p.nodeNm = node;
            p.floorplanScale = 1.3;
            p.cores = 16;
            p.workload = "canneal";
            grid.push_back(p);
        }
    DesignPoint overridden;
    overridden.tempK = 120.5;
    overridden.vdd = 0.9;
    overridden.vth = 0.3;
    overridden.workload = "x264";
    grid.push_back(overridden);

    // Interleave: consecutive points come from different families.
    std::vector<DesignPoint> points;
    constexpr std::size_t kStride = 7;
    for (std::size_t start = 0; start < kStride; ++start)
        for (std::size_t i = start; i < grid.size(); i += kStride)
            points.push_back(grid[i]);
    ASSERT_EQ(points.size(), grid.size());

    std::vector<std::vector<std::uint64_t>> want;
    for (const DesignPoint &p : points)
        want.push_back(metricBits(PointEvaluator{}.evaluate(p)));

    for (const int jobs : {1, 4}) {
        const PointEvaluator shared;
        const auto got = parallelMap(
            points.size(),
            [&](std::size_t i) {
                return metricBits(shared.evaluate(points[i]));
            },
            ParallelOptions{jobs, 1});
        for (std::size_t i = 0; i < points.size(); ++i)
            EXPECT_EQ(got[i], want[i])
                << "jobs " << jobs << ", point " << i << " "
                << points[i].hashHex();
    }
}

TEST(PointEvaluator, ChpFeasibilityHoldsOnEveryTechnologyAxis)
{
    // SystemBuilder::atTemperature no longer builds the 77 K CHP core,
    // whose leakage-feasibility check used to run on every
    // temperature-axis point. A DesignPoint sets only the node, the
    // wire width and alpha of the technology, and leakage reads none
    // of them: the check passes everywhere, so no point turns from an
    // error into a value.
    const tech::VoltagePoint chp{0.75, 0.25};
    const units::Kelvin cold{77.0};
    const double reference =
        tech::Mosfet{}.leakageFactor(cold, chp);
    ASSERT_LE(reference, 1.0);
    for (const double node : {5.0, 14.0, 22.0, 45.0, 90.0})
        for (const bool thick : {false, true})
            for (const double alpha :
                 {unsetField(), 0.05, 0.673, 1.0, 1.999}) {
                DesignPoint p;
                p.nodeNm = node;
                p.thickWire = thick;
                p.mosfetAlpha = alpha;
                p.validate();
                const auto tech = makeTechnology(p);
                EXPECT_EQ(std::bit_cast<std::uint64_t>(
                              tech->mosfet().leakageFactor(cold, chp)),
                          std::bit_cast<std::uint64_t>(reference))
                    << p.hashHex();
                EXPECT_NO_THROW(pipeline::CoreDesigner{*tech}.chpCore())
                    << p.hashHex();
            }
}

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

/** The lines of the file at @p path, sorted bytewise. */
std::vector<std::string>
sortedLines(const std::string &path)
{
    std::vector<std::string> lines;
    std::ifstream in{path};
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    std::sort(lines.begin(), lines.end());
    return lines;
}

TEST(SweepRunner, EveryBlockWritesTheLinesAndRecordsItsPointsFormat)
{
    // Two and a half blocks: lines and records cross two block
    // boundaries and end in a partial block. At one job and at four,
    // every result line is formatResultLine of its point and every
    // cache record formatRecord of its point, whichever order the
    // workers appended them in.
    const std::size_t n = 2 * kSweepBlockPoints + kSweepBlockPoints / 2;
    const SweepSpec spec = SweepSpec::fromJson(parseJson(
        R"({"name": "blocks", "base": {"workload": "streamcluster"},
            "axes": [{"field": "tempK", "range":
                {"from": 77, "to": 300, "steps": )" +
            std::to_string(n) + "}}]}",
        "<spec>"));
    ASSERT_EQ(spec.pointCount(), n);
    const PointEvaluator eval;
    std::string jobs1;
    for (const int jobs : {1, 4}) {
        const std::string path = "/tmp/cryowire_test_dse_blocks" +
                                 std::to_string(jobs) + ".cache";
        std::remove(path.c_str());
        SweepOptions opts;
        opts.jobs = jobs;
        opts.cachePath = path;
        std::ostringstream out;
        const std::vector<EvaluatedPoint> points =
            runSweep(spec, eval, out, opts);
        ASSERT_EQ(points.size(), n);

        std::string want;
        std::vector<std::string> records;
        for (const EvaluatedPoint &p : points) {
            want += formatResultLine(p) + "\n";
            records.push_back(
                ResultCache::formatRecord(p.point.hashHex(), p.metrics));
        }
        std::sort(records.begin(), records.end());
        EXPECT_EQ(out.str(), want) << jobs << " job(s)";
        EXPECT_EQ(sortedLines(path), records) << jobs << " job(s)";
        if (jobs == 1)
            jobs1 = out.str();
        else
            EXPECT_EQ(out.str(), jobs1);
        std::remove(path.c_str());
    }
}

TEST(DseTest, Grid10kOutputIsPinned)
{
    // The bytes `cryowire_sweep --spec examples/specs/dse_grid_10k.json
    // --out F --pareto P --cache C` writes, as FNV-1a digests of the
    // JSONL stream, the Pareto CSV and the cache file with its lines
    // sorted (workers append records as points complete): every
    // metric of all 10,000 points, rendered through formatDouble. The
    // JSONL and CSV digests were recorded before the critical-path
    // hoist and the to_chars formatDouble, the cache digest before
    // records spliced a metrics object rendered once; any change to
    // the model's arithmetic or to the number rendering moves a digest.
    const SweepSpec spec = SweepSpec::load(
        CRYOWIRE_SOURCE_DIR "/examples/specs/dse_grid_10k.json");
    ASSERT_EQ(spec.pointCount(), 10000u);
    const PointEvaluator eval;
    const std::string cachePath = "/tmp/cryowire_test_dse_grid10k.cache";
    std::remove(cachePath.c_str());
    SweepOptions opts;
    opts.cachePath = cachePath;
    std::ostringstream jsonl;
    const std::vector<EvaluatedPoint> points =
        runSweep(spec, eval, jsonl, opts);
    std::ostringstream csv;
    writeParetoCsv(csv, points, paretoFrontier(points));
    std::string cache;
    for (const std::string &record : sortedLines(cachePath))
        cache += record + '\n';
    std::remove(cachePath.c_str());

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
    EXPECT_EQ(digestOf(cache), "0x96b818c6c260bd77");
}

} // namespace
