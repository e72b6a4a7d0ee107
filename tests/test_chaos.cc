/**
 * @file
 * Chaos suite: every deterministic failpoint schedule the tree
 * supports, driven through the real code paths - cache appends and
 * compaction, sweep evaluation, the serving daemon, and the client's
 * retry loop. The contract under test is the ISSUE's acceptance bar:
 * an injected fault must always produce a *typed, contained* failure
 * (an error reply, a FatalError naming the failpoint, a quarantined
 * record) - never a crash and never a silently wrong answer.
 *
 * Process-level crash recovery (SIGKILL mid-load, restart, verify
 * byte-identity) lives in tools/chaos_kill9.sh, which CI runs under
 * ASan next to this binary.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dse/design_point.hh"
#include "dse/point_eval.hh"
#include "dse/result_cache.hh"
#include "dse/sweep_runner.hh"
#include "dse/sweep_spec.hh"
#include "svc/client.hh"
#include "svc/protocol.hh"
#include "svc/server.hh"
#include "util/diag.hh"
#include "util/failpoint.hh"
#include "util/hash.hh"
#include "util/json.hh"
#include "util/socket.hh"

namespace
{

using namespace cryo;
using namespace cryo::svc;

/** Every test starts and ends with no failpoints armed - an armed
 * leftover would silently poison whichever test runs next. */
class Chaos : public ::testing::Test
{
  protected:
    void SetUp() override { failpoint::disarmAll(); }
    void TearDown() override { failpoint::disarmAll(); }
};

using FailpointChaos = Chaos;
using CacheChaos = Chaos;
using SweepChaos = Chaos;
using ServeChaos = Chaos;

std::string
readFile(const std::string &path)
{
    std::ifstream in{path, std::ios::binary};
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

bool
fileExists(const std::string &path)
{
    return std::ifstream{path}.good();
}

/** Remove a cache file and its sidecars (fresh-start hygiene). */
void
scrub(const std::string &cachePath)
{
    std::remove(cachePath.c_str());
    std::remove((cachePath + ".tmp").c_str());
    std::remove(dse::ResultCache::quarantinePath(cachePath).c_str());
}

/* ------------------------------------------------------------------ */
/* The failpoint framework itself.                                     */
/* ------------------------------------------------------------------ */

TEST_F(FailpointChaos, UnarmedSitesAreInert)
{
    EXPECT_TRUE(failpoint::armedSites().empty());
    const failpoint::Action a = failpoint::eval("no.such.site");
    EXPECT_EQ(a.kind, failpoint::ActionKind::kNone);
    EXPECT_NO_THROW(CRYO_FAILPOINT("no.such.site"));
    EXPECT_EQ(failpoint::hits("no.such.site"), 0u);
}

TEST_F(FailpointChaos, NthFiresOnExactlyTheNthHit)
{
    failpoint::arm("t.site", "nth(3):error");
    int thrown = 0;
    for (int i = 0; i < 5; ++i) {
        try {
            CRYO_FAILPOINT("t.site");
        } catch (const FatalError &err) {
            ++thrown;
            EXPECT_EQ(i, 2) << "must fire on the 3rd hit only";
            EXPECT_NE(std::string(err.message()).find("t.site"),
                      std::string::npos);
        }
    }
    EXPECT_EQ(thrown, 1);
    EXPECT_EQ(failpoint::hits("t.site"), 5u);
    EXPECT_EQ(failpoint::fires("t.site"), 1u);

    // Re-arming resets the counters and the schedule.
    failpoint::arm("t.site", "nth(3):error");
    EXPECT_EQ(failpoint::hits("t.site"), 0u);
    EXPECT_NO_THROW(CRYO_FAILPOINT("t.site"));
}

TEST_F(FailpointChaos, EveryFiresPeriodically)
{
    failpoint::arm("t.site", "every(2):error");
    std::vector<int> fired;
    for (int i = 1; i <= 6; ++i) {
        try {
            CRYO_FAILPOINT("t.site");
        } catch (const FatalError &) {
            fired.push_back(i);
        }
    }
    EXPECT_EQ(fired, (std::vector<int>{2, 4, 6}));
    EXPECT_EQ(failpoint::fires("t.site"), 3u);
}

TEST_F(FailpointChaos, ProbReplaysBitIdenticallyForASeed)
{
    const auto pattern = [] {
        failpoint::arm("t.site", "prob(0.5,42):error");
        std::vector<bool> fires;
        for (int i = 0; i < 100; ++i) {
            const failpoint::Action a = failpoint::eval("t.site");
            fires.push_back(a.kind == failpoint::ActionKind::kError);
        }
        return fires;
    };
    const std::vector<bool> first = pattern();
    const std::vector<bool> second = pattern();
    EXPECT_EQ(first, second);

    const std::size_t count =
        static_cast<std::size_t>(std::count(first.begin(),
                                            first.end(), true));
    EXPECT_GT(count, 20u); // p=0.5 over 100 draws
    EXPECT_LT(count, 80u);
}

TEST_F(FailpointChaos, DelaySleepsTheHittingThread)
{
    failpoint::arm("t.site", "always:delay(30)");
    const auto before = std::chrono::steady_clock::now();
    const failpoint::Action a = failpoint::eval("t.site");
    const auto elapsed = std::chrono::steady_clock::now() - before;
    // The delay is applied inside eval(); the caller sees no action.
    EXPECT_EQ(a.kind, failpoint::ActionKind::kNone);
    EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(
                  elapsed)
                  .count(),
              25);
    EXPECT_EQ(failpoint::fires("t.site"), 1u);
}

TEST_F(FailpointChaos, MalformedSpecsAreFatal)
{
    EXPECT_THROW(failpoint::arm("t", "bogus"), FatalError);
    EXPECT_THROW(failpoint::arm("t", "always"), FatalError);
    EXPECT_THROW(failpoint::arm("t", "nth(0):error"), FatalError);
    EXPECT_THROW(failpoint::arm("t", "always:partial"), FatalError);
    EXPECT_THROW(failpoint::arm("t", "prob(1.5,1):error"),
                 FatalError);
    // Strict numbers: no silent wraparound, no NaN probability.
    EXPECT_THROW(failpoint::arm("t", "nth(99999999999999999999):error"),
                 FatalError);
    EXPECT_THROW(failpoint::arm("t", "prob(nan,1):error"), FatalError);
    EXPECT_THROW(failpoint::armFromList("a=always:error;nonsense"),
                 FatalError);
    EXPECT_TRUE(failpoint::armedSites().empty() ||
                failpoint::armedSites() ==
                    std::vector<std::string>{"a"});
}

TEST_F(FailpointChaos, ArmFromListArmsEverySite)
{
    failpoint::armFromList("a.one=always:error;b.two=nth(2):delay(1)");
    EXPECT_EQ(failpoint::armedSites(),
              (std::vector<std::string>{"a.one", "b.two"}));
    failpoint::disarm("a.one");
    EXPECT_EQ(failpoint::armedSites(),
              std::vector<std::string>{"b.two"});
    failpoint::disarmAll();
    EXPECT_TRUE(failpoint::armedSites().empty());
    EXPECT_EQ(failpoint::eval("a.one").kind,
              failpoint::ActionKind::kNone);
}

/* ------------------------------------------------------------------ */
/* Cache chaos: torn appends, corruption, compaction failures.        */
/* ------------------------------------------------------------------ */

dse::PointMetrics
metricsAt(double tempK)
{
    dse::DesignPoint p;
    p.tempK = tempK;
    return dse::PointEvaluator{}.evaluate(p);
}

TEST_F(CacheChaos, AppendErrorDegradesToMemoryOnlyNotFatal)
{
    const std::string path = "/tmp/cryowire_chaos_append_err.jsonl";
    scrub(path);

    dse::ResultCache cache{path};
    cache.store("aaaa", metricsAt(77.0));
    ASSERT_TRUE(cache.writable());

    failpoint::arm("cache.append.write", "always:error");
    EXPECT_NO_THROW(cache.store("bbbb", metricsAt(90.0)));
    EXPECT_FALSE(cache.writable()); // degraded, loudly, once

    // The degraded cache still serves both entries from memory.
    dse::PointMetrics out;
    EXPECT_TRUE(cache.lookup("aaaa", &out));
    EXPECT_TRUE(cache.lookup("bbbb", &out));

    // Only the pre-fault record reached the file.
    failpoint::disarmAll();
    dse::ResultCache reloaded{path};
    EXPECT_EQ(reloaded.loadedEntries(), 1u);
    EXPECT_EQ(reloaded.quarantinedEntries(), 0u);
    scrub(path);
}

TEST_F(CacheChaos, TornAppendIsQuarantinedOnReload)
{
    const std::string path = "/tmp/cryowire_chaos_torn.jsonl";
    scrub(path);

    {
        dse::ResultCache cache{path};
        cache.store("aaaa", metricsAt(77.0));
        // Tear the second append 20 bytes in - the kill-mid-write
        // crash shape; the prefix really lands in the file.
        failpoint::arm("cache.append.write", "nth(1):partial(20)");
        cache.store("bbbb", metricsAt(90.0));
    }

    failpoint::disarmAll();
    dse::ResultCache reloaded{path};
    EXPECT_EQ(reloaded.loadedEntries(), 1u);
    EXPECT_EQ(reloaded.quarantinedEntries(), 1u);
    dse::PointMetrics out;
    EXPECT_TRUE(reloaded.lookup("aaaa", &out));
    EXPECT_FALSE(reloaded.lookup("bbbb", &out));

    // The torn line lives on in the sidecar for post-mortems...
    const std::string sidecar = dse::ResultCache::quarantinePath(path);
    ASSERT_TRUE(fileExists(sidecar));
    EXPECT_FALSE(readFile(sidecar).empty());

    // ...and the load migrated (compacted) the main file, so the next
    // load is clean: same entries, nothing left to quarantine.
    dse::ResultCache clean{path};
    EXPECT_EQ(clean.loadedEntries(), 1u);
    EXPECT_EQ(clean.quarantinedEntries(), 0u);
    scrub(path);
}

TEST_F(CacheChaos, CorruptRecordsQuarantineAndSurviveReload)
{
    const std::string path = "/tmp/cryowire_chaos_corrupt.jsonl";
    scrub(path);

    const dse::PointMetrics m77 = metricsAt(77.0);
    const dse::PointMetrics m90 = metricsAt(90.0);
    std::string flipped = dse::ResultCache::formatRecord("cccc", m90);
    flipped[flipped.size() / 2] ^= 0x01; // CRC now disagrees
    {
        std::ofstream out{path, std::ios::binary};
        out << dse::ResultCache::formatRecord("aaaa", m77) << '\n'
            << dse::ResultCache::formatRecord("bbbb", m90) << '\n'
            << flipped << '\n'
            << "!! not a record at all\n";
    }

    dse::ResultCache cache{path};
    EXPECT_EQ(cache.loadedEntries(), 2u);
    EXPECT_EQ(cache.quarantinedEntries(), 2u);
    dse::PointMetrics out;
    EXPECT_TRUE(cache.lookup("aaaa", &out));
    EXPECT_TRUE(cache.lookup("bbbb", &out));
    EXPECT_FALSE(cache.lookup("cccc", &out));

    const std::string sidecar = readFile(
        dse::ResultCache::quarantinePath(path));
    EXPECT_NE(sidecar.find("not a record"), std::string::npos);

    dse::ResultCache clean{path};
    EXPECT_EQ(clean.loadedEntries(), 2u);
    EXPECT_EQ(clean.quarantinedEntries(), 0u);
    scrub(path);
}

TEST_F(CacheChaos, LegacyV1CacheMigratesToFramedRecords)
{
    const std::string path = "/tmp/cryowire_chaos_legacy.jsonl";
    scrub(path);

    {
        std::ofstream out{path, std::ios::binary};
        out << dse::ResultCache::formatLine("aaaa", metricsAt(77.0))
            << '\n'
            << dse::ResultCache::formatLine("bbbb", metricsAt(90.0))
            << '\n';
    }

    dse::ResultCache cache{path};
    EXPECT_EQ(cache.loadedEntries(), 2u);
    EXPECT_EQ(cache.quarantinedEntries(), 0u);

    const std::string migrated = readFile(path);
    EXPECT_EQ(migrated.compare(0, 3, "v2 "), 0)
        << "legacy cache was not rewritten with v2 framing";

    dse::ResultCache reloaded{path};
    EXPECT_EQ(reloaded.loadedEntries(), 2u);
    scrub(path);
}

TEST_F(CacheChaos, CompactionFailuresLeaveTheOriginalFileIntact)
{
    const std::string path = "/tmp/cryowire_chaos_compact.jsonl";
    scrub(path);

    dse::ResultCache cache{path};
    cache.store("aaaa", metricsAt(77.0));
    cache.store("bbbb", metricsAt(90.0));
    const std::string before = readFile(path);
    ASSERT_FALSE(before.empty());

    // A failed temp-file write must not touch the original...
    failpoint::arm("cache.compact.write", "always:error");
    EXPECT_THROW(cache.rewrite(), FatalError);
    EXPECT_EQ(readFile(path), before);
    EXPECT_FALSE(fileExists(path + ".tmp"));

    // ...nor a torn temp-file write...
    failpoint::arm("cache.compact.write", "always:partial(10)");
    EXPECT_THROW(cache.rewrite(), FatalError);
    EXPECT_EQ(readFile(path), before);
    EXPECT_FALSE(fileExists(path + ".tmp"));

    // ...nor a failed rename.
    failpoint::disarm("cache.compact.write");
    failpoint::arm("cache.compact.rename", "always:error");
    EXPECT_THROW(cache.rewrite(), FatalError);
    EXPECT_EQ(readFile(path), before);
    EXPECT_FALSE(fileExists(path + ".tmp"));

    // With the faults cleared the same cache compacts fine.
    failpoint::disarmAll();
    EXPECT_NO_THROW(cache.rewrite());
    dse::ResultCache reloaded{path};
    EXPECT_EQ(reloaded.loadedEntries(), 2u);
    scrub(path);
}

TEST_F(CacheChaos, FsyncPerStoreKeepsEveryRecordReadable)
{
    const std::string path = "/tmp/cryowire_chaos_fsync.jsonl";
    scrub(path);
    {
        dse::ResultCache cache{path,
                               dse::CacheWritability::kRequireWritable,
                               dse::CacheDurability::kFsyncPerStore};
        cache.store("aaaa", metricsAt(77.0));
        cache.store("bbbb", metricsAt(90.0));
        cache.store("cccc", metricsAt(120.0));
        cache.flush();
    }
    dse::ResultCache reloaded{path};
    EXPECT_EQ(reloaded.loadedEntries(), 3u);
    EXPECT_EQ(reloaded.quarantinedEntries(), 0u);
    scrub(path);
}

/* ------------------------------------------------------------------ */
/* Sweep chaos: eval faults and damaged caches through runSweep.      */
/* ------------------------------------------------------------------ */

constexpr const char *kSweepJson = R"({
    "name": "chaos",
    "base": { "workload": "streamcluster" },
    "axes": [
        { "field": "tempK",
          "range": { "from": 77, "to": 300, "steps": 5 } }
    ]
})";

TEST_F(SweepChaos, EvalFaultIsTypedAndTheSweepResumesCleanly)
{
    const dse::SweepSpec spec =
        dse::SweepSpec::fromJson(parseJson(kSweepJson, "<spec>"));
    const dse::PointEvaluator eval;
    const std::string path = "/tmp/cryowire_chaos_sweep.jsonl";
    scrub(path);

    std::ostringstream fresh;
    dse::runSweep(spec, eval, fresh);

    // A mid-sweep eval fault surfaces as a FatalError naming the
    // failpoint - typed, not a crash, not a wrong result line.
    failpoint::arm("dse.eval", "nth(3):error");
    dse::SweepOptions opts;
    opts.jobs = 1;
    opts.cachePath = path;
    std::ostringstream wounded;
    try {
        dse::runSweep(spec, eval, wounded, opts);
        FAIL() << "armed sweep must throw";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.message()).find("dse.eval"),
                  std::string::npos);
    }

    // Every point evaluated before the fault was checkpointed; the
    // rerun picks those up and still emits the fresh bytes.
    failpoint::disarmAll();
    dse::SweepStats resumed;
    std::ostringstream rerun;
    dse::runSweep(spec, eval, rerun, opts, &resumed);
    EXPECT_EQ(rerun.str(), fresh.str());
    EXPECT_EQ(resumed.cacheHits + resumed.evaluated,
              spec.pointCount());
    EXPECT_GE(resumed.cacheHits, 1u);
    scrub(path);
}

TEST_F(SweepChaos, EvalFaultAfterTheFirstBlockKeepsTheBlocksBefore)
{
    // A fault on the third point of the second block, at one job: the
    // output holds exactly the first block's lines, the cache every
    // point evaluated before the fault, and the rerun the fresh bytes.
    const std::size_t block = dse::kSweepBlockPoints;
    const dse::SweepSpec spec = dse::SweepSpec::fromJson(parseJson(
        R"({"name": "chaos-blocks", "base": {"workload": "streamcluster"},
            "axes": [{"field": "tempK", "range":
                {"from": 77, "to": 300, "steps": )" +
            std::to_string(block + 40) + "}}]}",
        "<spec>"));
    const dse::PointEvaluator eval;
    const std::string path = "/tmp/cryowire_chaos_sweep_blocks.jsonl";
    scrub(path);

    std::ostringstream fresh;
    dse::runSweep(spec, eval, fresh);
    std::string firstBlock;
    {
        std::istringstream in{fresh.str()};
        std::string line;
        for (std::size_t i = 0; i < block && std::getline(in, line); ++i)
            firstBlock += line + '\n';
    }

    failpoint::arm("dse.eval",
                   "nth(" + std::to_string(block + 3) + "):error");
    dse::SweepOptions opts;
    opts.jobs = 1;
    opts.cachePath = path;
    std::ostringstream wounded;
    try {
        dse::runSweep(spec, eval, wounded, opts);
        FAIL() << "armed sweep must throw";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.message()).find("dse.eval"),
                  std::string::npos);
    }
    EXPECT_EQ(wounded.str(), firstBlock);
    failpoint::disarmAll();
    {
        const dse::ResultCache cache{path};
        EXPECT_EQ(cache.loadedEntries(), block + 2);
        dse::PointMetrics m;
        for (std::size_t i = 0; i < block + 2; ++i)
            EXPECT_TRUE(cache.lookup(spec.point(i).hashHex(), &m)) << i;
    }

    dse::SweepStats resumed;
    std::ostringstream rerun;
    dse::runSweep(spec, eval, rerun, opts, &resumed);
    EXPECT_EQ(rerun.str(), fresh.str());
    EXPECT_EQ(resumed.cacheHits, block + 2);
    EXPECT_EQ(resumed.evaluated, spec.pointCount() - block - 2);
    scrub(path);
}

TEST_F(SweepChaos, EvalFaultLeavesExactlyThePrecedingBlocksAtAnyJobCount)
{
    // Two and a half blocks, no cache file, so every point evaluates
    // and the Nth evaluation falls in a known block. A fault on the
    // second block's first evaluation (at one job, its first point)
    // or on one in the last block leaves exactly the blocks before
    // it in the output, although the worker that takes a block's
    // first point writes the previous block while the others work.
    const std::size_t block = dse::kSweepBlockPoints;
    const dse::SweepSpec spec = dse::SweepSpec::fromJson(parseJson(
        R"({"name": "chaos-blocks", "base": {"workload": "streamcluster"},
            "axes": [{"field": "tempK", "range":
                {"from": 77, "to": 300, "steps": )" +
            std::to_string(2 * block + block / 2) + "}}]}",
        "<spec>"));
    const dse::PointEvaluator eval;
    std::ostringstream fresh;
    dse::runSweep(spec, eval, fresh);
    const std::string freshText = fresh.str();
    const auto firstLines = [&freshText](std::size_t n) {
        std::size_t end = 0;
        for (std::size_t i = 0; i < n; ++i)
            end = freshText.find('\n', end) + 1;
        return freshText.substr(0, end);
    };

    // (evaluation that faults, blocks left whole before it)
    for (const auto &[nth, blocks] :
         {std::pair{block + 1, std::size_t{1}},
          std::pair{2 * block + 17, std::size_t{2}}}) {
        for (const int jobs : {1, 4}) {
            failpoint::arm("dse.eval",
                           "nth(" + std::to_string(nth) + "):error");
            dse::SweepOptions opts;
            opts.jobs = jobs;
            std::ostringstream wounded;
            EXPECT_THROW(dse::runSweep(spec, eval, wounded, opts),
                         FatalError)
                << "fault " << nth << ", " << jobs << " job(s)";
            EXPECT_EQ(wounded.str(), firstLines(blocks * block))
                << "fault " << nth << ", " << jobs << " job(s)";
            failpoint::disarmAll();
        }
    }
}

TEST_F(SweepChaos, QuarantinedRecordsSurfaceInSweepStats)
{
    const dse::SweepSpec spec =
        dse::SweepSpec::fromJson(parseJson(kSweepJson, "<spec>"));
    const dse::PointEvaluator eval;
    const std::string path = "/tmp/cryowire_chaos_sweepq.jsonl";
    scrub(path);

    dse::SweepOptions opts;
    opts.cachePath = path;
    std::ostringstream cold;
    dse::runSweep(spec, eval, cold, opts);

    // Vandalize the cache: one junk line in the middle.
    {
        std::ofstream out{path, std::ios::app};
        out << "@@@@ vandalized @@@@\n";
    }

    dse::SweepStats stats;
    std::ostringstream warm;
    dse::runSweep(spec, eval, warm, opts, &stats);
    EXPECT_EQ(warm.str(), cold.str());
    EXPECT_EQ(stats.quarantined, 1u);
    EXPECT_EQ(stats.cacheHits, spec.pointCount());
    EXPECT_EQ(stats.evaluated, 0u);
    scrub(path);
}

TEST_F(SweepChaos, IncompleteMetricsRecordIsQuarantinedAndReevaluated)
{
    // A record whose framing and CRC are intact but whose metrics
    // object lacks most metrics (a record from before a metric was
    // added looks like this) must not load as a hit with perf = 0:
    // it is quarantined and its point evaluates again.
    const dse::SweepSpec spec =
        dse::SweepSpec::fromJson(parseJson(kSweepJson, "<spec>"));
    const dse::PointEvaluator eval;
    const std::string path = "/tmp/cryowire_chaos_sweep_partial.jsonl";
    scrub(path);

    dse::SweepOptions opts;
    opts.cachePath = path;
    std::ostringstream cold;
    dse::runSweep(spec, eval, cold, opts);

    const std::string hash = spec.point(0).hashHex();
    const std::string payload =
        R"({"hash":")" + hash +
        R"(","metrics":{"freqGhz":6.5,"converged":true}})";
    const std::string partial = "v2 " + std::to_string(payload.size()) +
                                " " + crcHex(Crc32c::of(payload)) + " " +
                                payload;
    {
        std::istringstream in{readFile(path)};
        std::ofstream out{path, std::ios::trunc};
        std::string line;
        while (std::getline(in, line))
            out << (line.find(hash) == std::string::npos ? line : partial)
                << '\n';
    }
    {
        dse::ResultCache cache{path};
        EXPECT_EQ(cache.quarantinedEntries(), 1u);
        dse::PointMetrics out;
        EXPECT_FALSE(cache.lookup(hash, &out));
    }
    EXPECT_NE(readFile(dse::ResultCache::quarantinePath(path)).find(partial),
              std::string::npos);

    // The load above rewrote the file without the record; put it back
    // so the sweep itself meets it.
    {
        std::ofstream out{path, std::ios::app};
        out << partial << '\n';
    }
    dse::SweepStats stats;
    std::ostringstream warm;
    dse::runSweep(spec, eval, warm, opts, &stats);
    EXPECT_EQ(warm.str(), cold.str());
    EXPECT_EQ(stats.quarantined, 1u);
    EXPECT_EQ(stats.evaluated, 1u);
    EXPECT_EQ(stats.cacheHits, spec.pointCount() - 1);
    scrub(path);
}

/* ------------------------------------------------------------------ */
/* Serving chaos: eval faults, deadlines, retries, drain.             */
/* ------------------------------------------------------------------ */

Request
evalRequest(const std::string &id, double tempK,
            std::int64_t deadlineMs = 0)
{
    Request r;
    r.id = id;
    r.op = Op::kEval;
    r.point.workload = "streamcluster";
    r.point.tempK = tempK;
    r.metrics = {"perf", "totalPower", "converged"};
    r.deadlineMs = deadlineMs;
    return r;
}

TEST_F(ServeChaos, EvalFaultYieldsTypedFailedReplyAndServerSurvives)
{
    ServerConfig cfg;
    cfg.socketPath = "/tmp/cryowire_chaos_failed.sock";
    Server server{cfg};
    server.start();
    Client client{cfg.socketPath};

    failpoint::arm("dse.eval", "always:error");
    const Reply bad = client.call(evalRequest("f1", 77.0));
    EXPECT_EQ(bad.status, "failed");
    EXPECT_NE(bad.message.find("dse.eval"), std::string::npos);

    // The daemon shrugged the fault off: same connection, same point,
    // fault cleared - a clean answer.
    failpoint::disarmAll();
    const Reply good = client.call(evalRequest("f2", 77.0));
    EXPECT_EQ(good.status, "ok") << good.message;

    server.stop();
    EXPECT_EQ(server.serverStats().counters().failed, 1u);
    EXPECT_EQ(server.serverStats().counters().ok, 1u);
}

TEST_F(ServeChaos, QueueWaitPastDeadlineYieldsExpired)
{
    ServerConfig cfg;
    cfg.socketPath = "/tmp/cryowire_chaos_deadline.sock";
    cfg.evalThreads = 1;
    cfg.admission.minConcurrency = 1;
    cfg.admission.maxConcurrency = 1;
    cfg.admission.initialConcurrency = 1;
    cfg.admission.maxQueue = 8;
    Server server{cfg};
    server.start();
    Client client{cfg.socketPath};

    // The first request holds the single slot for ~60 ms; the second
    // waits in the queue past its 10 ms deadline and must come back
    // "expired" without ever evaluating.
    failpoint::arm("dse.eval", "nth(1):delay(60)");
    const Request slow = evalRequest("d1", 77.0);
    const Request doomed = evalRequest("d2", 90.0, /*deadlineMs=*/10);
    client.sendRaw(formatRequest(slow) + "\n" +
                   formatRequest(doomed) + "\n");

    Reply first = client.read();
    Reply second = client.read();
    if (first.id != "d1")
        std::swap(first, second);
    EXPECT_EQ(first.status, "ok") << first.message;
    EXPECT_EQ(second.status, "expired");
    EXPECT_EQ(second.deadlineMs, 10);

    server.stop();
    const SvcCounters c = server.serverStats().counters();
    EXPECT_EQ(c.expired, 1u);
    EXPECT_EQ(c.evaluated, 1u); // the doomed request never ran
}

TEST_F(ServeChaos, ClientRetriesShedRequestsUntilTheSlotFrees)
{
    ServerConfig cfg;
    cfg.socketPath = "/tmp/cryowire_chaos_retry.sock";
    cfg.evalThreads = 1;
    cfg.admission.minConcurrency = 1;
    cfg.admission.maxConcurrency = 1;
    cfg.admission.initialConcurrency = 1;
    cfg.admission.maxQueue = 0; // no queue: concurrent = shed
    Server server{cfg};
    server.start();

    // Occupy the single slot for ~150 ms from a second connection.
    failpoint::arm("dse.eval", "nth(1):delay(150)");
    std::thread occupant{[&cfg] {
        Client hog{cfg.socketPath};
        const Reply r = hog.call(evalRequest("hog", 77.0));
        EXPECT_EQ(r.status, "ok") << r.message;
    }};

    ClientConfig cc;
    cc.socketPath = cfg.socketPath;
    cc.retryBudget = 10;
    cc.retryBackoffMs = 20;
    cc.jitterSeed = 7;
    Client client{cc};

    // Give the hog a head start so the first attempt really sheds.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const Reply r = client.call(evalRequest("patient", 90.0));
    EXPECT_EQ(r.status, "ok") << r.message;
    EXPECT_GE(client.retries(), 1u)
        << "the first attempt should have been shed";

    occupant.join();
    server.stop();
    EXPECT_GE(server.serverStats().counters().overloaded, 1u);
}

TEST_F(ServeChaos, SendFaultTriggersReconnectAndTheCallStillLands)
{
    ServerConfig cfg;
    cfg.socketPath = "/tmp/cryowire_chaos_send.sock";
    Server server{cfg};
    server.start();

    ClientConfig cc;
    cc.socketPath = cfg.socketPath;
    cc.retryBudget = 2;
    cc.retryBackoffMs = 1;
    Client client{cc};

    // The very next write in this process is the client's request
    // line (the daemon only writes after it reads something).
    failpoint::arm("socket.send.write", "nth(1):error");
    const Reply r = client.call(evalRequest("s1", 77.0));
    EXPECT_EQ(r.status, "ok") << r.message;
    EXPECT_EQ(client.reconnects(), 1u);
    EXPECT_GE(client.retries(), 1u);

    server.stop();
}

TEST_F(ServeChaos, DrainDeliversEveryReplyAndFlushesTheCache)
{
    const std::string cachePath = "/tmp/cryowire_chaos_drain.jsonl";
    scrub(cachePath);

    ServerConfig cfg;
    cfg.socketPath = "/tmp/cryowire_chaos_drain.sock";
    cfg.cachePath = cachePath;
    cfg.evalThreads = 2;
    cfg.admission.minConcurrency = 1;
    cfg.admission.maxConcurrency = 2;
    cfg.admission.initialConcurrency = 2;
    cfg.admission.maxQueue = 8;
    cfg.drainDeadlineMs = 1; // exercise the loud-wait path too
    Server server{cfg};
    server.start();
    Client client{cfg.socketPath};

    // Six in-flight evals, each held ~40 ms, then stop() mid-burst:
    // the SIGTERM path. Every request must still get exactly one
    // typed reply - ok for whatever was running, overloaded for
    // whatever the drain shed from the queue.
    failpoint::arm("dse.eval", "always:delay(40)");
    std::string burst;
    for (int i = 0; i < 6; ++i) {
        // Appended, not "g" + std::to_string(i): GCC 12 at -O3 turns
        // that operator+ into a -Wrestrict false positive (GCC bug
        // 105651).
        std::string id = "g";
        id += std::to_string(i);
        burst += formatRequest(evalRequest(id, 77.0 + 9.0 * i)) + "\n";
    }
    client.sendRaw(burst);
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    server.stop();

    std::set<std::string> ids;
    std::size_t okCount = 0;
    for (int i = 0; i < 6; ++i) {
        const Reply r = client.read();
        EXPECT_TRUE(r.status == "ok" || r.status == "overloaded")
            << r.status;
        ids.insert(r.id);
        okCount += r.status == "ok" ? 1 : 0;
    }
    EXPECT_EQ(ids.size(), 6u) << "a reply was lost or duplicated";
    EXPECT_GE(okCount, 1u);

    const SvcCounters c = server.serverStats().counters();
    EXPECT_EQ(c.received, 6u);
    EXPECT_EQ(c.replied, 6u);

    // stop() flushed the cache: every completed eval is on disk.
    failpoint::disarmAll();
    dse::ResultCache reloaded{cachePath};
    EXPECT_EQ(reloaded.loadedEntries(), okCount);
    EXPECT_EQ(reloaded.quarantinedEntries(), 0u);
    scrub(cachePath);
}

} // namespace
