/**
 * @file
 * The serving layer's test suite (src/svc): the admission state
 * machine under synthetic time, the wire protocol's strict parse and
 * round-trip properties, and - against a live daemon over a real
 * unix socket - the differential contract (every reply byte-equal to
 * a direct PointEvaluator call), in-flight dedupe, fault injection
 * (evaluator failures, unwritable caches), overload shedding, and a
 * multi-client soak with an exactly-one-reply-per-request invariant.
 *
 * The live-server tests share one process-wide ThreadPool that only
 * ever grows, so the single-worker differential run is registered
 * (and runs) before any test that asks for more workers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dse/point_eval.hh"
#include "svc/admission.hh"
#include "svc/client.hh"
#include "svc/metrics.hh"
#include "svc/protocol.hh"
#include "svc/server.hh"
#include "util/diag.hh"
#include "util/rng.hh"
#include "util/socket.hh"

namespace
{

using namespace cryo;
using namespace cryo::svc;
using D = AdmissionController::Decision;

/* ------------------------------------------------------------------ */
/* Admission control: the probe state machine under synthetic time.   */
/* ------------------------------------------------------------------ */

AdmissionConfig
probeConfig()
{
    AdmissionConfig cfg;
    cfg.minConcurrency = 1;
    cfg.maxConcurrency = 8;
    cfg.initialConcurrency = 2;
    cfg.stepFraction = 0.5;
    cfg.adoptTolerance = 0.1;
    cfg.probeWindowUs = 1000;
    cfg.maxQueue = 2;
    return cfg;
}

/**
 * Window 1 for the probe-up tests: saturate the limit (2) and
 * complete 5 requests inside [0, 1000), so the window that closes at
 * t=1000 measures 5000/s with the limit hit.
 */
void
saturatedFirstWindow(AdmissionController &ac)
{
    ASSERT_EQ(ac.admit(0), D::kRun);
    ASSERT_EQ(ac.admit(0), D::kRun); // inflight == limit: hit
    ac.release(100);
    ac.release(100);
    ASSERT_EQ(ac.admit(200), D::kRun);
    ac.release(300);
    ASSERT_EQ(ac.admit(300), D::kRun);
    ac.release(400);
    ASSERT_EQ(ac.admit(400), D::kRun);
    ac.release(500); // 5 completions total
}

TEST(Admission, ConfigValidation)
{
    EXPECT_NO_THROW(AdmissionController{probeConfig()});

    AdmissionConfig cfg = probeConfig();
    cfg.minConcurrency = 0;
    EXPECT_THROW(AdmissionController{cfg}, FatalError);

    cfg = probeConfig();
    cfg.maxConcurrency = 1; // < min via initial below
    cfg.minConcurrency = 2;
    cfg.initialConcurrency = 2;
    EXPECT_THROW(AdmissionController{cfg}, FatalError);

    cfg = probeConfig();
    cfg.initialConcurrency = 9; // > maxConcurrency
    EXPECT_THROW(AdmissionController{cfg}, FatalError);

    cfg = probeConfig();
    cfg.stepFraction = 0.0;
    EXPECT_THROW(AdmissionController{cfg}, FatalError);

    cfg = probeConfig();
    cfg.stepFraction = 1.5;
    EXPECT_THROW(AdmissionController{cfg}, FatalError);

    cfg = probeConfig();
    cfg.adoptTolerance = 1.0;
    EXPECT_THROW(AdmissionController{cfg}, FatalError);

    cfg = probeConfig();
    cfg.probeWindowUs = 0;
    EXPECT_THROW(AdmissionController{cfg}, FatalError);
}

TEST(Admission, RunQueueShedAndPromote)
{
    AdmissionController ac{probeConfig()};
    EXPECT_EQ(ac.limit(), 2u);
    EXPECT_EQ(ac.stateName(), "stable");

    EXPECT_EQ(ac.admit(0), D::kRun);
    EXPECT_EQ(ac.admit(0), D::kRun);
    EXPECT_EQ(ac.admit(0), D::kQueue);
    EXPECT_EQ(ac.admit(0), D::kQueue);
    EXPECT_EQ(ac.admit(0), D::kShed); // queue full at maxQueue=2
    EXPECT_EQ(ac.inflight(), 2u);
    EXPECT_EQ(ac.queued(), 2u);
    EXPECT_FALSE(ac.canPromote());

    ac.release(10);
    EXPECT_EQ(ac.inflight(), 1u);
    EXPECT_TRUE(ac.canPromote());
    ac.promoteQueued();
    EXPECT_EQ(ac.inflight(), 2u);
    EXPECT_EQ(ac.queued(), 1u);
    EXPECT_FALSE(ac.canPromote()); // no free slot

    ac.dropQueued(); // its connection died
    EXPECT_EQ(ac.queued(), 0u);
    EXPECT_THROW(ac.dropQueued(), FatalError);
    EXPECT_THROW(ac.promoteQueued(), FatalError);

    ac.release(20);
    ac.release(30);
    EXPECT_THROW(ac.release(40), FatalError); // release without admit
}

TEST(Admission, ProbeUpAdoptsOnThroughputGain)
{
    AdmissionController ac{probeConfig()};
    saturatedFirstWindow(ac);

    // Crossing t=1000 closes window 1: the limit was hit, so probe
    // up by step = round(2 * 0.5) = 1.
    ASSERT_EQ(ac.admit(1000), D::kRun);
    EXPECT_EQ(ac.windowsCompleted(), 1u);
    EXPECT_EQ(ac.limit(), 3u);
    EXPECT_EQ(ac.stateName(), "probe-up");

    // Probe window: 8 completions in [1000, 2000) = 8000/s, beating
    // the stable 5000/s by more than adoptTolerance - adopt.
    ac.release(1100);
    for (std::int64_t t = 1200; t <= 1800; t += 100) {
        ASSERT_EQ(ac.admit(t), D::kRun);
        ac.release(t + 50);
    }
    ASSERT_EQ(ac.admit(2000), D::kRun);
    EXPECT_EQ(ac.windowsCompleted(), 2u);
    EXPECT_EQ(ac.limit(), 3u); // kept: the extra slot earned
    EXPECT_EQ(ac.stateName(), "stable");
    ac.release(2100);
}

TEST(Admission, ProbeUpRevertsWithoutGain)
{
    AdmissionController ac{probeConfig()};
    saturatedFirstWindow(ac);
    ASSERT_EQ(ac.admit(1000), D::kRun);
    EXPECT_EQ(ac.limit(), 3u);
    EXPECT_EQ(ac.stateName(), "probe-up");

    // Probe window: only 3 completions = 3000/s < 5000/s * 1.1 -
    // the backend is saturated, revert to the stable limit.
    ac.release(1100);
    ASSERT_EQ(ac.admit(1200), D::kRun);
    ac.release(1300);
    ASSERT_EQ(ac.admit(1400), D::kRun);
    ac.release(1500);
    ASSERT_EQ(ac.admit(2000), D::kRun);
    EXPECT_EQ(ac.limit(), 2u);
    EXPECT_EQ(ac.stateName(), "stable");
    ac.release(2100);
}

TEST(Admission, ProbeDownAdoptsWhenThroughputHolds)
{
    AdmissionController ac{probeConfig()};

    // Window 1: serial singles - the limit is never hit, so the
    // controller tries one step down.
    for (std::int64_t t = 0; t <= 400; t += 100) {
        ASSERT_EQ(ac.admit(t), D::kRun);
        ac.release(t + 50); // 5 completions by t=450
    }
    ASSERT_EQ(ac.admit(1000), D::kRun);
    EXPECT_EQ(ac.windowsCompleted(), 1u);
    EXPECT_EQ(ac.limit(), 1u);
    EXPECT_EQ(ac.stateName(), "probe-down");

    // Probe window: 5 completions again - same work with fewer
    // slots, so the lower limit sticks.
    ac.release(1100);
    for (std::int64_t t = 1200; t <= 1650; t += 150) {
        ASSERT_EQ(ac.admit(t), D::kRun);
        ac.release(t + 50); // 4 more completions
    }
    ASSERT_EQ(ac.admit(2000), D::kRun);
    EXPECT_EQ(ac.limit(), 1u);
    EXPECT_EQ(ac.stateName(), "stable");
    ac.release(2100);
}

TEST(Admission, ProbeDownRevertsOnThroughputLoss)
{
    AdmissionController ac{probeConfig()};
    for (std::int64_t t = 0; t <= 400; t += 100) {
        ASSERT_EQ(ac.admit(t), D::kRun);
        ac.release(t + 50);
    }
    ASSERT_EQ(ac.admit(1000), D::kRun);
    EXPECT_EQ(ac.limit(), 1u);
    EXPECT_EQ(ac.stateName(), "probe-down");

    // Probe window: throughput halves - those slots were earning,
    // revert.
    ac.release(1100);
    ASSERT_EQ(ac.admit(1300), D::kRun);
    ac.release(1400);
    ASSERT_EQ(ac.admit(2000), D::kRun);
    EXPECT_EQ(ac.limit(), 2u);
    EXPECT_EQ(ac.stateName(), "stable");
    ac.release(2100);
}

/* ------------------------------------------------------------------ */
/* Protocol: strict parsing and round-trip properties.                */
/* ------------------------------------------------------------------ */

/** Compact metrics rendering, captured while the writer is alive (a
 * completed JsonWriter appends a trailing newline on destruction). */
std::string
metricsJsonFor(const dse::PointMetrics &m,
               const std::vector<std::string> &subset)
{
    std::ostringstream out;
    JsonWriter w{out, /*indent=*/0};
    m.writeJson(w, subset);
    return out.str();
}

TEST(Protocol, RequestRoundTripsEachOp)
{
    Request ping;
    ping.id = "p";
    ping.op = Op::kPing;
    EXPECT_EQ(parseRequest(formatRequest(ping), "<t>"), ping);

    Request stats;
    stats.id = "s";
    stats.op = Op::kStats;
    EXPECT_EQ(parseRequest(formatRequest(stats), "<t>"), stats);

    Request down;
    down.id = "d";
    down.op = Op::kShutdown;
    EXPECT_EQ(parseRequest(formatRequest(down), "<t>"), down);

    Request eval;
    eval.id = "e";
    eval.op = Op::kEval;
    eval.point.tempK = 150.0;
    eval.point.workload = "streamcluster";
    eval.metrics = {"perf", "totalPower"};
    EXPECT_EQ(parseRequest(formatRequest(eval), "<t>"), eval);
}

TEST(Protocol, MalformedRequestsThrowTypedErrors)
{
    // Diagnostics that stem from the parse cite line/column; the
    // semantic ones (validate()) name the offending field instead.
    const std::vector<const char *> positional = {
        "",                                        // empty line
        "[1,2]",                                   // not an object
        "{\"op\":\"ping\"}",                       // missing id
        "{\"id\":\"x\"}",                          // missing op
        "{\"id\":7,\"op\":\"ping\"}",              // id wrong kind
        "{\"id\":\"x\",\"op\":\"warp\"}",          // unknown op
        "{\"id\":\"x\",\"op\":\"ping\",\"point\":{}}",   // op mismatch
        "{\"id\":\"x\",\"op\":\"ping\",\"metrics\":[]}", // op mismatch
        "{\"id\":\"x\",\"op\":\"eval\",\"metrics\":[7]}",
        "{\"id\":\"x\",\"op\":\"eval\",\"metrics\":[\"nope\"]}",
        "{\"id\":\"x\",\"op\":\"eval\",\"point\":{\"bogus\":1}}",
        "{\"id\":\"x\",\"op\":\"eval\",\"point\":{\"tempK\":\"c\"}}",
        "{\"id\":\"x\",\"op\":\"eval\",\"extra\":true}",
        "{\"id\":\"x\",\"op\":\"eval\"",           // truncated JSON
    };
    for (const char *line : positional) {
        try {
            parseRequest(line, "<t>");
            FAIL() << "no error for: " << line;
        } catch (const FatalError &e) {
            const std::string msg = e.message();
            EXPECT_TRUE(msg.find("line") != std::string::npos ||
                        msg.find("<t>:1:") != std::string::npos)
                << "no position in \"" << msg << "\" for: " << line;
        }
    }

    // Semantically invalid points are rejected at parse time too
    // (the daemon answers "error", never starting an evaluation).
    EXPECT_THROW(parseRequest("{\"id\":\"x\",\"op\":\"eval\","
                              "\"point\":{\"design\":\"nope\"}}",
                              "<t>"),
                 FatalError);
    EXPECT_THROW(parseRequest("{\"id\":\"x\",\"op\":\"eval\","
                              "\"point\":{\"tempK\":20}}",
                              "<t>"),
                 FatalError);
    EXPECT_THROW(parseRequest("{\"id\":\"\",\"op\":\"ping\"}", "<t>"),
                 FatalError);
}

TEST(Protocol, ReplyParsesEveryFormatter)
{
    Reply r = Reply::parse(formatAck("p1", Op::kPing, 7), "<t>");
    EXPECT_EQ(r.status, "ok");
    EXPECT_EQ(r.op, "ping");
    EXPECT_EQ(r.id, "p1");
    EXPECT_EQ(r.latencyUs, 7);

    r = Reply::parse(formatError(true, "e1", "boom", 3), "<t>");
    EXPECT_EQ(r.status, "error");
    EXPECT_TRUE(r.hasId);
    EXPECT_EQ(r.message, "boom");

    r = Reply::parse(formatError(false, "", "unparsed", 1), "<t>");
    EXPECT_EQ(r.status, "error");
    EXPECT_FALSE(r.hasId);

    try {
        CRYO_CONTEXT("outer frame");
        fatal("inner problem");
    } catch (const FatalError &e) {
        r = Reply::parse(formatFailed("f1", e, 9), "<t>");
        EXPECT_EQ(r.status, "failed");
        EXPECT_EQ(r.id, "f1");
        EXPECT_NE(r.message.find("inner problem"), std::string::npos);
        ASSERT_FALSE(r.context.empty());
        bool sawFrame = false;
        for (const std::string &c : r.context)
            sawFrame = sawFrame ||
                       c.find("outer frame") != std::string::npos;
        EXPECT_TRUE(sawFrame);
    }

    r = Reply::parse(formatOverloaded("o1", 3, 2, 4, 11), "<t>");
    EXPECT_EQ(r.status, "overloaded");
    EXPECT_EQ(r.inflight, 3u);
    EXPECT_EQ(r.queued, 2u);
    EXPECT_EQ(r.limit, 4u);

    Request req;
    req.id = "v1";
    req.op = Op::kEval;
    req.metrics = {"perf", "converged"};
    dse::PointMetrics m;
    m.perf = 1.25;
    m.converged = true;
    r = Reply::parse(formatOkEval(req, "00c0ffee00c0ffee", true, false,
                                  m, 42),
                     "<t>");
    EXPECT_EQ(r.status, "ok");
    EXPECT_EQ(r.op, "eval");
    EXPECT_EQ(r.hash, "00c0ffee00c0ffee");
    EXPECT_TRUE(r.cached);
    EXPECT_FALSE(r.deduped);
    EXPECT_EQ(r.metricsJson, metricsJsonFor(m, req.metrics));

    EXPECT_THROW(Reply::parse("{\"status\":\"ok\"", "<t>"), FatalError);
    EXPECT_THROW(Reply::parse("{\"status\":\"odd\"}", "<t>"),
                 FatalError);
}

/** A random but always-valid request (grid-valued doubles so the
 * JSON number rendering round-trips exactly). */
Request
randomValidRequest(Rng &rng, std::size_t i)
{
    Request r;
    r.id = "c" + std::to_string(i);
    switch (rng.below(4)) {
    case 0:
        r.op = Op::kEval;
        break;
    case 1:
        r.op = Op::kPing;
        break;
    case 2:
        r.op = Op::kStats;
        break;
    default:
        r.op = Op::kShutdown;
        break;
    }
    if (r.op != Op::kEval)
        return r;
    if (rng.chance(0.7))
        r.point.tempK =
            77.0 + 0.5 * static_cast<double>(rng.below(447));
    if (rng.chance(0.4))
        r.point.cores = static_cast<int>(2 + rng.below(127));
    if (rng.chance(0.4))
        r.point.busWays = static_cast<int>(1 + rng.below(8));
    if (rng.chance(0.3))
        r.point.floorplanScale =
            0.25 * static_cast<double>(1 + rng.below(16));
    if (rng.chance(0.5))
        r.point.workload = "streamcluster";
    if (rng.chance(0.3))
        r.point.thickWire = true;
    if (rng.chance(0.4))
        r.point.seed = rng.below(1u << 30);
    for (const std::string &m : dse::PointMetrics::metricNames())
        if (rng.chance(0.4))
            r.metrics.push_back(m);
    return r;
}

TEST(Protocol, PropertyRoundTripCorpus)
{
    Rng rng{0x5eedC0FFEEull};
    for (std::size_t i = 0; i < 200; ++i) {
        const Request r = randomValidRequest(rng, i);
        const std::string line = formatRequest(r);

        // Round trip: format -> parse is the identity.
        EXPECT_EQ(parseRequest(line, "<corpus>"), r) << line;

        // Every truncation of a valid line is a typed error - the
        // parser never crashes, loops, or silently accepts.
        const std::size_t cut =
            1 + rng.below(static_cast<std::uint64_t>(line.size() - 1));
        try {
            parseRequest(line.substr(0, cut), "<corpus>");
            FAIL() << "truncation accepted: " << line.substr(0, cut);
        } catch (const FatalError &e) {
            EXPECT_FALSE(std::string(e.message()).empty());
        }

        // So is a single corrupted byte wherever it breaks the JSON
        // or the schema; when it happens to keep both intact, the
        // line must still parse to *some* request without crashing.
        std::string bent = line;
        bent[rng.below(bent.size())] =
            static_cast<char>('!' + rng.below(90));
        try {
            (void)parseRequest(bent, "<corpus>");
        } catch (const FatalError &e) {
            EXPECT_FALSE(std::string(e.message()).empty());
        }
    }
}

/* ------------------------------------------------------------------ */
/* Live-server harness.                                               */
/* ------------------------------------------------------------------ */

/** The tests talk to the daemon through the real client library, so
 * its connect / send / read paths are exercised by every server test
 * (retry-specific behavior gets dedicated tests in test_chaos.cc). */
using svc::Client;

/**
 * A request id: @p tag, then @p n. Built by appending: GCC 12 at -O3
 * inlines `"d" + std::to_string(n)` into a -Wrestrict false positive
 * (GCC bug 105651), which fails the Release -Werror build.
 */
std::string
requestId(const char *tag, std::size_t n)
{
    std::string id{tag};
    id += std::to_string(n);
    return id;
}

/** The differential corpus: 8 distinct points x 4 metric subsets,
 * 200 requests, shuffled deterministically. */
struct DiffCorpus
{
    std::vector<dse::DesignPoint> pool;
    std::vector<std::vector<std::string>> subsets;
    std::vector<std::size_t> order; ///< shuffled base indices

    std::size_t poolIndex(std::size_t base) const { return base % 8; }
    std::size_t subsetIndex(std::size_t base) const { return base % 4; }

    Request request(std::size_t base) const
    {
        Request r;
        r.id = requestId("d", base);
        r.op = Op::kEval;
        r.point = pool[poolIndex(base)];
        r.metrics = subsets[subsetIndex(base)];
        return r;
    }
};

DiffCorpus
diffCorpus()
{
    DiffCorpus c;
    for (int i = 0; i < 8; ++i) {
        dse::DesignPoint p;
        p.workload = "streamcluster";
        p.tempK = 77.0 + 9.0 * i;
        c.pool.push_back(p);
    }
    c.subsets = {
        {},
        {"perf"},
        {"perf", "totalPower"},
        {"converged", "utilization"}, // canonical order regardless
    };
    c.order.resize(200);
    std::iota(c.order.begin(), c.order.end(), std::size_t{0});
    Rng rng{0xD1FFull};
    for (std::size_t i = c.order.size(); i > 1; --i)
        std::swap(c.order[i - 1], c.order[rng.below(i)]);
    return c;
}

/** What a direct PointEvaluator says each request must answer. */
std::vector<std::string>
expectedReplies(const DiffCorpus &c)
{
    const dse::PointEvaluator direct;
    std::vector<dse::PointMetrics> metrics;
    for (const dse::DesignPoint &p : c.pool)
        metrics.push_back(direct.evaluate(p));
    std::vector<std::string> want(200);
    for (std::size_t base = 0; base < want.size(); ++base)
        want[base] = metricsJsonFor(metrics[c.poolIndex(base)],
                                    c.subsets[c.subsetIndex(base)]);
    return want;
}

/* ------------------------------------------------------------------ */
/* Differential: the daemon vs a direct PointEvaluator.               */
/* ------------------------------------------------------------------ */

TEST(SvcDifferential, ColdAndWarmCacheMatchDirectEvaluator)
{
    const DiffCorpus corpus = diffCorpus();
    const std::vector<std::string> want = expectedReplies(corpus);
    const std::string cachePath = "t_svc_diff_cache.jsonl";
    std::remove(cachePath.c_str());

    // Cold run, single pool worker: sequential round trips in
    // shuffled order; the first sight of each point misses, every
    // repeat hits the cache, and all 200 replies carry exactly the
    // direct evaluator's bytes.
    {
        ServerConfig cfg;
        cfg.socketPath = "t_svc_diff_cold.sock";
        cfg.cachePath = cachePath;
        Server server{cfg};
        server.start();

        Client client{cfg.socketPath};
        std::set<std::size_t> seen;
        for (const std::size_t base : corpus.order) {
            const Request req = corpus.request(base);
            const Reply r = client.call(req);
            ASSERT_EQ(r.status, "ok") << r.message;
            EXPECT_EQ(r.id, req.id);
            EXPECT_EQ(r.op, "eval");
            EXPECT_EQ(r.hash, req.point.hashHex());
            EXPECT_EQ(r.metricsJson, want[base]) << req.id;
            EXPECT_GE(r.latencyUs, 0);
            const bool first =
                seen.insert(corpus.poolIndex(base)).second;
            EXPECT_EQ(r.cached, !first) << req.id;
            EXPECT_FALSE(r.deduped);
        }

        EXPECT_EQ(server.evaluator().evaluations(), 8u);
        server.stop();
        const SvcCounters c = server.serverStats().counters();
        EXPECT_EQ(c.received, 200u);
        EXPECT_EQ(c.replied, 200u);
        EXPECT_EQ(c.ok, 200u);
        EXPECT_EQ(c.cacheHits, 192u);
        EXPECT_EQ(server.serverStats().latency().total(), 200u);
    }

    // Warm run: a fresh daemon loads the cache file and answers all
    // 200 requests from it - zero evaluations, identical bytes.
    {
        ServerConfig cfg;
        cfg.socketPath = "t_svc_diff_warm.sock";
        cfg.cachePath = cachePath;
        Server server{cfg};
        server.start();
        EXPECT_EQ(server.cache().loadedEntries(), 8u);

        Client client{cfg.socketPath};
        for (const std::size_t base : corpus.order) {
            const Reply r = client.call(corpus.request(base));
            ASSERT_EQ(r.status, "ok") << r.message;
            EXPECT_TRUE(r.cached);
            EXPECT_EQ(r.metricsJson, want[base]);
        }
        EXPECT_EQ(server.evaluator().evaluations(), 0u);
    }

    std::remove(cachePath.c_str());
}

TEST(SvcDifferential, PipelinedEightWorkersDedupeInFlight)
{
    const DiffCorpus corpus = diffCorpus();
    const std::vector<std::string> want = expectedReplies(corpus);

    ServerConfig cfg;
    cfg.socketPath = "t_svc_diff_pipe.sock";
    cfg.evalThreads = 8;
    cfg.admission.initialConcurrency = 8;
    cfg.admission.maxQueue = 256; // hold the whole burst, no shed
    Server server{cfg};
    server.start();

    // All 200 requests land in one write; replies complete out of
    // order, so match them back by id.
    Client client{cfg.socketPath};
    std::string burst;
    for (const std::size_t base : corpus.order)
        burst += formatRequest(corpus.request(base)) + "\n";
    client.sendRaw(burst);

    std::map<std::string, Reply> byId;
    for (std::size_t i = 0; i < corpus.order.size(); ++i) {
        const Reply r = client.read();
        ASSERT_EQ(r.status, "ok") << r.message;
        EXPECT_TRUE(byId.emplace(r.id, r).second)
            << "duplicate reply for " << r.id;
    }

    for (std::size_t base = 0; base < 200; ++base) {
        const auto it = byId.find(requestId("d", base));
        ASSERT_NE(it, byId.end());
        EXPECT_EQ(it->second.metricsJson, want[base]);
    }

    // In-flight dedupe holds under full concurrency: 8 distinct
    // points evaluate exactly 8 times; every duplicate either hit
    // the cache or joined an in-flight twin.
    EXPECT_EQ(server.evaluator().evaluations(), 8u);
    server.stop();
    const SvcCounters c = server.serverStats().counters();
    EXPECT_EQ(c.ok, 200u);
    EXPECT_EQ(c.evaluated + c.cacheHits + c.deduped, 200u);
    EXPECT_EQ(c.overloaded, 0u);
}

/* ------------------------------------------------------------------ */
/* One session through every request kind, with exact counters.       */
/* ------------------------------------------------------------------ */

TEST(SvcSession, PingEvalErrorsAndClientShutdown)
{
    ServerConfig cfg;
    cfg.socketPath = "t_svc_session.sock";
    Server server{cfg};
    server.start();
    {
        Client client{cfg.socketPath};
        const auto send = [&client](const std::string &line) {
            client.send(line);
            return client.read();
        };
        Request req;
        req.id = "p1";
        req.op = Op::kPing;
        Reply r = send(formatRequest(req));
        EXPECT_EQ(r.status + " " + r.op + " " + r.id, "ok ping p1");

        // A cheap evaluation misses the cache; its repeat hits it.
        req.op = Op::kEval;
        req.point.workload = "streamcluster";
        req.metrics = {"perf", "totalPower"};
        r = send(formatRequest(req));
        EXPECT_EQ(r.status, "ok") << r.message;
        EXPECT_FALSE(r.cached);
        EXPECT_TRUE(send(formatRequest(req)).cached);

        // Malformed JSON earns a typed error citing its position; an
        // unknown design fails at parse time, before any evaluation.
        r = send("{\"id\":\"x1\",");
        EXPECT_EQ(r.status, "error");
        EXPECT_NE(r.message.find("<request>:1:"), std::string::npos);
        EXPECT_EQ(send("{\"id\":\"x2\",\"op\":\"eval\",\"point\":"
                       "{\"design\":\"not-a-design\"}}")
                      .status,
                  "error");

        req.op = Op::kShutdown;
        r = send(formatRequest(req));
        EXPECT_EQ(r.status + " " + r.op, "ok shutdown");
    }
    EXPECT_TRUE(server.waitShutdown(2000));
    server.stop();

    const SvcCounters c = server.serverStats().counters();
    EXPECT_EQ(c.received, 6u);
    EXPECT_EQ(c.replied, 6u);
    EXPECT_EQ(c.ok, 4u);
    EXPECT_EQ(c.errors, 2u);
    EXPECT_EQ(c.evaluated, 1u);
    EXPECT_EQ(c.cacheHits, 1u);
}

TEST(SvcSession, MosfetAlphaTwoIsATypedErrorBeforeEvaluation)
{
    // MosfetParams takes alpha in [0, 2). A point with alpha 2 is
    // refused while the request is parsed, citing the value's
    // position, rather than failing in the evaluator.
    ServerConfig cfg;
    cfg.socketPath = "t_svc_alpha.sock";
    Server server{cfg};
    server.start();
    {
        Client client{cfg.socketPath};
        client.send("{\"id\":\"a2\",\"op\":\"eval\",\"point\":"
                    "{\"workload\":\"streamcluster\",\"mosfetAlpha\":2}}");
        const Reply r = client.read();
        EXPECT_EQ(r.status + " " + r.id, "error a2");
        EXPECT_NE(r.message.find("column 74"), std::string::npos)
            << r.message;
        EXPECT_NE(r.message.find("mosfetAlpha must lie in (0, 2)"),
                  std::string::npos)
            << r.message;
    }
    server.stop();
    const SvcCounters c = server.serverStats().counters();
    EXPECT_EQ(c.errors, 1u);
    EXPECT_EQ(c.failed, 0u);
    EXPECT_EQ(c.evaluated, 0u);
}

/* ------------------------------------------------------------------ */
/* Fault injection.                                                   */
/* ------------------------------------------------------------------ */

TEST(SvcFault, EvaluatorFailureIsTypedAndContained)
{
    ServerConfig cfg;
    cfg.socketPath = "t_svc_fault.sock";
    Server server{cfg};
    server.start();
    Client client{cfg.socketPath};

    // A workload name only the evaluator can reject (validate() has
    // no workload list), pipelined between two healthy requests.
    Request bad;
    bad.id = "f1";
    bad.op = Op::kEval;
    bad.point.workload = "no-such-workload";
    Request good1;
    good1.id = "v1";
    good1.op = Op::kEval;
    good1.point.workload = "streamcluster";
    Request good2 = good1;
    good2.id = "v2";
    good2.point.tempK = 200.0;

    client.sendRaw(formatRequest(good1) + "\n" + formatRequest(bad) +
                   "\n" + formatRequest(good2) + "\n");
    std::map<std::string, Reply> byId;
    for (int i = 0; i < 3; ++i) {
        const Reply r = client.read();
        byId.emplace(r.id, r);
    }

    ASSERT_EQ(byId.count("f1"), 1u);
    const Reply &f = byId.at("f1");
    EXPECT_EQ(f.status, "failed");
    EXPECT_NE(f.message.find("unknown workload"), std::string::npos);
    ASSERT_FALSE(f.context.empty()); // the CRYO_CONTEXT chain
    bool named = false;
    for (const std::string &c : f.context)
        named = named || c.find("f1") != std::string::npos;
    EXPECT_TRUE(named);

    // The siblings completed, and the daemon is still serving.
    EXPECT_EQ(byId.at("v1").status, "ok");
    EXPECT_EQ(byId.at("v2").status, "ok");
    Request ping;
    ping.id = "p1";
    ping.op = Op::kPing;
    EXPECT_EQ(client.call(ping).status, "ok");

    server.stop();
    const SvcCounters c = server.serverStats().counters();
    EXPECT_EQ(c.failed, 1u);
    EXPECT_EQ(c.ok, 3u);
    EXPECT_EQ(c.replied, 4u);
}

TEST(SvcFault, UnwritableCacheDegradesToMemoryOnly)
{
    // A directory is a path the cache can neither load nor append
    // to - the portable "read-only cache" fault while running as a
    // user who ignores file modes.
    const std::string dir = "t_svc_cache_dir";
    std::filesystem::create_directories(dir);

    ServerConfig cfg;
    cfg.socketPath = "t_svc_rocache.sock";
    cfg.cachePath = dir;
    {
        Server server{cfg}; // tolerateReadOnlyCache default: warn
        server.start();
        EXPECT_FALSE(server.cache().writable());

        Client client{cfg.socketPath};
        Request eval;
        eval.id = "e1";
        eval.op = Op::kEval;
        eval.point.workload = "streamcluster";
        eval.metrics = {"perf"};
        Reply r = client.call(eval);
        EXPECT_EQ(r.status, "ok") << r.message;
        EXPECT_FALSE(r.cached);

        eval.id = "e2"; // the in-memory tier still dedupes repeats
        r = client.call(eval);
        EXPECT_EQ(r.status, "ok") << r.message;
        EXPECT_TRUE(r.cached);
    }

    cfg.socketPath = "t_svc_rocache2.sock";
    cfg.tolerateReadOnlyCache = false;
    EXPECT_THROW(Server{cfg}, FatalError);
    std::filesystem::remove_all(dir);
}

TEST(SvcFault, OverlongRequestLineGetsTypedErrorThenDisconnect)
{
    ServerConfig cfg;
    cfg.socketPath = "t_svc_overlong.sock";
    cfg.maxLineBytes = 256;
    Server server{cfg};
    server.start();

    // A request longer than the server's line cap: framing is lost,
    // so the server must say why (a typed error reply) and drop the
    // connection rather than scan forever or buffer unboundedly.
    {
        Client client{cfg.socketPath};
        client.sendRaw(std::string(1024, 'x') + "\n");
        const Reply r = client.read();
        EXPECT_EQ(r.status, "error");
        EXPECT_NE(r.message.find("exceeds"), std::string::npos);
        EXPECT_NE(r.message.find("256"), std::string::npos);
        // The connection is gone; the client's next read sees EOF.
        EXPECT_THROW(client.read(), FatalError);
    }

    // The daemon itself is unharmed: a fresh connection works.
    Client again{cfg.socketPath};
    Request ping;
    ping.id = "p1";
    ping.op = Op::kPing;
    EXPECT_EQ(again.call(ping).status, "ok");

    server.stop();
    const SvcCounters c = server.serverStats().counters();
    EXPECT_EQ(c.errors, 1u);
}

TEST(Protocol, DeadlineRoundTripsAndExpiredReplyParses)
{
    Request r;
    r.id = "q1";
    r.op = Op::kEval;
    r.point.workload = "streamcluster";
    r.deadlineMs = 250;
    const Request back = parseRequest(formatRequest(r), "<rt>");
    EXPECT_EQ(back, r);
    EXPECT_EQ(back.deadlineMs, 250);

    // deadline_ms must be non-negative and eval-only.
    EXPECT_THROW(parseRequest(R"({"id":"q2","op":"eval",)"
                              R"("deadline_ms":-1})",
                              "<bad>"),
                 FatalError);
    EXPECT_THROW(parseRequest(R"({"id":"q3","op":"ping",)"
                              R"("deadline_ms":5})",
                              "<bad>"),
                 FatalError);

    const Reply rep =
        Reply::parse(formatExpired("q1", 250, 1234), "<reply>");
    EXPECT_EQ(rep.status, "expired");
    EXPECT_EQ(rep.id, "q1");
    EXPECT_EQ(rep.deadlineMs, 250);
    EXPECT_EQ(rep.latencyUs, 1234);
}

/* ------------------------------------------------------------------ */
/* Overload shedding.                                                 */
/* ------------------------------------------------------------------ */

TEST(SvcOverload, ShedsBeyondTheBoundedQueue)
{
    ServerConfig cfg;
    cfg.socketPath = "t_svc_overload.sock";
    cfg.admission.minConcurrency = 1;
    cfg.admission.maxConcurrency = 1; // pin the limit: no probing
    cfg.admission.initialConcurrency = 1;
    cfg.admission.maxQueue = 2;
    cfg.admission.probeWindowUs = 3'600'000'000; // never in this test
    Server server{cfg};
    server.start();
    Client client{cfg.socketPath};

    // 12 distinct (uncached) evaluations arrive in one write against
    // one slot and two queue places: the excess must shed, and the
    // queue depth must never exceed its bound.
    std::string burst;
    for (int i = 0; i < 12; ++i) {
        Request r;
        r.id = requestId("o", static_cast<std::size_t>(i));
        r.op = Op::kEval;
        r.point.workload = "streamcluster";
        r.point.tempK = 150.0 + 10.0 * i;
        burst += formatRequest(r) + "\n";
    }
    client.sendRaw(burst);

    std::size_t ok = 0;
    std::size_t overloaded = 0;
    for (int i = 0; i < 12; ++i) {
        const Reply r = client.read();
        if (r.status == "ok") {
            ++ok;
        } else {
            ASSERT_EQ(r.status, "overloaded") << r.message;
            ++overloaded;
            EXPECT_EQ(r.limit, 1u);
            EXPECT_LE(r.queued, 2u);
        }
    }
    EXPECT_EQ(ok + overloaded, 12u);
    EXPECT_GE(overloaded, 1u);
    EXPECT_GE(ok, 1u);

    server.stop();
    const SvcCounters c = server.serverStats().counters();
    EXPECT_EQ(c.replied, 12u);
    EXPECT_EQ(c.overloaded, overloaded);
    EXPECT_LE(c.queuedPeak, 2u);
    EXPECT_LE(c.inflightPeak, 1u);
    EXPECT_EQ(server.serverStats().latency().total(), 12u);
}

/* ------------------------------------------------------------------ */
/* Stress/soak: concurrent clients, exactly one reply per request.    */
/* ------------------------------------------------------------------ */

TEST(SvcStress, SoakKeepsOneReplyPerRequest)
{
    constexpr std::size_t kThreads = 4;
    constexpr std::size_t kPerThread = 40;

    ServerConfig cfg;
    cfg.socketPath = "t_svc_soak.sock";
    cfg.evalThreads = 4;
    Server server{cfg};
    server.start();

    std::vector<dse::DesignPoint> pool;
    for (int i = 0; i < 4; ++i) {
        dse::DesignPoint p;
        p.workload = "streamcluster";
        p.tempK = 250.0 + 10.0 * i;
        pool.push_back(p);
    }

    struct ThreadTally
    {
        std::size_t replies = 0;
        std::size_t ok = 0;
        std::size_t errors = 0;
        std::size_t overloaded = 0;
        std::size_t failed = 0;
    };
    std::vector<ThreadTally> tallies(kThreads);

    // Each client pipelines its whole batch - valid evaluations from
    // a small shared pool plus deliberately broken lines - then
    // reads exactly as many replies as it issued.
    const auto clientBody = [&](std::size_t tid) {
        Client client{cfg.socketPath};
        std::string burst;
        for (std::size_t j = 0; j < kPerThread; ++j) {
            if (j % 10 == 7) {
                burst += "{\"op\":"; // malformed on purpose
                burst += "\n";
                continue;
            }
            Request r;
            r.id = requestId("t", tid);
            r.id += '-';
            r.id += std::to_string(j);
            r.op = Op::kEval;
            r.point = pool[(tid + j) % pool.size()];
            if (j % 3 == 0)
                r.metrics = {"perf", "totalPower"};
            burst += formatRequest(r) + "\n";
        }
        client.sendRaw(burst);
        ThreadTally &tally = tallies[tid];
        for (std::size_t j = 0; j < kPerThread; ++j) {
            const Reply r = client.read();
            ++tally.replies;
            if (r.status == "ok")
                ++tally.ok;
            else if (r.status == "error")
                ++tally.errors;
            else if (r.status == "overloaded")
                ++tally.overloaded;
            else
                ++tally.failed;
        }
    };

    std::vector<std::thread> clients;
    for (std::size_t tid = 0; tid < kThreads; ++tid)
        clients.emplace_back(clientBody, tid);
    for (std::thread &t : clients)
        t.join();

    ThreadTally sum;
    for (const ThreadTally &t : tallies) {
        EXPECT_EQ(t.replies, kPerThread);
        sum.replies += t.replies;
        sum.ok += t.ok;
        sum.errors += t.errors;
        sum.overloaded += t.overloaded;
        sum.failed += t.failed;
    }
    const std::size_t total = kThreads * kPerThread;
    EXPECT_EQ(sum.replies, total);
    EXPECT_EQ(sum.errors, kThreads * 4); // the j%10==7 lines
    EXPECT_EQ(sum.failed, 0u);
    EXPECT_EQ(sum.ok + sum.overloaded + sum.errors, total);

    // Four distinct points: the cache/dedupe front end evaluates
    // each exactly once no matter how the clients interleave.
    EXPECT_EQ(server.evaluator().evaluations(), pool.size());

    server.stop();
    const SvcCounters c = server.serverStats().counters();
    EXPECT_EQ(c.received, total);
    EXPECT_EQ(c.replied, total);
    EXPECT_EQ(c.connections, kThreads);
    EXPECT_EQ(c.ok, sum.ok);
    EXPECT_EQ(c.errors, sum.errors);
    EXPECT_EQ(c.overloaded, sum.overloaded);
    EXPECT_EQ(server.serverStats().latency().total(), total);
}

} // namespace
