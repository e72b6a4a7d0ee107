/**
 * @file
 * serve-mixed: an in-process svc::Server driven open-loop at a fixed
 * 4,000 req/s over two svc::Client connections. Each request is timed
 * from the instant it was due, so a stall also charges the requests
 * queued behind it. The mix (~70% pre-loaded points, ~25% fresh, ~5%
 * identical pairs sent on both connections at once) walks all three
 * CachedEvaluator tiers. The rate sits under a tenth of the measured
 * closed-loop capacity, so the run stays off the shedding path.
 */

#include <atomic>
#include <cmath>
#include <filesystem>
#include <limits>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include "common.hh"
#include "dse/result_cache.hh"
#include "inputs.hh"
#include "svc/client.hh"
#include "svc/protocol.hh"
#include "svc/server.hh"
#include "trace.hh"
#include "util/parallel.hh"
#include "util/socket.hh"

namespace perfbench
{

namespace
{

using namespace cryo;
namespace fs = std::filesystem;

constexpr int kConnections = 2;
constexpr int kEvalThreads = 2;
constexpr double kInf = std::numeric_limits<double>::infinity();

/** The inputs plus what every point must evaluate to. */
struct ServeInputs
{
    ServePlan plan;
    std::vector<dse::PointMetrics> metrics;
    std::vector<std::string> metricsJson;
    /** Requests in send order: (slot, connection). */
    std::vector<std::pair<std::size_t, int>> requests;
    std::vector<std::string> lines; ///< request line per request
};

std::string
compactMetrics(const dse::PointMetrics &m)
{
    std::ostringstream out;
    JsonWriter w{out, /*indent=*/0};
    m.writeJson(w);
    return out.str();
}

ServeInputs
makeInputs(const RunConfig &cfg, const std::string &pristineCache)
{
    ServeInputs in;
    ServeShape shape;
    shape.seconds = cfg.seconds;
    shape.connections = kConnections;
    in.plan = makeServePlan(cfg.seed, shape);

    // The reference every ok reply must match, computed directly
    // before anything is timed.
    const dse::PointEvaluator direct;
    in.metrics = parallelMap(
        in.plan.points.size(),
        [&](std::size_t i) { return direct.evaluate(in.plan.points[i]); },
        ParallelOptions{kEvalThreads, 0});
    in.metricsJson.reserve(in.metrics.size());
    for (const dse::PointMetrics &m : in.metrics)
        in.metricsJson.push_back(compactMetrics(m));
    {
        fs::remove(pristineCache);
        dse::ResultCache cache{pristineCache};
        for (std::size_t i = 0; i < in.plan.preloaded; ++i)
            cache.store(in.plan.points[i].hashHex(), in.metrics[i]);
    }

    for (std::size_t s = 0; s < in.plan.slots.size(); ++s) {
        const Slot &slot = in.plan.slots[s];
        if (slot.kind == SlotKind::kPair) {
            for (int c = 0; c < kConnections; ++c)
                in.requests.emplace_back(s, c);
        } else {
            in.requests.emplace_back(s, slot.conn);
        }
    }
    for (std::size_t r = 0; r < in.requests.size(); ++r) {
        svc::Request req;
        req.id = 'r' + std::to_string(r);
        req.op = svc::Op::kEval;
        req.point = in.plan.points[in.plan.slots[in.requests[r].first].point];
        in.lines.push_back(svc::formatRequest(req));
    }
    return in;
}

/** What came back for one request. */
struct ReplySeen
{
    int replies = 0;
    std::int64_t sentNs = 0;
    std::int64_t recvNs = 0;
    std::string status;
    std::string canonical; ///< status, hash, metrics: the compared bytes
    std::int64_t serverUs = 0;
    bool cached = false;
    bool deduped = false;
    bool mismatch = false;
    std::string raw;
};

struct Phase
{
    double wallS = 0.0;
    double serverCpuS = 0.0;
    double setupS = 0.0;
    std::vector<ReplySeen> seen;
    std::int64_t epochNs = 0;
    std::uint64_t evaluations = 0;
    svc::SvcCounters counters;
};

/** Server start (cache load included) plus both client connects. */
struct Live
{
    std::unique_ptr<svc::Server> server;
    std::vector<std::unique_ptr<svc::Client>> clients;
};

Live
startLive(const std::string &dir)
{
    Live live;
    svc::ServerConfig sc;
    sc.socketPath = dir + "/serve.sock";
    sc.cachePath = dir + "/cache.jsonl";
    sc.evalThreads = kEvalThreads;
    // The daemon's --min-concurrency and --max-queue: never fewer
    // admission slots than eval workers, and a queue deep enough to
    // ride out the 10-25 ms host stalls seen on small VMs (at the
    // default 64 such a stall sheds requests at 4 req/ms).
    sc.admission.minConcurrency = kEvalThreads;
    sc.admission.maxQueue = 4096;
    live.server = std::make_unique<svc::Server>(sc);
    live.server->start();
    for (int c = 0; c < kConnections; ++c) {
        svc::ClientConfig cc;
        cc.socketPath = sc.socketPath;
        cc.connectAttempts = 5;
        live.clients.push_back(std::make_unique<svc::Client>(cc));
    }
    return live;
}

void
freshCache(const std::string &dir, const std::string &pristineCache)
{
    fs::remove_all(dir);
    fs::create_directories(dir);
    fs::copy_file(pristineCache, dir + "/cache.jsonl");
}

/** Set up once more on a fresh copy of the cache; returns seconds. */
double
restart(Live &live, const std::string &dir,
        const std::string &pristineCache)
{
    live.clients.clear();
    live.server.reset();
    freshCache(dir, pristineCache);
    const std::int64_t t0 = nowNs();
    live = startLive(dir);
    return secondsBetween(t0, nowNs());
}

/**
 * One open-loop pass over the plan on a fresh server. Setup is
 * sampled three times before the pass (the last instance serves it)
 * and @p setupsAfter more times after it. @p keepReplies keeps each
 * reply's bytes for the traced/untraced comparison and the replay.
 */
Phase
runPhase(const ServeInputs &in, const std::string &dir,
         const std::string &pristineCache, int setupsAfter,
         bool keepReplies)
{
    Phase ph;
    std::vector<double> setups;
    Live live;
    for (int rep = 0; rep < 3; ++rep)
        setups.push_back(restart(live, dir, pristineCache));

    ph.seen.resize(in.requests.size());
    std::vector<std::vector<std::size_t>> mine(kConnections);
    for (std::size_t r = 0; r < in.requests.size(); ++r)
        mine[static_cast<std::size_t>(in.requests[r].second)].push_back(r);

    Tracer *tracer = Tracer::active();
    std::vector<std::atomic<std::size_t>> got(kConnections);
    std::mutex cpuMu;
    double generatorCpuS = 0.0;
    const auto addGeneratorCpu = [&](double s) {
        std::lock_guard<std::mutex> lock(cpuMu);
        generatorCpuS += s;
    };

    const double cpu0 = processCpuSeconds();
    const auto epoch =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(50);
    ph.epochNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     epoch.time_since_epoch())
                     .count();
    std::vector<std::thread> threads;
    for (int c = 0; c < kConnections; ++c) {
        const int fd = live.clients[static_cast<std::size_t>(c)]->fd();
        const std::vector<std::size_t> *list =
            &mine[static_cast<std::size_t>(c)];
        threads.emplace_back([&, fd, list] {
            const double cpuStart = threadCpuSeconds();
            for (std::size_t r : *list) {
                const Slot &slot = in.plan.slots[in.requests[r].first];
                std::this_thread::sleep_until(
                    epoch + std::chrono::microseconds(slot.dueUs));
                ph.seen[r].sentNs = nowNs();
                if (!sendAll(fd, in.lines[r] + "\n"))
                    break;
            }
            addGeneratorCpu(threadCpuSeconds() - cpuStart);
        });
        threads.emplace_back([&, c, fd, list, keepReplies] {
            const double cpuStart = threadCpuSeconds();
            LineReader reader{fd};
            std::string line;
            std::atomic<std::size_t> &mineGot =
                got[static_cast<std::size_t>(c)];
            while (mineGot.load() < list->size() &&
                   reader.next(&line) == LineReader::Status::kLine) {
                const std::int64_t recv = nowNs();
                mineGot.fetch_add(1);
                svc::Reply rep;
                std::size_t r = ph.seen.size();
                try {
                    rep = svc::Reply::parse(line, "<reply>");
                    if (rep.hasId && rep.id.size() > 1 && rep.id[0] == 'r')
                        r = std::stoul(rep.id.substr(1));
                } catch (const std::exception &) {
                    // Unattributable: its request stays unanswered.
                }
                if (r >= ph.seen.size())
                    continue;
                ReplySeen &s = ph.seen[r];
                ++s.replies;
                s.recvNs = recv;
                s.status = rep.status;
                s.serverUs = rep.latencyUs;
                s.cached = rep.cached;
                s.deduped = rep.deduped;
                const std::size_t point =
                    in.plan.slots[in.requests[r].first].point;
                s.mismatch = rep.status == "ok" &&
                    rep.metricsJson != in.metricsJson[point];
                if (keepReplies) {
                    s.canonical = rep.status + " " + rep.hash + " " +
                        rep.metricsJson;
                    s.raw = line;
                }
                if (tracer != nullptr) {
                    Tracer::Span span;
                    span.name = "svc.request";
                    span.layer = "svc";
                    span.startNs =
                        ph.epochNs +
                        in.plan.slots[in.requests[r].first].dueUs * 1000;
                    span.endNs = recv;
                    span.id = tracer->nextId();
                    span.tid = threadIndex();
                    span.req = rep.id;
                    tracer->record(std::move(span));
                }
            }
            addGeneratorCpu(threadCpuSeconds() - cpuStart);
        });
    }
    // Senders are the even threads; once they are done, give the tail
    // a bounded grace period, then unblock any reader still waiting.
    for (std::size_t t = 0; t < threads.size(); t += 2)
        threads[t].join();
    const std::int64_t graceEnd = nowNs() + 30'000'000'000;
    for (;;) {
        std::size_t replies = 0;
        for (const std::atomic<std::size_t> &g : got)
            replies += g.load();
        if (replies >= ph.seen.size() || nowNs() > graceEnd)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    for (const auto &client : live.clients)
        shutdownRead(client->fd());
    for (std::size_t t = 1; t < threads.size(); t += 2)
        threads[t].join();

    std::int64_t last = ph.epochNs;
    for (const ReplySeen &s : ph.seen)
        last = std::max(last, s.recvNs);
    ph.wallS = secondsBetween(ph.epochNs, last);
    ph.serverCpuS = processCpuSeconds() - cpu0 - generatorCpuS;

    live.clients.clear();
    live.server->stop();
    ph.evaluations = live.server->evaluator().evaluations();
    ph.counters = live.server->serverStats().counters();
    for (int rep = 0; rep < setupsAfter; ++rep)
        setups.push_back(restart(live, dir, pristineCache));
    ph.setupS = median(setups);
    return ph;
}

/** Client latency [ms] per request from its due time; a request
 * without exactly one ok reply misses every limit. */
std::vector<double>
latenciesMs(const ServeInputs &in, const Phase &ph)
{
    std::vector<double> ms;
    ms.reserve(ph.seen.size());
    for (std::size_t r = 0; r < ph.seen.size(); ++r) {
        const ReplySeen &s = ph.seen[r];
        if (s.replies != 1 || s.status != "ok" || s.mismatch) {
            ms.push_back(kInf);
            continue;
        }
        const std::int64_t due =
            ph.epochNs + in.plan.slots[in.requests[r].first].dueUs * 1000;
        ms.push_back(static_cast<double>(s.recvNs - due) * 1e-6);
    }
    return ms;
}

/** How late [ms] the generator sent each request after its due time. */
std::vector<double>
generatorLateMs(const ServeInputs &in, const Phase &ph)
{
    std::vector<double> ms;
    ms.reserve(ph.seen.size());
    for (std::size_t r = 0; r < ph.seen.size(); ++r) {
        const std::int64_t due =
            ph.epochNs + in.plan.slots[in.requests[r].first].dueUs * 1000;
        if (ph.seen[r].sentNs != 0)
            ms.push_back(static_cast<double>(ph.seen[r].sentNs - due) *
                         1e-6);
    }
    return ms;
}

void
checkPhase(const Phase &ph, Outcome &out)
{
    std::uint64_t missing = 0, extra = 0, notOk = 0, mismatched = 0;
    for (const ReplySeen &s : ph.seen) {
        missing += s.replies == 0 ? 1 : 0;
        extra += s.replies > 1 ? 1 : 0;
        notOk += s.replies == 1 && s.status != "ok" ? 1 : 0;
        mismatched += s.mismatch ? 1 : 0;
    }
    out.attempted += ph.seen.size();
    out.check(missing == 0 && extra == 0,
              std::to_string(missing) + " request(s) without a reply, " +
                  std::to_string(extra) + " with several",
              missing + extra);
    std::map<std::string, std::uint64_t> byStatus;
    for (const ReplySeen &s : ph.seen)
        if (s.replies == 1 && s.status != "ok")
            ++byStatus[s.status];
    std::string statuses;
    for (const auto &[status, n] : byStatus)
        statuses += " " + status + "=" + std::to_string(n);
    out.check(notOk == 0,
              std::to_string(notOk) + " request(s) refused or failed:" +
                  statuses,
              notOk);
    out.check(mismatched == 0,
              std::to_string(mismatched) +
                  " ok repl(ies) differ from direct evaluation",
              mismatched);
}

/** A finite latency for the result line: +inf (a missed request)
 * reads as an hour. */
double
finiteMs(double ms)
{
    return std::isfinite(ms) ? ms : 3.6e6;
}

std::string
countNote(const char *what, const std::vector<double> &ms, double q)
{
    const auto beyond = static_cast<std::size_t>(
        std::floor(static_cast<double>(ms.size()) * (1.0 - q)));
    return std::string(what) + " " + formatDouble(finiteMs(percentile(ms, q))) +
        " ms (" + std::to_string(ms.size()) + " samples, " +
        std::to_string(beyond) + " beyond)";
}

/** Per-call cost [us] of the protocol functions the request path
 * composes, replayed serially over the phase's own traffic. */
void
replayProtocol(const ServeInputs &in, const Phase &ph, Outcome &out)
{
    const std::size_t n = in.lines.size();
    ScopedSpan span{"svc.replay", "svc"};
    std::int64_t t0 = nowNs();
    std::vector<svc::Request> reqs;
    reqs.reserve(n);
    for (const std::string &line : in.lines) {
        reqs.push_back(svc::parseRequest(line, "<replay>"));
    }
    out.metric("svc.parse_us",
               secondsBetween(t0, nowNs()) * 1e6 / static_cast<double>(n),
               "us");
    t0 = nowNs();
    for (std::size_t r = 0; r < n; ++r) {
        const std::size_t point = in.plan.slots[in.requests[r].first].point;
        (void)svc::formatOkEval(reqs[r], in.plan.points[point].hashHex(),
                                false, false, in.metrics[point], 100);
    }
    out.metric("svc.format_us",
               secondsBetween(t0, nowNs()) * 1e6 / static_cast<double>(n),
               "us");
    t0 = nowNs();
    std::size_t parsed = 0;
    for (const ReplySeen &s : ph.seen) {
        if (s.raw.empty())
            continue;
        (void)svc::Reply::parse(s.raw, "<replay>");
        ++parsed;
    }
    out.metric("svc.reply_parse_us",
               secondsBetween(t0, nowNs()) * 1e6 /
                   static_cast<double>(std::max<std::size_t>(parsed, 1)),
               "us");
}

} // namespace

Outcome
runServeMixed(const RunConfig &cfg)
{
    Outcome out;
    const std::string pristine = cfg.workDir + "/serve-cache.jsonl";
    const ServeInputs in = makeInputs(cfg, pristine);
    out.note("serve-mixed: " + std::to_string(in.requests.size()) +
             " requests, " + std::to_string(in.plan.preloaded) +
             " pre-loaded records");

    const Phase ph = runPhase(in, cfg.workDir + "/serve", pristine,
                              cfg.trace ? 0 : 2, cfg.trace);
    checkPhase(ph, out);
    const std::vector<double> ms = latenciesMs(in, ph);
    for (const auto &[what, q] :
         {std::pair{"p50", 0.5}, {"p90", 0.9}, {"p99", 0.99},
          {"p99.9", 0.999}})
        out.note(countNote(what, ms, q));
    out.note("generator late p99 " +
             formatDouble(percentile(generatorLateMs(in, ph), 0.99)) +
             " ms");

    if (!cfg.trace) {
        out.metric("wall_s", ph.wallS, "s");
        out.metric("cpu_s", ph.serverCpuS, "s");
        out.metric("setup_s", ph.setupS, "s");
        out.metric("peak_rss_mb", peakRssMb(), "MB");
        return out;
    }

    Tracer tracer;
    Tracer::install(&tracer);
    const Phase traced =
        runPhase(in, cfg.workDir + "/serve-traced", pristine, 0, true);
    checkPhase(traced, out);
    std::size_t differ = 0;
    for (std::size_t r = 0; r < ph.seen.size(); ++r)
        differ += ph.seen[r].canonical != traced.seen[r].canonical ? 1 : 0;
    out.check(differ == 0,
              std::to_string(differ) +
                  " reply(ies) differ between the untraced and the "
                  "traced run",
              differ);
    replayProtocol(in, traced, out);
    Tracer::install(nullptr);

    const std::vector<double> tms = latenciesMs(in, traced);
    std::vector<double> serverUs, transportUs, hitMs, missMs;
    for (std::size_t r = 0; r < traced.seen.size(); ++r) {
        const ReplySeen &s = traced.seen[r];
        if (s.replies != 1 || s.status != "ok")
            continue;
        const double clientUs =
            static_cast<double>(s.recvNs - s.sentNs) * 1e-3;
        serverUs.push_back(static_cast<double>(s.serverUs));
        transportUs.push_back(clientUs - static_cast<double>(s.serverUs));
        (s.cached ? hitMs : missMs).push_back(tms[r]);
    }
    out.metric("svc.p50_ms", finiteMs(median(tms)), "ms");
    out.metric("svc.p90_ms", finiteMs(percentile(tms, 0.9)), "ms");
    out.metric("svc.server_us_p50", median(serverUs), "us");
    out.metric("svc.transport_us_p50", median(transportUs), "us");
    out.metric("svc.hit_ms_p50", median(hitMs), "ms");
    out.metric("svc.miss_ms_p50", median(missMs), "ms");
    out.metric("svc.evaluations", static_cast<double>(traced.evaluations),
               "count");
    out.metric("svc.cache_hits",
               static_cast<double>(traced.counters.cacheHits), "count");
    out.metric("svc.deduped", static_cast<double>(traced.counters.deduped),
               "count");
    out.metric("svc.overloaded",
               static_cast<double>(traced.counters.overloaded), "count");
    out.metric("svc.expired", static_cast<double>(traced.counters.expired),
               "count");
    out.metric("svc.p99_ms", finiteMs(percentile(tms, 0.99)), "ms");
    out.metric("svc.p999_ms", finiteMs(percentile(tms, 0.999)), "ms");
    out.metric("svc.gen_late_p99_ms",
               percentile(generatorLateMs(in, traced), 0.99), "ms");
    out.metric("trace.overhead_p50_ms",
               finiteMs(median(tms)) - finiteMs(median(ms)), "ms");
    writeTraceFile(cfg, tracer, out);
    return out;
}

} // namespace perfbench
