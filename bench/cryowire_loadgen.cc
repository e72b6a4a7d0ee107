/**
 * @file
 * cryowire_loadgen: open-loop load generator for cryowire_serve.
 *
 * Open-loop means requests are issued on a precomputed schedule, not
 * after the previous reply - the generator keeps sending at the
 * offered rate even when the server falls behind, which is the only
 * way to observe queueing collapse and admission-control shedding
 * (a closed-loop client self-throttles and hides both).
 *
 * Two arrival patterns, both integrating an instantaneous-rate
 * function into deterministic send times:
 *   steady   constant rate,
 *   bursty   5x the rate for the first 20% of every second, idle
 *            otherwise (same mean).
 *
 * Client-observed latency (send to reply, including server queueing)
 * is recorded per reply and reported as a cryowire-bench/1 JSON
 * document gated by tools/bench_gate.py.
 */

#include <algorithm>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "svc/client.hh"
#include "svc/protocol.hh"
#include "util/cli.hh"
#include "util/diag.hh"
#include "util/json.hh"
#include "util/output.hh"
#include "util/rng.hh"
#include "util/socket.hh"
#include "util/stats.hh"
#include "util/thread_pool.hh"

namespace
{

using namespace cryo;
using namespace cryo::svc;

struct CliOptions
{
    std::string socket;
    std::string pattern = "steady";
    double rate = 20.0;
    std::int64_t durationMs = 2000;
    int connections = 2;
    int distinct = 8;
    double invalidShare = 0.0;
    std::uint64_t seed = 1;
    int connectRetries = 10;
    std::int64_t connectBackoffMs = 50;
    bool verify = false;
    std::string json;
    bool shutdownAfter = false;
    bool quiet = false;
};

/** Instantaneous offered rate [req/s] at offset @p tS into the run. */
double
rateAt(const CliOptions &cli, double tS)
{
    if (cli.pattern == "bursty") {
        // 5x rate for the first fifth of every second: same mean,
        // much harder on the admission queue.
        const double phase = tS - std::floor(tS);
        return phase < 0.2 ? cli.rate * 5.0 : 0.0;
    }
    return cli.rate;
}

/**
 * Integrate the rate function into send offsets [us]. Deterministic:
 * the schedule depends only on the options.
 */
std::vector<std::int64_t>
buildSchedule(const CliOptions &cli)
{
    std::vector<std::int64_t> sendUs;
    const double durationS =
        static_cast<double>(cli.durationMs) / 1000.0;
    double t = 0.0;
    while (t < durationS) {
        const double r = rateAt(cli, t);
        if (r <= 0.0) {
            // Idle stretch (bursty off-phase): hop to the next
            // second boundary where the burst resumes.
            t = std::floor(t) + 1.0;
            continue;
        }
        sendUs.push_back(static_cast<std::int64_t>(t * 1e6));
        t += 1.0 / r;
    }
    return sendUs;
}

/** The request pool: @p distinct cheap points differing in tempK. */
std::vector<dse::DesignPoint>
buildPoints(int distinct)
{
    std::vector<dse::DesignPoint> points;
    for (int i = 0; i < distinct; ++i) {
        dse::DesignPoint p;
        p.workload = "streamcluster";
        p.tempK =
            77.0 + 150.0 * static_cast<double>(i) /
                       static_cast<double>(std::max(1, distinct));
        points.push_back(p);
    }
    return points;
}

/** One pre-rendered request line. */
struct Issue
{
    std::string id; ///< empty for invalid lines (no reply id)
    std::string line;
    bool invalid = false;
};

/** Shared per-connection reply accounting. */
struct ConnState
{
    std::unique_ptr<Client> client;
    int fd = -1; ///< client->fd(), cached for the reader thread
    std::mutex mu;
    std::map<std::string, std::int64_t> sendUs; ///< id -> send time

    /** id -> expected metrics JSON (--verify); read-only by now. */
    const std::map<std::string, std::string> *expect = nullptr;

    std::uint64_t issued = 0;
    std::uint64_t replies = 0;
    std::uint64_t ok = 0;
    std::uint64_t errors = 0;
    std::uint64_t failed = 0;
    std::uint64_t overloaded = 0;
    std::uint64_t expired = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t deduped = 0;
    std::uint64_t mismatches = 0; ///< --verify: wrong reply bytes
    Histogram clientUs{4096, 500.0};  ///< send-to-reply latency
    Histogram serviceUs{4096, 500.0}; ///< server-reported latency
};

std::int64_t
nowUs(std::chrono::steady_clock::time_point epoch)
{
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - epoch)
        .count();
}

void
readerLoop(ConnState *conn,
           std::chrono::steady_clock::time_point epoch)
{
    LineReader reader{conn->fd};
    std::string line;
    while (reader.next(&line) == LineReader::Status::kLine) {
        const Reply r = Reply::parse(line, "<reply>");
        std::lock_guard<std::mutex> lock(conn->mu);
        ++conn->replies;
        if (r.status == "ok")
            ++conn->ok;
        else if (r.status == "error")
            ++conn->errors;
        else if (r.status == "failed")
            ++conn->failed;
        else if (r.status == "overloaded")
            ++conn->overloaded;
        else if (r.status == "expired")
            ++conn->expired;
        if (r.cached)
            ++conn->cacheHits;
        if (r.deduped)
            ++conn->deduped;
        if (conn->expect != nullptr && r.status == "ok" && r.hasId) {
            const auto want = conn->expect->find(r.id);
            if (want != conn->expect->end() &&
                r.metricsJson != want->second) {
                ++conn->mismatches;
                std::fputs(("cryowire_loadgen: verify mismatch for "
                            "\"" +
                            r.id + "\":\n  daemon: " + r.metricsJson +
                            "\n  direct: " + want->second + "\n")
                               .c_str(),
                           stderr);
            }
        }
        conn->serviceUs.add(static_cast<double>(r.latencyUs));
        if (r.hasId) {
            const auto it = conn->sendUs.find(r.id);
            if (it != conn->sendUs.end()) {
                conn->clientUs.add(static_cast<double>(
                    nowUs(epoch) - it->second));
                conn->sendUs.erase(it);
            }
        }
    }
}

int
run(const CliOptions &cli)
{
    const std::vector<std::int64_t> schedule = buildSchedule(cli);
    const std::vector<dse::DesignPoint> points =
        buildPoints(cli.distinct);
    Rng rng{cli.seed};

    // --verify: the per-point expected metrics, evaluated directly
    // through the same model stack the daemon uses. Byte-identical
    // replies are the differential contract.
    std::vector<std::string> expectByPoint;
    if (cli.verify) {
        const dse::PointEvaluator direct;
        for (const dse::DesignPoint &p : points) {
            const dse::PointMetrics m = direct.evaluate(p);
            std::ostringstream out;
            JsonWriter w{out, /*indent=*/0};
            m.writeJson(w, {"perf", "totalPower", "converged"});
            expectByPoint.push_back(out.str());
        }
    }

    // Pre-assign every scheduled request to a connection round-robin
    // and pre-render its line, so the send loop only sleeps + writes.
    const std::size_t n = schedule.size();
    std::vector<std::vector<std::pair<std::int64_t, Issue>>> plan(
        static_cast<std::size_t>(cli.connections));
    std::map<std::string, std::string> expectById;
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t c = i % plan.size();
        Issue issue;
        const std::string id =
            "c" + std::to_string(c) + "-r" + std::to_string(i);
        if (rng.chance(cli.invalidShare)) {
            // Truncated JSON: unparseable, so the error reply
            // cannot carry an id back - no latency sample.
            issue.invalid = true;
            issue.line = "{\"id\":\"" + id + "\",\"op\":\"eval\",";
        } else {
            Request req;
            req.id = id;
            req.op = Op::kEval;
            const std::size_t pick = rng.below(points.size());
            req.point = points[pick];
            req.metrics = {"perf", "totalPower", "converged"};
            issue.id = id;
            issue.line = formatRequest(req);
            if (cli.verify)
                expectById.emplace(id, expectByPoint[pick]);
        }
        plan[c].emplace_back(schedule[i], std::move(issue));
    }

    std::vector<std::unique_ptr<ConnState>> conns;
    for (int c = 0; c < cli.connections; ++c) {
        auto conn = std::make_unique<ConnState>();
        ClientConfig ccfg;
        ccfg.socketPath = cli.socket;
        ccfg.connectAttempts = 1 + cli.connectRetries;
        ccfg.connectBackoffMs = cli.connectBackoffMs;
        ccfg.jitterSeed = Rng::deriveSeed(
            cli.seed, static_cast<std::uint64_t>(c));
        conn->client = std::make_unique<Client>(std::move(ccfg));
        conn->fd = conn->client->fd();
        if (cli.verify)
            conn->expect = &expectById;
        conns.push_back(std::move(conn));
    }

    const auto epoch = std::chrono::steady_clock::now();
    std::vector<std::thread> readers;
    std::vector<std::thread> senders;
    for (int c = 0; c < cli.connections; ++c) {
        ConnState *conn = conns[static_cast<std::size_t>(c)].get();
        readers.emplace_back(
            [conn, epoch] { readerLoop(conn, epoch); });
        const auto *mine = &plan[static_cast<std::size_t>(c)];
        senders.emplace_back([conn, mine, epoch] {
            for (const auto &[atUs, issue] : *mine) {
                std::this_thread::sleep_until(
                    epoch + std::chrono::microseconds(atUs));
                {
                    std::lock_guard<std::mutex> lock(conn->mu);
                    ++conn->issued;
                    if (!issue.id.empty())
                        conn->sendUs.emplace(issue.id, nowUs(epoch));
                }
                if (!sendAll(conn->fd, issue.line + "\n"))
                    return; // daemon gone; reader sees EOF
            }
        });
    }
    for (std::thread &t : senders)
        t.join();

    // Drain: open loop is over, wait (bounded) for the tail.
    const std::int64_t deadline =
        nowUs(epoch) + 60 * 1000 * 1000; // 60 s grace
    for (;;) {
        std::uint64_t issued = 0;
        std::uint64_t replies = 0;
        for (const auto &conn : conns) {
            std::lock_guard<std::mutex> lock(conn->mu);
            issued += conn->issued;
            replies += conn->replies;
        }
        if (replies >= issued || nowUs(epoch) > deadline)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }

    if (cli.shutdownAfter) {
        Request down;
        down.id = "shutdown";
        down.op = Op::kShutdown;
        sendAll(conns[0]->fd, formatRequest(down) + "\n");
    }
    for (const auto &conn : conns)
        shutdownRead(conn->fd); // unblock the readers
    for (std::thread &t : readers)
        t.join();
    // The Client destructors close the fds when `conns` goes away.

    // Merge the per-connection accounting.
    std::uint64_t issued = 0, replies = 0, ok = 0, errors = 0;
    std::uint64_t failed = 0, overloaded = 0, expired = 0;
    std::uint64_t cacheHits = 0, deduped = 0, mismatches = 0;
    Histogram clientUs{4096, 500.0};
    Histogram serviceUs{4096, 500.0};
    for (const auto &conn : conns) {
        std::lock_guard<std::mutex> lock(conn->mu);
        issued += conn->issued;
        replies += conn->replies;
        ok += conn->ok;
        errors += conn->errors;
        failed += conn->failed;
        overloaded += conn->overloaded;
        expired += conn->expired;
        cacheHits += conn->cacheHits;
        deduped += conn->deduped;
        mismatches += conn->mismatches;
        clientUs.merge(conn->clientUs);
        serviceUs.merge(conn->serviceUs);
    }
    // The shutdown ack (if any) is an extra reply; don't let it
    // trip the one-reply-per-request accounting.
    if (cli.shutdownAfter && replies == issued + 1) {
        --replies;
        --ok;
    }

    if (!cli.quiet)
        std::fputs(
            ("cryowire_loadgen: issued=" + std::to_string(issued) +
             " replies=" + std::to_string(replies) + " ok=" +
             std::to_string(ok) + " errors=" + std::to_string(errors) +
             " failed=" + std::to_string(failed) + " overloaded=" +
             std::to_string(overloaded) + " expired=" +
             std::to_string(expired) + " cache_hits=" +
             std::to_string(cacheHits) + " deduped=" +
             std::to_string(deduped) +
             (cli.verify ? " verify_mismatches=" +
                               std::to_string(mismatches)
                         : std::string()) +
             " p50_us=" +
             std::to_string(clientUs.percentile(0.50)) + " p99_us=" +
             std::to_string(clientUs.percentile(0.99)) + "\n")
                .c_str(),
            stderr);

    if (!cli.json.empty()) {
        std::ostringstream out;
        {
            JsonWriter w{out}; // its destructor writes the final newline
            w.beginObject();
            w.key("schema").value("cryowire-bench/1");
            w.key("suite").value("serve_loadgen");
            w.key("unit").value("ns/op");
            w.key("kernels").beginArray();
            const auto kernel = [&w, replies](const std::string &name,
                                              double nsOp) {
                w.beginObject();
                w.key("name").value(name);
                w.key("ops").value(replies);
                w.key("scalar_ns_op").value(nsOp);
                w.key("batch_ns_op").null();
                w.key("speedup").null();
                w.endObject();
            };
            kernel(cli.pattern + "_latency_p50",
                   clientUs.percentile(0.50) * 1000.0);
            kernel(cli.pattern + "_latency_p99",
                   clientUs.percentile(0.99) * 1000.0);
            kernel(cli.pattern + "_service_time",
                   serviceUs.percentile(0.50) * 1000.0);
            w.endArray();
            w.key("issued").value(issued);
            w.key("replies").value(replies);
            w.key("ok").value(ok);
            w.key("errors").value(errors);
            w.key("failed").value(failed);
            w.key("overloaded").value(overloaded);
            w.key("expired").value(expired);
            w.key("cache_hits").value(cacheHits);
            w.key("deduped").value(deduped);
            if (cli.verify)
                w.key("verify_mismatches").value(mismatches);
            w.endObject();
        }
        writeFile(cli.json, out.view());
    }

    return replies == issued && mismatches == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    CliOptions opts;
    const cli::Spec spec{
        "cryowire_loadgen",
        "usage: cryowire_loadgen --socket PATH [options]\n"
        "\n"
        "Drive cryowire_serve with an open-loop request stream and report\n"
        "client-observed latency percentiles (cryowire-bench/1 JSON).\n"
        "\n"
        "exit status: 0 = every request got exactly one reply, 1 = not,\n"
        "2 = usage error.\n",
        {
            cli::text("--socket", "PATH", &opts.socket,
                      "daemon socket to connect to"),
            cli::choice("--pattern", "P", &opts.pattern,
                        {"steady", "bursty"},
                        "arrival pattern"),
            cli::number("--rate", "R", &opts.rate, 1e-3, 1e6,
                        "mean offered load [requests/s]"),
            cli::number("--duration-ms", "D", &opts.durationMs, 1, INT_MAX,
                        "run length"),
            cli::number("--connections", "C", &opts.connections, 1,
                        ThreadPool::kMaxJobs,
                        "parallel client connections"),
            cli::number("--distinct", "K", &opts.distinct, 1, INT_MAX,
                        "distinct design points in the pool "
                        "(duplicates exercise the cache)"),
            cli::number("--invalid-share", "F", &opts.invalidShare, 0.0,
                        1.0,
                        "fraction of requests sent malformed (they "
                        "earn \"error\" replies)"),
            cli::number("--seed", "S", &opts.seed, 0, UINT64_MAX,
                        "RNG seed for point/invalid choices"),
            cli::number("--connect-retries", "N", &opts.connectRetries, 0,
                        INT_MAX,
                        "extra connect attempts with exponential\n"
                        "backoff (rides out daemon startup ordering)"),
            cli::number("--connect-backoff-ms", "M", &opts.connectBackoffMs,
                        1, INT_MAX, "first connect retry wait"),
            cli::toggle("--verify", &opts.verify,
                        "check every ok reply's metrics are byte-\n"
                        "identical to direct evaluation (mismatches\n"
                        "fail the run)"),
            cli::text("--json", "FILE", &opts.json,
                      "write the cryowire-bench/1 report"),
            cli::toggle("--shutdown-after", &opts.shutdownAfter,
                        "send {\"op\":\"shutdown\"} when done"),
            cli::toggle("--quiet", &opts.quiet,
                        "suppress the summary line"),
        },
        [&] { fatalIf(opts.socket.empty(), "need --socket"); }};
    return cli::runDriver(spec, argc, argv, [&] { return run(opts); });
}
