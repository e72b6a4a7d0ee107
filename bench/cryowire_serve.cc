/**
 * @file
 * cryowire_serve: the evaluation-as-a-service daemon. Listens on a
 * local unix socket for newline-delimited JSON requests (partial
 * DesignPoints plus requested metrics), evaluates them through the
 * shared thread pool with ResultCache read-through and in-flight
 * dedupe, and applies throughput-probing admission control so an
 * overloaded daemon sheds requests with typed "overloaded" replies
 * instead of queueing without bound. See `cryowire_serve --help` and
 * DESIGN.md section 4g for the protocol.
 */

#include <climits>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>

#include "svc/server.hh"
#include "util/cli.hh"
#include "util/diag.hh"
#include "util/failpoint.hh"
#include "util/json.hh"
#include "util/output.hh"
#include "util/thread_pool.hh"

namespace
{

using namespace cryo;
using namespace cryo::svc;

struct CliOptions
{
    ServerConfig server;
    std::string statsJson;
    bool requireWritableCache = false;
    std::int64_t probeWindowMs = server.admission.probeWindowUs / 1000;
    bool quiet = false;
};

std::sig_atomic_t volatile g_signalled = 0;

void
onSignal(int)
{
    g_signalled = 1;
}

void
writeStatsJson(const std::string &path, Server &server)
{
    std::ostringstream out;
    {
        JsonWriter w{out}; // its destructor writes the final newline
        server.serverStats().writeJson(w);
    }
    writeFile(path, out.view());
}

void
summary(Server &server)
{
    const SvcCounters c = server.serverStats().counters();
    std::fputs(("cryowire_serve: " + std::to_string(c.received) +
                " request(s) on " + std::to_string(c.connections) +
                " connection(s): " + std::to_string(c.ok) + " ok, " +
                std::to_string(c.errors) + " error, " +
                std::to_string(c.failed) + " failed, " +
                std::to_string(c.overloaded) + " overloaded, " +
                std::to_string(c.expired) + " expired; " +
                std::to_string(c.cacheHits) + " cache hit(s), " +
                std::to_string(c.deduped) + " deduped, " +
                std::to_string(c.evaluated) + " evaluated\n")
                   .c_str(),
               stderr);
}

int
runServe(const CliOptions &cli)
{
    Server server{cli.server};
    server.start();
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    if (!cli.quiet)
        std::fputs(("cryowire_serve: listening on \"" +
                    cli.server.socketPath + "\"\n")
                       .c_str(),
                   stderr);

    while (g_signalled == 0 && !server.waitShutdown(100)) {
    }
    server.stop();

    if (!cli.statsJson.empty())
        writeStatsJson(cli.statsJson, server);
    if (!cli.quiet)
        summary(server);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    CliOptions opts;
    ServerConfig &server = opts.server;
    AdmissionConfig &admission = server.admission;
    const cli::Spec spec{
        "cryowire_serve",
        "usage: cryowire_serve --socket PATH [options]\n"
        "\n"
        "Serve design-point evaluations over a unix socket. One JSON\n"
        "request per line, one JSON reply per request (see DESIGN.md\n"
        "section 4g for the schema). Runs until SIGINT/SIGTERM or a\n"
        "client sends {\"op\":\"shutdown\"}.\n"
        "\n"
        "exit status: 0 = success, 1 = failure, 2 = usage error.\n",
        {
            cli::text("--socket", "PATH", &server.socketPath,
                      "unix socket to listen on"),
            cli::text("--cache", "FILE", &server.cachePath,
                      "hash-keyed result cache (JSONL); an unwritable\n"
                      "file degrades to read-only"),
            cli::toggle("--require-writable-cache",
                        &opts.requireWritableCache,
                        "refuse to start instead of degrading"),
            cli::number("--jobs", "N", &server.evalThreads, 1,
                        ThreadPool::kMaxJobs,
                        "grow the eval thread pool to N workers")
                .defaultsTo("CRYOWIRE_JOBS, else hardware"),
            cli::number("--initial-concurrency", "N",
                        &admission.initialConcurrency, 1, INT_MAX,
                        "admission limit at start"),
            cli::number("--min-concurrency", "N", &admission.minConcurrency,
                        1, INT_MAX, "admission limit floor"),
            cli::number("--max-concurrency", "N", &admission.maxConcurrency,
                        1, INT_MAX, "admission limit ceiling"),
            cli::number("--max-queue", "N", &admission.maxQueue, 1, INT_MAX,
                        "queued requests before shedding"),
            cli::number("--probe-window-ms", "N", &opts.probeWindowMs, 1,
                        INT_MAX, "admission probe window"),
            cli::toggle("--cache-fsync", &server.fsyncCache,
                        "fsync the cache after every stored record\n"
                        "(power-loss durability; slower)"),
            cli::number("--drain-deadline-ms", "N", &server.drainDeadlineMs,
                        1, INT_MAX, "shutdown drain budget before warning"),
            {"--failpoint", "L", "site=spec;...", "none",
             "arm failpoints (grammar in util/failpoint.hh)",
             &failpoint::armFromList},
            cli::text("--stats-json", "FILE", &opts.statsJson,
                      "write the final stats snapshot on exit"),
            cli::toggle("--quiet", &opts.quiet,
                        "suppress the shutdown summary"),
        },
        [&] { fatalIf(server.socketPath.empty(), "need --socket"); }};
    return cli::runDriver(spec, argc, argv, [&] {
        server.tolerateReadOnlyCache = !opts.requireWritableCache;
        admission.probeWindowUs = opts.probeWindowMs * 1000;
        return runServe(opts);
    });
}
