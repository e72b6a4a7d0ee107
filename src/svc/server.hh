/**
 * @file
 * The cryowire-serve daemon core: a long-running evaluation service
 * over a local unix socket.
 *
 * Threading model, one moving part per concern:
 *
 *  - one accept thread hands each client connection to
 *  - one reader thread per connection, which parses request lines
 *    and answers ping/stats/shutdown inline; eval requests pass
 *    through the AdmissionController and run as
 *  - tasks on the process-wide ThreadPool, evaluating through a
 *    shared dse::CachedEvaluator (ResultCache read-through plus
 *    in-flight dedupe), so identical points concurrently in flight
 *    evaluate once and every reply is bit-identical to a direct
 *    PointEvaluator call.
 *
 * Replies are written under a per-connection write mutex (eval
 * replies complete out of order across connections, never
 * interleaved within a line). Admission decisions (run / queue /
 * shed) happen at arrival; completions promote queued requests in
 * arrival order. stop() is graceful: stop accepting, wake the
 * readers, drain the queue with "overloaded" replies, and wait for
 * every in-flight evaluation to reply.
 */

#ifndef CRYOWIRE_SVC_SERVER_HH
#define CRYOWIRE_SVC_SERVER_HH

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dse/cached_eval.hh"
#include "dse/point_eval.hh"
#include "dse/result_cache.hh"
#include "svc/admission.hh"
#include "svc/metrics.hh"
#include "svc/protocol.hh"
#include "util/socket.hh"

namespace cryo::svc
{

/** Everything a Server needs to start. */
struct ServerConfig
{
    /** Unix socket path to listen on (required). */
    std::string socketPath;

    /** ResultCache path; "" = in-memory only. */
    std::string cachePath;

    /**
     * An unwritable cache file degrades to read-only serving instead
     * of refusing to start (dse::CacheWritability::kTolerateReadOnly).
     */
    bool tolerateReadOnlyCache = true;

    /** Fsync the cache after every stored record (power-loss-safe). */
    bool fsyncCache = false;

    /**
     * stop()'s drain budget [ms]: after shedding the queue, wait this
     * long for in-flight evaluations before warning. In-flight work
     * is never abandoned (the tasks hold the server), so the wait
     * continues past the deadline - but loudly.
     */
    std::int64_t drainDeadlineMs = 5000;

    AdmissionConfig admission;

    /**
     * Grow the shared ThreadPool to this many workers (0 = leave).
     * The cache load at construction runs at this width too (0 = the
     * pool default).
     */
    int evalThreads = 0;

    /** Longest accepted request line [bytes]. */
    std::size_t maxLineBytes = 1 << 20;
};

/** The daemon. Construct, start(), eventually stop(). */
class Server
{
  public:
    explicit Server(ServerConfig config);

    /** stop()s if still running. */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind the socket and start serving. fatal() on a bad socket. */
    void start();

    /**
     * Graceful shutdown: close the listener, wake the connection
     * readers, shed the queue with "overloaded" replies, wait for
     * in-flight evaluations to reply (warning past drainDeadlineMs),
     * then flush the cache. Idempotent.
     */
    void stop();

    /** True once a client's "shutdown" request was acked. */
    bool shutdownRequested() const;

    /**
     * Wait up to @p pollMs for a shutdown request; returns
     * shutdownRequested(). The daemon main loop's heartbeat.
     */
    bool waitShutdown(std::int64_t pollMs);

    const std::string &socketPath() const { return cfg_.socketPath; }

    /** Live counters/latency (tests, the shutdown summary). */
    ServerStats &serverStats() { return stats_; }

    /** The dedupe front end (tests assert evaluations()). */
    const dse::CachedEvaluator &evaluator() const { return eval_; }

    /** The result cache (in-memory when no cachePath was given). */
    const dse::ResultCache &cache() const { return *cache_; }

  private:
    /** One client connection; the last owner closes the fd. */
    struct Conn
    {
        explicit Conn(int fd) : fd(fd) {}
        ~Conn();

        Conn(const Conn &) = delete;
        Conn &operator=(const Conn &) = delete;

        int fd;
        std::mutex writeMu; ///< one reply line at a time
    };

    /** An admitted-but-queued eval request. */
    struct Pending
    {
        std::shared_ptr<Conn> conn;
        Request req;
        std::int64_t startUs;
    };

    /** Microseconds since server construction (monotonic clock). */
    std::int64_t nowUs() const;

    void acceptLoop();
    void connLoop(std::shared_ptr<Conn> conn);
    void handleLine(const std::shared_ptr<Conn> &conn,
                    const std::string &line);

    /** Write one reply line and account it. */
    void sendReply(const std::shared_ptr<Conn> &conn,
                   const std::string &line, const std::string &status,
                   std::int64_t latencyUs);

    /** The "stats" reply payload (counters + admission + cache). */
    std::string formatStatsReply(const Request &req,
                                 std::int64_t latencyUs);

    /** Hand one admitted request to the thread pool. */
    void submitEval(Pending p);

    /** Slot freed: credit admission, promote queued arrivals. */
    void finishEval();

    ServerConfig cfg_;
    dse::PointEvaluator evaluator_;
    std::unique_ptr<dse::ResultCache> cache_;
    dse::CachedEvaluator eval_;
    ServerStats stats_;
    std::chrono::steady_clock::time_point epoch_;

    std::mutex admissionMu_;
    AdmissionController admission_;
    std::deque<Pending> pending_;

    mutable std::mutex stateMu_;
    std::condition_variable stateCv_;
    bool running_ = false;
    bool stopping_ = false;
    bool shutdownRequested_ = false;
    std::size_t outstanding_ = 0; ///< submitted, not yet replied

    std::unique_ptr<UnixListener> listener_;
    std::thread acceptThread_;
    std::mutex connsMu_;
    std::vector<std::shared_ptr<Conn>> conns_;
    std::vector<std::thread> connThreads_;
};

} // namespace cryo::svc

#endif // CRYOWIRE_SVC_SERVER_HH
