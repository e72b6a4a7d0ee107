/**
 * @file
 * Server-side observability for cryowire-serve: monotonic counters
 * for every request disposition plus the per-request latency
 * histogram, snapshotted into the "stats" reply and the shutdown
 * summary.
 */

#ifndef CRYOWIRE_SVC_METRICS_HH
#define CRYOWIRE_SVC_METRICS_HH

#include <cstddef>
#include <cstdint>
#include <mutex>

#include "util/json.hh"
#include "util/stats.hh"

namespace cryo::svc
{

/** Counter snapshot; every field counts events since server start. */
struct SvcCounters
{
    std::uint64_t connections = 0;  ///< client connections accepted
    std::uint64_t received = 0;     ///< request lines read
    std::uint64_t replied = 0;      ///< reply lines written
    std::uint64_t ok = 0;           ///< "ok" replies
    std::uint64_t errors = 0;       ///< "error" replies (bad requests)
    std::uint64_t failed = 0;       ///< "failed" replies (eval threw)
    std::uint64_t overloaded = 0;   ///< "overloaded" replies (shed)
    std::uint64_t expired = 0;      ///< "expired" replies (deadline)
    std::uint64_t cacheHits = 0;    ///< evals answered from the cache
    std::uint64_t deduped = 0;      ///< evals joined to an in-flight twin
    std::uint64_t evaluated = 0;    ///< evals that ran the model stack
    std::uint64_t sendFailures = 0; ///< replies lost to a dead peer
    std::uint64_t queuedPeak = 0;   ///< admission queue high-water
    std::uint64_t inflightPeak = 0; ///< concurrent-eval high-water
};

/**
 * The live accumulator. Thread-safe: connection threads and eval
 * tasks update it concurrently.
 */
class ServerStats
{
  public:
    /** Latency histogram geometry: bin count x width [us]. */
    static constexpr std::size_t kLatencyBins = 4096;
    static constexpr double kLatencyBinUs = 500.0;

    void onConnection();
    void onReceived();

    /** Record one reply: @p status is the wire status string. */
    void onReply(const std::string &status, std::int64_t latencyUs);

    /** Record how one eval was satisfied (mirrors CachedEvaluator). */
    void onEvalOutcome(bool cacheHit, bool deduped);

    void onSendFailure();

    /** Raise the queue/inflight high-water marks. */
    void notePeaks(std::uint64_t queued, std::uint64_t inflight);

    /** Atomic snapshot of every counter. */
    SvcCounters counters() const;

    /** Copy of the latency histogram (for merging, asserting). */
    Histogram latency() const;

    /**
     * Emit the "stats" payload: every counter plus the latency
     * histogram snapshot (Histogram::writeJson).
     */
    void writeJson(JsonWriter &w) const;

  private:
    mutable std::mutex mu_;
    SvcCounters counters_;
    Histogram latencyUs_{kLatencyBins, kLatencyBinUs};
};

} // namespace cryo::svc

#endif // CRYOWIRE_SVC_METRICS_HH
