/**
 * @file
 * CachedEvaluator: the read-through, dedup-in-flight front end the
 * serving layer evaluates design points through.
 *
 * Three tiers, checked in order:
 *
 *  1. ResultCache lookup by content hash - a warm cache answers
 *     without touching the model stack at all.
 *  2. In-flight table - when an identical point (same hashHex) is
 *     already being evaluated by another caller, this caller blocks
 *     on that evaluation instead of starting a second one. The first
 *     caller ("leader") evaluates; everyone else ("followers") waits
 *     on the leader's condition variable and shares its result - or
 *     its exception, rethrown in every waiting thread.
 *  3. PointEvaluator::evaluate - the real work, stored back to the
 *     cache before the in-flight entry is retired so a caller that
 *     arrives between retire and store cannot re-evaluate.
 *
 * Because PointEvaluator is a pure function of the point, collapsing
 * duplicates is invisible to callers: every path returns bit-identical
 * metrics. The Outcome flags (cacheHit, deduped) exist so the service
 * layer can report how a reply was produced.
 */

#ifndef CRYOWIRE_DSE_CACHED_EVAL_HH
#define CRYOWIRE_DSE_CACHED_EVAL_HH

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "dse/point_eval.hh"
#include "dse/result_cache.hh"

namespace cryo::dse
{

/**
 * Shared dedupe front end. Thread-safe; any number of threads may
 * call evaluate() concurrently. Does not own the evaluator or cache;
 * both must outlive it.
 */
class CachedEvaluator
{
  public:
    /** How one evaluation was satisfied. */
    struct Outcome
    {
        PointMetrics metrics;

        /** The point's hashHex(), the key every tier looked up. */
        std::string hash;

        /** Answered from ResultCache without evaluating. */
        bool cacheHit = false;

        /** Waited on an identical in-flight evaluation. */
        bool deduped = false;
    };

    /** @p cache may be nullptr (dedupe only, nothing persists). */
    CachedEvaluator(const PointEvaluator &evaluator, ResultCache *cache);

    CachedEvaluator(const CachedEvaluator &) = delete;
    CachedEvaluator &operator=(const CachedEvaluator &) = delete;

    /**
     * Evaluate @p point through the three tiers. Propagates the
     * evaluator's FatalError (to the leader and every follower of the
     * failed evaluation); a failed point is not cached, so a later
     * request retries it.
     */
    Outcome evaluate(const DesignPoint &point) const;

    /** Evaluations actually run (tier 3), for tests and stats. */
    std::size_t evaluations() const;

    /** Largest number of simultaneously in-flight distinct points. */
    std::size_t inflightHighWater() const;

  private:
    struct Inflight
    {
        std::mutex mu;
        std::condition_variable cv;
        bool done = false;
        PointMetrics metrics;
        std::exception_ptr error;
    };

    const PointEvaluator &evaluator_;
    ResultCache *cache_;

    mutable std::mutex mu_;
    mutable std::map<std::string, std::shared_ptr<Inflight>> inflight_;
    mutable std::size_t evaluations_ = 0;
    mutable std::size_t inflightHighWater_ = 0;
};

} // namespace cryo::dse

#endif // CRYOWIRE_DSE_CACHED_EVAL_HH
