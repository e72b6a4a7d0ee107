#include "cached_eval.hh"

#include <utility>

namespace cryo::dse
{

CachedEvaluator::CachedEvaluator(const PointEvaluator &evaluator,
                                 ResultCache *cache)
    : evaluator_(evaluator), cache_(cache)
{
}

CachedEvaluator::Outcome
CachedEvaluator::evaluate(const DesignPoint &point) const
{
    Outcome out;
    out.hash = point.hashHex();
    const std::string &hash = out.hash;

    std::shared_ptr<Inflight> entry;
    bool leader = false;
    {
        std::lock_guard<std::mutex> lock(mu_);

        // Tier 1: the cache answers directly. Checked under mu_ so a
        // leader's store-then-retire (below) is ordered before this
        // lookup - a point can never be both "not cached" and "not
        // in flight" while its evaluation has completed.
        if (cache_ != nullptr && cache_->lookup(hash, &out.metrics)) {
            out.cacheHit = true;
            return out;
        }

        // Tier 2: join an identical evaluation already running.
        auto it = inflight_.find(hash);
        if (it != inflight_.end()) {
            entry = it->second;
        } else {
            entry = std::make_shared<Inflight>();
            inflight_.emplace(hash, entry);
            leader = true;
            ++evaluations_;
            if (inflight_.size() > inflightHighWater_)
                inflightHighWater_ = inflight_.size();
        }
    }

    if (!leader) {
        std::unique_lock<std::mutex> lock(entry->mu);
        entry->cv.wait(lock, [&entry] { return entry->done; });
        if (entry->error)
            std::rethrow_exception(entry->error);
        out.metrics = entry->metrics;
        out.deduped = true;
        return out;
    }

    // Tier 3: we are the leader - run the real evaluation.
    std::exception_ptr error;
    try {
        out.metrics = evaluator_.evaluate(point);
    } catch (...) {
        error = std::current_exception();
    }

    {
        // Store before retiring the in-flight entry (both under mu_):
        // a caller that misses the retired entry must hit the cache.
        std::lock_guard<std::mutex> lock(mu_);
        if (!error && cache_ != nullptr)
            cache_->store(hash, out.metrics);
        inflight_.erase(hash);
    }
    {
        std::lock_guard<std::mutex> lock(entry->mu);
        entry->metrics = out.metrics;
        entry->error = error;
        entry->done = true;
    }
    entry->cv.notify_all();

    if (error)
        std::rethrow_exception(error);
    return out;
}

std::size_t
CachedEvaluator::evaluations() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return evaluations_;
}

std::size_t
CachedEvaluator::inflightHighWater() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return inflightHighWater_;
}

} // namespace cryo::dse
