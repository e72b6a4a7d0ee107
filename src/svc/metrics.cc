#include "metrics.hh"

#include <algorithm>

#include "util/diag.hh"

namespace cryo::svc
{

void
ServerStats::onConnection()
{
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.connections;
}

void
ServerStats::onReceived()
{
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.received;
}

void
ServerStats::onReply(const std::string &status, std::int64_t latencyUs)
{
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.replied;
    if (status == "ok")
        ++counters_.ok;
    else if (status == "error")
        ++counters_.errors;
    else if (status == "failed")
        ++counters_.failed;
    else if (status == "overloaded")
        ++counters_.overloaded;
    else if (status == "expired")
        ++counters_.expired;
    else
        panic("unknown reply status \"" + status + "\"");
    latencyUs_.add(static_cast<double>(latencyUs));
}

void
ServerStats::onEvalOutcome(bool cacheHit, bool deduped)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (cacheHit)
        ++counters_.cacheHits;
    else if (deduped)
        ++counters_.deduped;
    else
        ++counters_.evaluated;
}

void
ServerStats::onSendFailure()
{
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.sendFailures;
}

void
ServerStats::notePeaks(std::uint64_t queued, std::uint64_t inflight)
{
    std::lock_guard<std::mutex> lock(mu_);
    counters_.queuedPeak = std::max(counters_.queuedPeak, queued);
    counters_.inflightPeak = std::max(counters_.inflightPeak, inflight);
}

SvcCounters
ServerStats::counters() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return counters_;
}

Histogram
ServerStats::latency() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return latencyUs_;
}

void
ServerStats::writeJson(JsonWriter &w) const
{
    std::lock_guard<std::mutex> lock(mu_);
    w.beginObject();
    w.key("connections").value(counters_.connections);
    w.key("received").value(counters_.received);
    w.key("replied").value(counters_.replied);
    w.key("ok").value(counters_.ok);
    w.key("errors").value(counters_.errors);
    w.key("failed").value(counters_.failed);
    w.key("overloaded").value(counters_.overloaded);
    w.key("expired").value(counters_.expired);
    w.key("cache_hits").value(counters_.cacheHits);
    w.key("deduped").value(counters_.deduped);
    w.key("evaluated").value(counters_.evaluated);
    w.key("send_failures").value(counters_.sendFailures);
    w.key("queued_peak").value(counters_.queuedPeak);
    w.key("inflight_peak").value(counters_.inflightPeak);
    w.key("latency_us");
    latencyUs_.writeJson(w);
    w.endObject();
}

} // namespace cryo::svc
