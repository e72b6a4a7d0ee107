#include "bus_net.hh"

#include <algorithm>

#include "util/diag.hh"

namespace cryo::netsim
{

BusTiming
BusTiming::fromConfig(const noc::NocConfig &cfg, int ways)
{
    const noc::BusLatencyBreakdown b = cfg.busBreakdown();
    BusTiming t;
    t.requestCycles = b.request;
    // The control cycle of the dynamic link connection rides the grant
    // path (Section 5.2.2).
    t.grantCycles = b.grant + b.control;
    t.broadcastCycles = b.broadcast;
    t.ways = ways;
    return t;
}

BusNetwork::BusNetwork(int nodes, BusTiming timing)
    : nodes_(nodes), timing_(timing)
{
    fatalIf(nodes < 2, "bus needs at least two nodes");
    fatalIf(timing_.ways < 1, "need at least one bus way");
    fatalIf(timing_.requestCycles < 1 || timing_.grantCycles < 1 ||
                timing_.broadcastCycles < 1,
            "bus timing cycles must be >= 1");
    ways_.reserve(static_cast<std::size_t>(timing_.ways));
    for (int w = 0; w < timing_.ways; ++w)
        ways_.emplace_back(nodes);
}

int
BusNetwork::wayOf(const Packet &p) const
{
    // Address interleaving: requests hash to a way by address; the
    // packet id stands in for the block address.
    return static_cast<int>(p.id % static_cast<std::uint64_t>(
        timing_.ways));
}

void
BusNetwork::inject(const Packet &p)
{
    fatalIf(p.src < 0 || p.src >= nodes_, "packet source out of range");
    fatalIf(p.flits < 1, "packets carry at least one flit");
    Way &way = ways_[static_cast<std::size_t>(wayOf(p))];
    auto &q = way.queues[static_cast<std::size_t>(p.src)];
    PendingTx tx;
    tx.packet = p;
    tx.packet.injected = now_;
    if (q.empty())
        tx.headAt = now_;
    q.push_back(tx);
    ++inFlight_;
}

void
BusNetwork::step()
{
    // Complete transactions whose tail finished this cycle: one
    // stable in-place compaction pass (order-preserving) instead of
    // repeated O(n) mid-scan erases.
    std::size_t keep = 0;
    for (auto &entry : completing_) {
        if (entry.first <= now_) {
            entry.second.delivered = entry.first;
            delivered_.push_back(entry.second);
            --inFlight_;
        } else {
            completing_[keep++] = entry;
        }
    }
    completing_.resize(keep);

    for (Way &way : ways_) {
        while (!way.busyWindows.empty() &&
               way.busyWindows.front().second <= now_)
            way.busyWindows.pop_front();
        if (!way.busyWindows.empty() &&
            way.busyWindows.front().first <= now_)
            ++way.busyCycles;

        // The arbiter decides one grant per cycle, early enough that
        // the next broadcast starts the moment the medium frees.
        if (way.nextFree > now_ + 1 + timing_.grantCycles)
            continue;

        std::vector<bool> &requests = requestScratch_;
        requests.assign(static_cast<std::size_t>(nodes_), false);
        for (int n = 0; n < nodes_; ++n) {
            auto &q = way.queues[static_cast<std::size_t>(n)];
            if (q.empty())
                continue;
            if (q.front().headAt == kNotAtHead)
                q.front().headAt = now_;
            // The request wire needs requestCycles to reach the
            // arbiter after the transaction reaches the queue head.
            if (q.front().headAt + timing_.requestCycles <= now_)
                requests[static_cast<std::size_t>(n)] = true;
        }

        const int winner = way.arbiter.arbitrate(requests);
        if (winner < 0)
            continue;

        auto &q = way.queues[static_cast<std::size_t>(winner)];
        PendingTx tx = q.front();
        q.pop_front();
        if (!q.empty())
            q.front().headAt = now_ + 1;

        // Arbitration consumes this cycle; the grant (plus cross-link
        // control for CryoBus) then travels back; the broadcast starts
        // when both the grant has arrived and the medium is free.
        const Cycle grant_arrival = now_ + 1 + timing_.grantCycles;
        const Cycle start = std::max(grant_arrival, way.nextFree);
        const Cycle occupancy =
            timing_.broadcastCycles + (tx.packet.flits - 1);
        way.nextFree = start + occupancy;
        if (!way.busyWindows.empty() &&
            way.busyWindows.back().second == start)
            way.busyWindows.back().second = start + occupancy;
        else
            way.busyWindows.emplace_back(start, start + occupancy);
        completing_.emplace_back(start + occupancy, tx.packet);
    }

    ++now_;
}

double
BusNetwork::utilization(int way) const
{
    fatalIf(way < 0 || way >= timing_.ways, "bus way out of range");
    if (now_ == 0)
        return 0.0;
    return static_cast<double>(
               ways_[static_cast<std::size_t>(way)].busyCycles) /
        static_cast<double>(now_);
}

} // namespace cryo::netsim
