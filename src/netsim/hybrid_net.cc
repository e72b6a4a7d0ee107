#include "hybrid_net.hh"

#include <cmath>

#include "util/diag.hh"

namespace cryo::netsim
{

HybridNetwork::HybridNetwork(HybridConfig cfg) : cfg_(cfg)
{
    fatalIf(cfg_.clusters < 2, "hybrid needs at least two clusters");
    fatalIf(cfg_.coresPerCluster < 2, "clusters need at least two cores");
    meshSide_ = static_cast<int>(std::lround(std::sqrt(cfg_.clusters)));
    fatalIf(meshSide_ * meshSide_ != cfg_.clusters,
            "cluster count must form a square global mesh");
    for (int c = 0; c < cfg_.clusters; ++c) {
        buses_.push_back(std::make_unique<BusNetwork>(
            cfg_.coresPerCluster, cfg_.busTiming));
    }
    gatewayQueues_.resize(static_cast<std::size_t>(cfg_.clusters));
}

int
HybridNetwork::meshLatency(int src_cluster, int dst_cluster) const
{
    const int sx = src_cluster % meshSide_;
    const int sy = src_cluster / meshSide_;
    const int dx = dst_cluster % meshSide_;
    const int dy = dst_cluster / meshSide_;
    const int hops = std::abs(sx - dx) + std::abs(sy - dy);
    // Router pipeline per traversed router plus link cycles per hop,
    // plus gateway NI overhead at both ends.
    return (hops + 1) * cfg_.meshRouterCycles
        + hops * cfg_.meshLinkCycles + 2;
}

void
HybridNetwork::inject(const Packet &p)
{
    fatalIf(p.src < 0 || p.src >= nodes(), "source out of range");
    fatalIf(p.dst < 0 || p.dst >= nodes(), "destination out of range");
    fatalIf(p.flits < 1, "packets carry at least one flit");
    Packet orig = p;
    orig.injected = now_;
    fatalIf(!origin_.emplace(p.id, orig).second,
            "packet id already in flight");
    ++inFlightCount_;

    Packet local = p;
    local.src = localOf(p.src);
    // Intra-cluster requests snoop their own bus; inter-cluster ones
    // are addressed to the gateway (directory home) first.
    local.dst = clusterOf(p.src) == clusterOf(p.dst)
        ? localOf(p.dst) : 0;
    buses_[static_cast<std::size_t>(clusterOf(p.src))]->inject(local);
}

void
HybridNetwork::step()
{
    // 1. Land mesh crossings into gateway queues (stable in-place
    //    compaction, order-preserving).
    std::size_t keep = 0;
    for (auto &entry : crossing_) {
        if (entry.first <= now_) {
            gatewayQueues_[static_cast<std::size_t>(
                               clusterOf(entry.second.dst))]
                .push_back(entry.second);
        } else {
            crossing_[keep++] = entry;
        }
    }
    crossing_.resize(keep);

    // 2. Gateways inject into their cluster bus (bounded bandwidth).
    for (int c = 0; c < cfg_.clusters; ++c) {
        auto &q = gatewayQueues_[static_cast<std::size_t>(c)];
        for (int k = 0; k < cfg_.gatewayBandwidth && !q.empty(); ++k) {
            Packet leg = q.front();
            q.pop_front();
            leg.src = 0; // the gateway occupies node 0 of the cluster
            leg.dst = localOf(leg.dst);
            buses_[static_cast<std::size_t>(c)]->inject(leg);
        }
    }

    // 3. Step the buses and classify their deliveries.
    for (int c = 0; c < cfg_.clusters; ++c) {
        buses_[static_cast<std::size_t>(c)]->step();
        for (const Packet &done :
             buses_[static_cast<std::size_t>(c)]->drainDelivered()) {
            const Packet &orig = origin_.at(done.id);
            if (clusterOf(orig.dst) == c) {
                // Final leg complete.
                Packet out = orig;
                out.delivered = now_;
                delivered_.push_back(out);
                origin_.erase(done.id);
                --inFlightCount_;
            } else {
                // First leg done: cross the global mesh.
                Packet leg = orig;
                crossing_.emplace_back(
                    now_ + meshLatency(c, clusterOf(orig.dst)), leg);
            }
        }
    }

    ++now_;
}

} // namespace cryo::netsim
