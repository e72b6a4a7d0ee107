/**
 * @file
 * The 256-core directory-based hybrid CryoBus (Fig. 26): four CryoBus
 * clusters stitched by a small global mesh of gateway routers.
 *
 * Intra-cluster packets take one bus transaction. Inter-cluster packets
 * take a bus transaction to the local gateway, cross the global mesh,
 * and take a second bus transaction in the destination cluster - the
 * directory-based flow that gives up global snooping (Section 7.3).
 */

#ifndef CRYOWIRE_NETSIM_HYBRID_NET_HH
#define CRYOWIRE_NETSIM_HYBRID_NET_HH

#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "netsim/bus_net.hh"
#include "netsim/network.hh"

namespace cryo::netsim
{

/** Construction parameters of the hybrid network. */
struct HybridConfig
{
    int clusters = 4;          ///< bus clusters (square count)
    int coresPerCluster = 64;
    BusTiming busTiming;       ///< per-cluster CryoBus timing
    int meshRouterCycles = 1;
    int meshLinkCycles = 2;    ///< gateway-to-gateway link (8 mm span)
    int gatewayBandwidth = 1;  ///< packets per cycle entering a cluster

    bool operator==(const HybridConfig &) const = default;
};

/**
 * Hybrid bus + mesh simulator.
 */
class HybridNetwork : public Network
{
  public:
    explicit HybridNetwork(HybridConfig cfg);

    void inject(const Packet &p) override;
    void step() override;
    Cycle now() const override { return now_; }
    int nodes() const override
    {
        return cfg_.clusters * cfg_.coresPerCluster;
    }
    std::size_t inFlight() const override { return inFlightCount_; }

    /** Mesh traversal latency between two gateways [cycles]. */
    int meshLatency(int src_cluster, int dst_cluster) const;

  private:
    int clusterOf(int node) const { return node / cfg_.coresPerCluster; }
    int localOf(int node) const { return node % cfg_.coresPerCluster; }

    HybridConfig cfg_;
    int meshSide_;
    Cycle now_ = 0;
    std::size_t inFlightCount_ = 0;

    std::vector<std::unique_ptr<BusNetwork>> buses_;
    /** Original packets keyed by id (for end-to-end latency). */
    std::unordered_map<std::uint64_t, Packet> origin_;
    /** Packets crossing the mesh: (arrival cycle, packet). */
    std::vector<std::pair<Cycle, Packet>> crossing_;
    /** Per-cluster gateway ingress queues. */
    std::vector<std::deque<Packet>> gatewayQueues_;
};

} // namespace cryo::netsim

#endif // CRYOWIRE_NETSIM_HYBRID_NET_HH
