/**
 * @file
 * Cycle-accurate wormhole router network covering Mesh, CMesh, and
 * Flattened Butterfly (the router-based designs of Fig. 15).
 *
 * Routers are input-queued with virtual-channel flow control (Table 4:
 * 4 VCs x 3-flit buffers per input [33]), credit-based backpressure,
 * and round-robin switch allocation; a packet holds its VC at an
 * output (wormhole) until the tail passes, while other VCs may
 * interleave on the physical channel. VCs are assigned per flow so
 * same-flow packets stay ordered, and routing is dimension-ordered so
 * the channel-dependency graph stays acyclic. The router pipeline
 * depth (1 or 3 cycles) and the per-link traversal cycles come from
 * the analytic NoC config, keeping the simulator and the zero-load
 * model consistent.
 *
 * Arbitration contract, per cycle:
 *  - flits due this cycle land in their VC queues first;
 *  - ejection runs before switching: each router visits its input
 *    queues in position order and sinks at most one flit per local
 *    node, so slots freed now are usable next cycle, not this one;
 *  - output links are then serviced in link-id order, each moving at
 *    most one flit: the first input queue, in round-robin order from
 *    the link's pointer, whose ready head may use the link (it routes
 *    there, holds or may take the VC, and has a downstream credit);
 *  - a queue popped by an earlier link may offer its next head to a
 *    later link in the same cycle;
 *  - the pointer becomes the winner's position + 1, mod the router's
 *    input-queue count.
 *
 * Routing is static, so every head has exactly one place it can
 * leave by: one output link, or ejection at its destination router.
 * Each router keeps, per output link and for ejection, the set of
 * input-queue positions whose head goes there, updated whenever a head
 * changes. Links and ejection visit only their own candidates, so a
 * cycle costs in proportion to the queued heads, not links x queues.
 */

#ifndef CRYOWIRE_NETSIM_ROUTER_NET_HH
#define CRYOWIRE_NETSIM_ROUTER_NET_HH

#include <unordered_map>
#include <vector>

#include "netsim/network.hh"
#include "noc/noc_config.hh"
#include "util/sliding_queue.hh"

namespace cryo::netsim
{

/** Construction parameters of a router network. */
struct RouterNetConfig
{
    noc::TopologyKind kind = noc::TopologyKind::Mesh;
    int cores = 64;
    int concentration = 1;   ///< cores per router (4 for CMesh/FB)
    int routerCycles = 1;    ///< pipeline depth per hop
    int virtualChannels = 4; ///< VCs per input link
    int vcBufferFlits = 3;   ///< buffer depth per VC [33]
    int hopsPerCycle = 4;    ///< link speed from the wire-link model

    /** Derive from an analytic design point. */
    static RouterNetConfig fromConfig(const noc::NocConfig &cfg);

    bool operator==(const RouterNetConfig &) const = default;
};

/**
 * The router-network simulator.
 */
class RouterNetwork : public Network
{
  public:
    explicit RouterNetwork(RouterNetConfig cfg);

    void inject(const Packet &p) override;
    void step() override;
    Cycle now() const override { return now_; }
    int nodes() const override { return cfg_.cores; }
    std::size_t inFlight() const override { return active_.size(); }

    int routerCount() const { return routers_; }

    /** Link traversal cycles for a @p spacings-long express link. */
    int linkCycles(int spacings) const;

    /** The flow's VC on every link (deterministic, order-preserving). */
    int flowVc(int src, int dst) const;

  private:
    struct FlitEntry
    {
        std::uint64_t pkt;
        Cycle readyAt;
        int dstRouter; ///< the destination node's router
        int dstPort;   ///< and its ejection port there
        int vc;        ///< virtual channel of the flow
        bool head;
        bool tail;
    };

    struct InQueue
    {
        SlidingQueue<FlitEntry> q;
        int reserved = 0;          ///< occupied + in-flight slots
        int capacity;              ///< 0 = unbounded (NI source queues)
        int router;                ///< router this queue feeds
        int pos;                   ///< index in inQueueIds_[router]
    };

    struct Link
    {
        int from;
        int to;
        int toQueueBase; ///< first VC queue id at the destination
        int cycles;
        /** Wormhole owner per VC (0 = free). */
        std::vector<std::uint64_t> lockedPkt;
        /** Input queue feeding each VC's owner. */
        std::vector<int> lockedQueue;
    };

    struct Arrival
    {
        Cycle at;
        int queue;
        FlitEntry flit;
    };

    int routerOf(int node) const { return node / cfg_.concentration; }
    int routerX(int r) const { return r % gridSide_; }
    int routerY(int r) const { return r / gridSide_; }
    int routerAt(int x, int y) const { return y * gridSide_ + x; }

    /** Output link id for the next hop toward @p dst_router; -1 if
     * the packet ejects here. Only the constructor calls it. */
    int route(int router, int dst_router) const;

    void buildMeshLinks(int spacing_hops);
    void buildButterflyLinks(int spacing_hops);
    void addLink(int from, int to, int cycles);
    /** Add an input queue at @p router; returns its id. */
    int addQueue(int router, int capacity);

    /** The candidate set of router @p r's ejection port. */
    int ejectSet(int r) const
    {
        return static_cast<int>(links_.size()) + r;
    }

    /** Put @p q's head, if any, into the set of where it leaves by. */
    void enlistHead(const InQueue &q);

    /** Pop @p q's head, a member of @p set, and enlist the next one. */
    void popHead(InQueue &q, int set);

    /** Try to advance one flit through output link @p lid. */
    void serviceLink(int lid);

    /** Try to eject one flit at router @p r for each local node. */
    void serviceEjection(int r);

    RouterNetConfig cfg_;
    int routers_;
    int gridSide_;
    Cycle now_ = 0;

    std::vector<Link> links_;
    std::vector<std::vector<int>> outLinks_;     ///< per router
    std::vector<std::vector<int>> inQueueIds_;   ///< per router
    std::vector<InQueue> queues_;
    std::vector<int> injectQueueId_;             ///< per node
    std::vector<int> rrPointer_;                 ///< per link, RR state
    /**
     * [router x dstRouter] -> the set a head there joins: its output
     * link id, or ejectSet(router) at the destination.
     */
    std::vector<int> hopSet_;
    /**
     * Candidate sets, one per link then one per router's ejection:
     * candWords_ words each, bit i = input-queue position i.
     */
    std::vector<std::uint64_t> cand_;
    int candWords_ = 1;
    std::unordered_map<std::uint64_t, Packet> active_;
    std::vector<Arrival> inFlight_;
    /** Per-cycle ejection-port mask, reused across cycles. */
    std::vector<bool> ejectScratch_;
};

} // namespace cryo::netsim

#endif // CRYOWIRE_NETSIM_ROUTER_NET_HH
