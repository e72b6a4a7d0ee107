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
 *    input-queue count;
 *  - a head is ready from its readyAt cycle on: the cycle its link
 *    traversal and the downstream router pipeline end, or at an NI,
 *    the router pipeline after injection plus one cycle per earlier
 *    flit of its packet. Only ready heads are candidates. A head that
 *    reaches the front of its queue before then waits in a ready
 *    wheel and joins its link's or ejection's set at the start of its
 *    readyAt cycle, before ejection; a head that is ready on reaching
 *    the front joins at once.
 *
 * Routing is static, so every head has exactly one place it can
 * leave by: one output link, or ejection at its destination router.
 * Each router keeps, per output link and for ejection, the set of
 * input-queue positions whose ready head goes there, and a live bitset
 * marks the non-empty sets. A cycle visits only live sets, in id
 * order, reading the bitset afresh after each visit, so a set a head
 * joins mid-cycle is still visited if its id is higher. A cycle costs
 * in proportion to the ready heads, not links x queues.
 *
 * Storage is flat. Input queues are numbered router by router
 * (qid = first queue of the router + position), so a candidate bit
 * maps to its queue with one add. Each VC queue is a ring of
 * vcBufferFlits slots in one shared array: a flit takes its slot when
 * it is sent, which the credit check already reserved, so there is no
 * list of flits on the wires. Every queue keeps a copy of its head
 * flit; only the unbounded NI source queues are SlidingQueues. Packets
 * in flight live in a slab; a flit carries its packet's slot, which is
 * also the packet's identity for the wormhole locks, and an id -> slot
 * index exists only for inject()'s duplicate-id check.
 */

#ifndef CRYOWIRE_NETSIM_ROUTER_NET_HH
#define CRYOWIRE_NETSIM_ROUTER_NET_HH

#include <cstdint>
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
    std::size_t inFlight() const override { return ids_.size(); }

    int routerCount() const { return routers_; }

    /** Link traversal cycles for a @p spacings-long express link. */
    int linkCycles(int spacings) const;

    /** The flow's VC on every link (deterministic, order-preserving). */
    int flowVc(int src, int dst) const;

  private:
    /** One flit: 24 bytes, the unit every queue stores and copies. */
    struct FlitEntry
    {
        Cycle readyAt;      ///< first cycle it may leave its queue
        std::uint32_t pkt;  ///< its packet's slab slot
        int dstRouter;      ///< the destination node's router
        int dst;            ///< the destination node (its ejection port)
        std::uint16_t vc;   ///< virtual channel of the flow
        bool head;
        bool tail;
    };
    static_assert(sizeof(FlitEntry) <= 24);

    /** An input queue: a VC buffer (a ring) or an NI source queue. */
    struct InQueue
    {
        FlitEntry front{}; ///< copy of the head flit while reserved > 0
        int reserved = 0;  ///< VC: occupied + in-flight slots; NI: flits
        int ringHead = 0;  ///< VC: ring slot of the head flit
    };

    struct Link
    {
        int from;
        int to;
        int toQueueBase; ///< first VC queue id at the destination
        int cycles;
        int rrPointer = 0; ///< position the next arbitration starts at
    };

    /** The wormhole owner of one [link x VC]. */
    struct VcLock
    {
        std::uint32_t pkt; ///< owner's slab slot; kNoPacket = free
        int queue;         ///< input queue feeding the owner
    };

    /** A head that is not ready yet: where it joins, once it is. */
    struct Waiter
    {
        int set;
        int pos;
    };

    /**
     * Open-addressed id -> slab slot index (linear probing, at most
     * half full, backward-shift erase). It stores slots only and reads
     * ids from the slab, so an entry is 4 bytes.
     */
    class SlotIndex
    {
      public:
        /** Record @p slot under @p id; false if @p id is present. */
        bool insert(std::uint64_t id, std::uint32_t slot,
                    const std::vector<Packet> &slab);
        /** Drop @p slot, recorded under @p id. */
        void erase(std::uint64_t id, std::uint32_t slot,
                   const std::vector<Packet> &slab);
        std::size_t size() const { return size_; }

      private:
        std::size_t home(std::uint64_t id) const;
        void grow(const std::vector<Packet> &slab);

        std::vector<std::uint32_t> table_;
        std::size_t size_ = 0;
        int shift_ = 64;
    };

    static constexpr std::uint32_t kNoPacket = ~std::uint32_t{0};

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

    /** The candidate set of router @p r's ejection port. */
    int ejectSet(int r) const
    {
        return static_cast<int>(links_.size()) + r;
    }

    /** Put position @p pos into candidate set @p set. */
    void join(int set, int pos);

    /** Take position @p pos out of candidate set @p set. */
    void leave(int set, int pos);

    /**
     * @p f has just become the head at router @p r's position @p pos:
     * join its set now if it is ready, else wait in the ready wheel.
     */
    void offerHead(int r, int pos, const FlitEntry &f);

    /** Pop the head at router @p r's position @p pos, a member of
     * @p set, and offer the next one. */
    void popHead(int r, int pos, int set);

    /** Try to advance one flit through output link @p lid. */
    void serviceLink(int lid);

    /** Try to eject one flit at router @p r for each local node. */
    void serviceEjection(int r);

    RouterNetConfig cfg_;
    int routers_;
    int gridSide_;
    Cycle now_ = 0;

    std::vector<Link> links_;
    std::vector<std::vector<int>> outLinks_; ///< per router
    /** Per router, then one past the last: its first queue id. */
    std::vector<int> queueBase_;
    /** Per router: its VC queues, positions [0, n); NI queues follow. */
    std::vector<int> vcQueues_;
    std::vector<InQueue> queues_;
    /** VC rings: vcBufferFlits slots per queue id, NI ids unused. */
    std::vector<FlitEntry> ring_;
    std::vector<SlidingQueue<FlitEntry>> niQueues_; ///< per node
    std::vector<VcLock> locks_;                     ///< [link x VC]
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
    /** Bit s set = candidate set s is non-empty. */
    std::vector<std::uint64_t> live_;
    /** Heads not ready yet, by readyAt mod the wheel's size. */
    std::vector<std::vector<Waiter>> wheel_;
    /** Last cycle each node's ejection port sank a flit. */
    std::vector<Cycle> ejectedAt_;
    std::vector<Packet> packets_; ///< slab: packets in flight by slot
    std::vector<std::uint32_t> freeSlots_;
    SlotIndex ids_;
};

} // namespace cryo::netsim

#endif // CRYOWIRE_NETSIM_ROUTER_NET_HH
