#include "router_net.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/diag.hh"

namespace cryo::netsim
{

namespace
{

/**
 * Call @p visit(pos) for each bit set in the @p words -word set
 * @p set, in increasing position order from @p start and then
 * wrapping round to the positions below it, until @p visit returns
 * true. Each word is read once before its bits are visited, so
 * @p visit may clear or re-set the bit it was handed.
 */
template <class F>
void
visitFrom(const std::uint64_t *set, int words, int start, F &&visit)
{
    int w = start >> 6;
    std::uint64_t bits = set[w] & (~std::uint64_t{0} << (start & 63));
    for (int k = 0;;) {
        while (bits != 0) {
            const int pos = (w << 6) + std::countr_zero(bits);
            bits &= bits - 1;
            if (visit(pos))
                return;
        }
        if (++k > words)
            return;
        w = w + 1 == words ? 0 : w + 1;
        bits = set[w];
        if (k == words) // back at the start word: only below start
            bits &= (std::uint64_t{1} << (start & 63)) - 1;
    }
}

} // namespace

RouterNetConfig
RouterNetConfig::fromConfig(const noc::NocConfig &cfg)
{
    RouterNetConfig out;
    out.kind = cfg.topology().kind();
    out.cores = cfg.topology().cores();
    const int routers = cfg.topology().routerCount();
    fatalIf(routers <= 0, "router network needs routers");
    out.concentration = out.cores / routers;
    out.routerCycles = cfg.routerSpec().pipelineCycles;
    out.virtualChannels = cfg.routerSpec().virtualChannels;
    out.vcBufferFlits = cfg.routerSpec().bufferDepth;
    out.hopsPerCycle = cfg.hopsPerCycle();
    return out;
}

RouterNetwork::RouterNetwork(RouterNetConfig cfg) : cfg_(cfg)
{
    fatalIf(cfg_.cores < 4, "network needs at least 4 cores");
    fatalIf(cfg_.concentration < 1, "concentration must be >= 1");
    fatalIf(cfg_.cores % cfg_.concentration != 0,
            "cores must divide evenly across routers");
    fatalIf(cfg_.routerCycles < 1, "router pipeline must be >= 1 cycle");
    fatalIf(cfg_.virtualChannels < 1, "need at least one VC");
    fatalIf(cfg_.vcBufferFlits < 1, "VC buffers must hold >= 1 flit");
    fatalIf(cfg_.hopsPerCycle < 1, "links cover >= 1 hop per cycle");

    routers_ = cfg_.cores / cfg_.concentration;
    gridSide_ = static_cast<int>(std::lround(std::sqrt(routers_)));
    fatalIf(gridSide_ * gridSide_ != routers_,
            "router count must form a square grid");

    outLinks_.resize(static_cast<std::size_t>(routers_));
    inQueueIds_.resize(static_cast<std::size_t>(routers_));

    // Router spacing in tile hops: concentrated networks space their
    // routers sqrt(concentration) tiles apart.
    const int spacing = static_cast<int>(
        std::lround(std::sqrt(static_cast<double>(cfg_.concentration))));

    switch (cfg_.kind) {
      case noc::TopologyKind::Mesh:
      case noc::TopologyKind::CMesh:
        buildMeshLinks(spacing);
        break;
      case noc::TopologyKind::FlattenedButterfly:
        buildButterflyLinks(spacing);
        break;
      default:
        fatal("RouterNetwork only models Mesh, CMesh and FB");
    }

    // One injection queue per node at its local router (the NI source
    // queue: unbounded, latency accrues there under overload).
    injectQueueId_.resize(static_cast<std::size_t>(cfg_.cores));
    for (int n = 0; n < cfg_.cores; ++n) {
        injectQueueId_[static_cast<std::size_t>(n)] =
            addQueue(routerOf(n), 0);
    }

    rrPointer_.assign(links_.size(), 0);

    // Routing is static: resolve every (router, destination router)
    // pair once, to the candidate set a head bound there joins.
    hopSet_.resize(static_cast<std::size_t>(routers_) *
                   static_cast<std::size_t>(routers_));
    for (int r = 0; r < routers_; ++r) {
        for (int d = 0; d < routers_; ++d) {
            const int lid = route(r, d);
            hopSet_[static_cast<std::size_t>(r * routers_ + d)] =
                lid < 0 ? ejectSet(r) : lid;
        }
    }

    std::size_t widest = 0;
    for (const auto &ids : inQueueIds_)
        widest = std::max(widest, ids.size());
    candWords_ = static_cast<int>((widest + 63) / 64);
    cand_.assign((links_.size() + static_cast<std::size_t>(routers_)) *
                     static_cast<std::size_t>(candWords_),
                 0);
}

int
RouterNetwork::addQueue(int router, int capacity)
{
    auto &ids = inQueueIds_[static_cast<std::size_t>(router)];
    const int qid = static_cast<int>(queues_.size());
    queues_.push_back({{}, 0, capacity, router,
                       static_cast<int>(ids.size())});
    ids.push_back(qid);
    return qid;
}

int
RouterNetwork::linkCycles(int spacings) const
{
    const int hops = std::max(1, spacings);
    return std::max(1, (hops + cfg_.hopsPerCycle - 1) / cfg_.hopsPerCycle);
}

int
RouterNetwork::flowVc(int src, int dst) const
{
    // Static per-flow VC: preserves same-flow ordering and keeps the
    // dimension-ordered channel-dependency graph acyclic.
    const unsigned mix = static_cast<unsigned>(src) * 2654435761u
        + static_cast<unsigned>(dst) * 40503u;
    return static_cast<int>(mix % static_cast<unsigned>(
        cfg_.virtualChannels));
}

void
RouterNetwork::addLink(int from, int to, int cycles)
{
    Link l;
    l.from = from;
    l.to = to;
    l.cycles = cycles;
    l.lockedPkt.assign(static_cast<std::size_t>(cfg_.virtualChannels),
                       0);
    l.lockedQueue.assign(static_cast<std::size_t>(cfg_.virtualChannels),
                         -1);
    // One buffered queue per VC at the downstream input.
    l.toQueueBase = static_cast<int>(queues_.size());
    for (int v = 0; v < cfg_.virtualChannels; ++v)
        addQueue(to, cfg_.vcBufferFlits);
    outLinks_[static_cast<std::size_t>(from)].push_back(
        static_cast<int>(links_.size()));
    links_.push_back(std::move(l));
}

void
RouterNetwork::buildMeshLinks(int spacing_hops)
{
    const int c = linkCycles(spacing_hops);
    for (int r = 0; r < routers_; ++r) {
        const int x = routerX(r);
        const int y = routerY(r);
        if (x + 1 < gridSide_)
            addLink(r, routerAt(x + 1, y), c);
        if (x > 0)
            addLink(r, routerAt(x - 1, y), c);
        if (y + 1 < gridSide_)
            addLink(r, routerAt(x, y + 1), c);
        if (y > 0)
            addLink(r, routerAt(x, y - 1), c);
    }
}

void
RouterNetwork::buildButterflyLinks(int spacing_hops)
{
    // Express links to every router in the same row and column, with
    // traversal cycles proportional to the physical span.
    for (int r = 0; r < routers_; ++r) {
        const int x = routerX(r);
        const int y = routerY(r);
        for (int ox = 0; ox < gridSide_; ++ox) {
            if (ox != x) {
                addLink(r, routerAt(ox, y),
                        linkCycles(std::abs(ox - x) * spacing_hops));
            }
        }
        for (int oy = 0; oy < gridSide_; ++oy) {
            if (oy != y) {
                addLink(r, routerAt(x, oy),
                        linkCycles(std::abs(oy - y) * spacing_hops));
            }
        }
    }
}

int
RouterNetwork::route(int router, int dst_router) const
{
    if (router == dst_router)
        return -1;
    const int x = routerX(router);
    const int y = routerY(router);
    const int dx = routerX(dst_router);
    const int dy = routerY(dst_router);

    int next;
    switch (cfg_.kind) {
      case noc::TopologyKind::Mesh:
      case noc::TopologyKind::CMesh:
        // Dimension-ordered XY routing (deadlock-free).
        if (x != dx)
            next = routerAt(x + (dx > x ? 1 : -1), y);
        else
            next = routerAt(x, y + (dy > y ? 1 : -1));
        break;
      case noc::TopologyKind::FlattenedButterfly:
        // Row express link first, then column (minimal, <= 2 hops).
        next = (x != dx) ? routerAt(dx, y) : routerAt(x, dy);
        break;
      default:
        panic("unsupported topology in route()");
    }
    for (int lid : outLinks_[static_cast<std::size_t>(router)]) {
        if (links_[static_cast<std::size_t>(lid)].to == next)
            return lid;
    }
    fatal("route produced a missing link");
}

void
RouterNetwork::inject(const Packet &p)
{
    fatalIf(p.src < 0 || p.src >= cfg_.cores, "source out of range");
    fatalIf(p.dst < 0 || p.dst >= cfg_.cores, "destination out of range");
    fatalIf(p.id == 0, "packet ids must be non-zero");
    fatalIf(p.flits < 1, "packets carry at least one flit");
    Packet copy = p;
    copy.injected = now_;
    fatalIf(!active_.emplace(copy.id, copy).second,
            "packet id already in flight");
    auto &q =
        queues_[static_cast<std::size_t>(injectQueueId_[
            static_cast<std::size_t>(p.src)])];
    const bool was_empty = q.q.empty();
    const int vc = flowVc(p.src, p.dst);
    for (int s = 0; s < p.flits; ++s) {
        // The NI presents flits back-to-back after the local router's
        // pipeline latency.
        q.q.push_back({copy.id,
                       now_ + static_cast<Cycle>(cfg_.routerCycles + s),
                       routerOf(p.dst), p.dst % cfg_.concentration, vc,
                       s == 0, s == p.flits - 1});
        q.reserved += 1;
    }
    if (was_empty)
        enlistHead(q);
}

void
RouterNetwork::enlistHead(const InQueue &q)
{
    if (q.q.empty())
        return;
    const int set = hopSet_[static_cast<std::size_t>(
        q.router * routers_ + q.q.front().dstRouter)];
    cand_[static_cast<std::size_t>(set * candWords_ + (q.pos >> 6))] |=
        std::uint64_t{1} << (q.pos & 63);
}

void
RouterNetwork::popHead(InQueue &q, int set)
{
    q.q.pop_front();
    q.reserved -= 1;
    cand_[static_cast<std::size_t>(set * candWords_ + (q.pos >> 6))] &=
        ~(std::uint64_t{1} << (q.pos & 63));
    enlistHead(q);
}

void
RouterNetwork::serviceLink(int lid)
{
    Link &l = links_[static_cast<std::size_t>(lid)];
    const auto &in_ids = inQueueIds_[static_cast<std::size_t>(l.from)];
    int &ptr = rrPointer_[static_cast<std::size_t>(lid)];

    // Every candidate's head routes out through this link, so only the
    // VC, readiness and credit checks remain.
    auto try_send = [&](int pos) -> bool {
        const int qid = in_ids[static_cast<std::size_t>(pos)];
        InQueue &q = queues_[static_cast<std::size_t>(qid)];
        FlitEntry &f = q.q.front();
        if (f.readyAt > now_)
            return false;

        const auto vc = static_cast<std::size_t>(f.vc);
        if (l.lockedPkt[vc] != 0) {
            // The VC is held by a packet in flight; only its next flit
            // (from the same input queue) may use it.
            if (f.pkt != l.lockedPkt[vc] || qid != l.lockedQueue[vc])
                return false;
        } else if (!f.head) {
            return false;
        }

        InQueue &dst_q =
            queues_[static_cast<std::size_t>(l.toQueueBase + f.vc)];
        if (dst_q.capacity > 0 && dst_q.reserved >= dst_q.capacity)
            return false; // no credit downstream on this VC

        // Move the flit: it arrives after the wire traversal and is
        // routable after the downstream router pipeline.
        FlitEntry moved = f;
        moved.readyAt = now_ + static_cast<Cycle>(l.cycles)
            + static_cast<Cycle>(cfg_.routerCycles);
        dst_q.reserved += 1;
        inFlight_.push_back(
            {now_ + static_cast<Cycle>(l.cycles),
             l.toQueueBase + f.vc, moved});

        if (moved.head) {
            l.lockedPkt[vc] = moved.pkt;
            l.lockedQueue[vc] = qid;
        }
        if (moved.tail) {
            l.lockedPkt[vc] = 0;
            l.lockedQueue[vc] = -1;
        }
        popHead(q, lid);
        const int next = pos + 1;
        ptr = next == static_cast<int>(in_ids.size()) ? 0 : next;
        return true;
    };

    // One flit per cycle crosses the physical channel; round-robin
    // across this router's input queues (covering all VCs) arbitrates
    // both switch allocation and VC interleaving.
    visitFrom(&cand_[static_cast<std::size_t>(lid * candWords_)],
              candWords_, ptr, try_send);
}

void
RouterNetwork::serviceEjection(int r)
{
    // One ejection port per router-local node; each can sink one flit
    // per cycle.
    const int set = ejectSet(r);
    const std::uint64_t *members =
        &cand_[static_cast<std::size_t>(set * candWords_)];
    if (std::all_of(members, members + candWords_,
                    [](std::uint64_t w) { return w == 0; }))
        return;
    const auto &in_ids = inQueueIds_[static_cast<std::size_t>(r)];
    std::vector<bool> &port_used = ejectScratch_;
    port_used.assign(static_cast<std::size_t>(cfg_.concentration), false);
    visitFrom(members, candWords_, 0, [&](int pos) {
        const int qid = in_ids[static_cast<std::size_t>(pos)];
        InQueue &q = queues_[static_cast<std::size_t>(qid)];
        const FlitEntry &f = q.q.front();
        if (f.readyAt > now_)
            return false;
        const auto port = static_cast<std::size_t>(f.dstPort);
        if (port_used[port])
            return false;
        port_used[port] = true;
        if (f.tail) {
            const auto it = active_.find(f.pkt);
            it->second.delivered = now_;
            delivered_.push_back(it->second);
            active_.erase(it);
        }
        popHead(q, set);
        return false;
    });
}

void
RouterNetwork::step()
{
    // 1. Land in-flight flits that arrive this cycle. Per-VC queues
    //    are each fed by one link at one flit per cycle, so order is
    //    preserved; one stable compaction pass (order-preserving)
    //    replaces repeated O(n) mid-scan erases.
    std::size_t keep = 0;
    for (auto &arrival : inFlight_) {
        if (arrival.at <= now_) {
            InQueue &q = queues_[static_cast<std::size_t>(arrival.queue)];
            q.q.push_back(arrival.flit);
            if (q.q.size() == 1)
                enlistHead(q);
        } else {
            inFlight_[keep++] = arrival;
        }
    }
    inFlight_.resize(keep);

    // 2. Eject before switching so freshly freed slots are usable next
    //    cycle (not this one), matching a real credit round-trip.
    for (int r = 0; r < routers_; ++r)
        serviceEjection(r);

    // 3. Switch allocation per output link, in id order.
    for (int lid = 0; lid < static_cast<int>(links_.size()); ++lid)
        serviceLink(lid);

    ++now_;
}

} // namespace cryo::netsim
