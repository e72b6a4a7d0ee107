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

/**
 * Call @p visit(s) for each bit s in [@p first, @p end) of @p live, in
 * increasing order. The bitset is read afresh after every visit, so a
 * bit above s that @p visit sets is visited too, and one it clears is
 * not.
 */
template <class F>
void
forEachLive(const std::vector<std::uint64_t> &live, int first, int end,
            F &&visit)
{
    for (int s = first; s < end; ++s) {
        const std::uint64_t bits =
            live[static_cast<std::size_t>(s >> 6)] &
            (~std::uint64_t{0} << (s & 63));
        if (bits == 0) {
            s |= 63; // on to the next word
            continue;
        }
        s = (s & ~63) + std::countr_zero(bits);
        if (s >= end)
            return;
        visit(s);
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
    fatalIf(cfg_.virtualChannels > UINT16_MAX,
            "at most 65535 VCs per link");
    fatalIf(cfg_.vcBufferFlits < 1, "VC buffers must hold >= 1 flit");
    fatalIf(cfg_.hopsPerCycle < 1, "links cover >= 1 hop per cycle");

    routers_ = cfg_.cores / cfg_.concentration;
    gridSide_ = static_cast<int>(std::lround(std::sqrt(routers_)));
    fatalIf(gridSide_ * gridSide_ != routers_,
            "router count must form a square grid");

    outLinks_.resize(static_cast<std::size_t>(routers_));
    vcQueues_.assign(static_cast<std::size_t>(routers_), 0);

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

    // Number the input queues router by router. A router's positions
    // run over one VC queue per VC of each incoming link, in link-id
    // order, then one NI source queue per local node (the injection
    // queue: unbounded, latency accrues there under overload).
    queueBase_.assign(static_cast<std::size_t>(routers_) + 1, 0);
    int widest = 0;
    for (int r = 0; r < routers_; ++r) {
        const int count =
            vcQueues_[static_cast<std::size_t>(r)] + cfg_.concentration;
        queueBase_[static_cast<std::size_t>(r) + 1] =
            queueBase_[static_cast<std::size_t>(r)] + count;
        widest = std::max(widest, count);
    }
    std::vector<int> next_pos(static_cast<std::size_t>(routers_), 0);
    for (Link &l : links_) {
        int &pos = next_pos[static_cast<std::size_t>(l.to)];
        l.toQueueBase = queueBase_[static_cast<std::size_t>(l.to)] + pos;
        pos += cfg_.virtualChannels;
    }
    const auto queue_count = static_cast<std::size_t>(queueBase_.back());
    queues_.resize(queue_count);
    ring_.resize(queue_count * static_cast<std::size_t>(cfg_.vcBufferFlits));
    niQueues_.resize(static_cast<std::size_t>(cfg_.cores));
    locks_.assign(links_.size() *
                      static_cast<std::size_t>(cfg_.virtualChannels),
                  {kNoPacket, -1});
    ejectedAt_.assign(static_cast<std::size_t>(cfg_.cores), ~Cycle{0});

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

    candWords_ = (widest + 63) / 64;
    const std::size_t sets =
        links_.size() + static_cast<std::size_t>(routers_);
    cand_.assign(sets * static_cast<std::size_t>(candWords_), 0);
    live_.assign((sets + 63) / 64, 0);

    // The longest a head waits: a flit sent into an empty VC queue
    // becomes its head at once, and is ready one link traversal plus
    // the router pipeline later. An NI head waits the pipeline alone.
    int longest_link = 0;
    for (const Link &l : links_)
        longest_link = std::max(longest_link, l.cycles);
    wheel_.resize(std::bit_ceil(
        static_cast<std::size_t>(cfg_.routerCycles + longest_link) + 1));
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
    // One buffered queue per VC at the downstream input; the
    // constructor numbers them once every link exists.
    vcQueues_[static_cast<std::size_t>(to)] += cfg_.virtualChannels;
    outLinks_[static_cast<std::size_t>(from)].push_back(
        static_cast<int>(links_.size()));
    links_.push_back({from, to, -1, cycles});
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

std::size_t
RouterNetwork::SlotIndex::home(std::uint64_t id) const
{
    // Fibonacci hashing: the multiply spreads dense ids, and ids that
    // differ only in a high bit, over the top bits.
    return static_cast<std::size_t>((id * 0x9e3779b97f4a7c15ull) >>
                                    shift_);
}

void
RouterNetwork::SlotIndex::grow(const std::vector<Packet> &slab)
{
    const std::vector<std::uint32_t> old = std::move(table_);
    table_.assign(old.empty() ? 64 : 2 * old.size(), kNoPacket);
    shift_ = 64 - std::countr_zero(table_.size());
    const std::size_t mask = table_.size() - 1;
    for (const std::uint32_t slot : old) {
        if (slot == kNoPacket)
            continue;
        std::size_t i = home(slab[slot].id);
        while (table_[i] != kNoPacket)
            i = (i + 1) & mask;
        table_[i] = slot;
    }
}

bool
RouterNetwork::SlotIndex::insert(std::uint64_t id, std::uint32_t slot,
                                 const std::vector<Packet> &slab)
{
    if (2 * (size_ + 1) > table_.size())
        grow(slab);
    const std::size_t mask = table_.size() - 1;
    for (std::size_t i = home(id);; i = (i + 1) & mask) {
        if (table_[i] == kNoPacket) {
            table_[i] = slot;
            ++size_;
            return true;
        }
        if (slab[table_[i]].id == id)
            return false;
    }
}

void
RouterNetwork::SlotIndex::erase(std::uint64_t id, std::uint32_t slot,
                                const std::vector<Packet> &slab)
{
    const std::size_t mask = table_.size() - 1;
    std::size_t hole = home(id);
    while (table_[hole] != slot)
        hole = (hole + 1) & mask;
    // Backward shift: move each later entry of the probe run into the
    // hole, unless that would put it before its home.
    for (std::size_t j = (hole + 1) & mask; table_[j] != kNoPacket;
         j = (j + 1) & mask) {
        const std::size_t h = home(slab[table_[j]].id);
        if (((j - h) & mask) >= ((j - hole) & mask)) {
            table_[hole] = table_[j];
            hole = j;
        }
    }
    table_[hole] = kNoPacket;
    --size_;
}

void
RouterNetwork::inject(const Packet &p)
{
    fatalIf(p.src < 0 || p.src >= cfg_.cores, "source out of range");
    fatalIf(p.dst < 0 || p.dst >= cfg_.cores, "destination out of range");
    fatalIf(p.id == 0, "packet ids must be non-zero");
    fatalIf(p.flits < 1, "packets carry at least one flit");
    const bool reuse = !freeSlots_.empty();
    const std::uint32_t slot = reuse
        ? freeSlots_.back()
        : static_cast<std::uint32_t>(packets_.size());
    fatalIf(!ids_.insert(p.id, slot, packets_),
            "packet id already in flight");
    Packet copy = p;
    copy.injected = now_;
    if (reuse) {
        freeSlots_.pop_back();
        packets_[slot] = copy;
    } else {
        packets_.push_back(copy);
    }

    const int r = routerOf(p.src);
    const int pos = vcQueues_[static_cast<std::size_t>(r)] +
        p.src % cfg_.concentration;
    InQueue &q = queues_[static_cast<std::size_t>(
        queueBase_[static_cast<std::size_t>(r)] + pos)];
    auto &ni = niQueues_[static_cast<std::size_t>(p.src)];
    const bool was_empty = ni.empty();
    const int dst_router = routerOf(p.dst);
    const auto vc = static_cast<std::uint16_t>(flowVc(p.src, p.dst));
    for (int s = 0; s < p.flits; ++s) {
        // The NI presents flits back-to-back after the local router's
        // pipeline latency.
        ni.push_back({now_ + static_cast<Cycle>(cfg_.routerCycles + s),
                      slot, dst_router, p.dst, vc, s == 0,
                      s == p.flits - 1});
    }
    q.reserved += p.flits;
    if (was_empty) {
        q.front = ni.front();
        offerHead(r, pos, q.front);
    }
}

void
RouterNetwork::join(int set, int pos)
{
    cand_[static_cast<std::size_t>(set * candWords_ + (pos >> 6))] |=
        std::uint64_t{1} << (pos & 63);
    live_[static_cast<std::size_t>(set >> 6)] |= std::uint64_t{1}
        << (set & 63);
}

void
RouterNetwork::leave(int set, int pos)
{
    std::uint64_t *words =
        &cand_[static_cast<std::size_t>(set * candWords_)];
    words[pos >> 6] &= ~(std::uint64_t{1} << (pos & 63));
    if (std::all_of(words, words + candWords_,
                    [](std::uint64_t w) { return w == 0; })) {
        live_[static_cast<std::size_t>(set >> 6)] &=
            ~(std::uint64_t{1} << (set & 63));
    }
}

void
RouterNetwork::offerHead(int r, int pos, const FlitEntry &f)
{
    const int set =
        hopSet_[static_cast<std::size_t>(r * routers_ + f.dstRouter)];
    if (f.readyAt <= now_) {
        join(set, pos);
        return;
    }
    if (f.readyAt - now_ >= wheel_.size())
        panic("a head waits longer than the ready wheel spans");
    wheel_[static_cast<std::size_t>(f.readyAt & (wheel_.size() - 1))]
        .push_back({set, pos});
}

void
RouterNetwork::popHead(int r, int pos, int set)
{
    leave(set, pos);
    const int qid = queueBase_[static_cast<std::size_t>(r)] + pos;
    InQueue &q = queues_[static_cast<std::size_t>(qid)];
    --q.reserved;
    const int vc_queues = vcQueues_[static_cast<std::size_t>(r)];
    if (pos < vc_queues) {
        q.ringHead =
            q.ringHead + 1 == cfg_.vcBufferFlits ? 0 : q.ringHead + 1;
        if (q.reserved == 0)
            return;
        q.front = ring_[static_cast<std::size_t>(
            qid * cfg_.vcBufferFlits + q.ringHead)];
    } else {
        auto &ni = niQueues_[static_cast<std::size_t>(
            r * cfg_.concentration + pos - vc_queues)];
        ni.pop_front();
        if (ni.empty())
            return;
        q.front = ni.front();
    }
    offerHead(r, pos, q.front);
}

void
RouterNetwork::serviceLink(int lid)
{
    Link &l = links_[static_cast<std::size_t>(lid)];
    const int base = queueBase_[static_cast<std::size_t>(l.from)];
    const int count =
        queueBase_[static_cast<std::size_t>(l.from) + 1] - base;
    VcLock *locks =
        &locks_[static_cast<std::size_t>(lid * cfg_.virtualChannels)];

    // Every candidate's head is ready and routes out through this
    // link, so only the VC and credit checks remain.
    auto try_send = [&](int pos) -> bool {
        const int qid = base + pos;
        const FlitEntry &f = queues_[static_cast<std::size_t>(qid)].front;
        VcLock &lock = locks[f.vc];
        if (lock.pkt != kNoPacket) {
            // The VC is held by a packet in flight; only its next flit
            // (from the same input queue) may use it.
            if (f.pkt != lock.pkt || qid != lock.queue)
                return false;
        } else if (!f.head) {
            return false;
        }

        const int dst_qid = l.toQueueBase + f.vc;
        InQueue &dst_q = queues_[static_cast<std::size_t>(dst_qid)];
        if (dst_q.reserved >= cfg_.vcBufferFlits)
            return false; // no credit downstream on this VC

        // Move the flit into the ring slot its credit reserved: it
        // arrives after the wire traversal and is routable after the
        // downstream router pipeline.
        FlitEntry moved = f;
        moved.readyAt = now_ + static_cast<Cycle>(l.cycles)
            + static_cast<Cycle>(cfg_.routerCycles);
        int slot = dst_q.ringHead + dst_q.reserved;
        if (slot >= cfg_.vcBufferFlits)
            slot -= cfg_.vcBufferFlits;
        ring_[static_cast<std::size_t>(
            dst_qid * cfg_.vcBufferFlits + slot)] = moved;
        if (dst_q.reserved++ == 0) {
            dst_q.front = moved;
            offerHead(l.to,
                      dst_qid - queueBase_[static_cast<std::size_t>(l.to)],
                      moved);
        }

        if (moved.head)
            lock = {moved.pkt, qid};
        if (moved.tail)
            lock = {kNoPacket, -1};
        popHead(l.from, pos, lid);
        const int next = pos + 1;
        l.rrPointer = next == count ? 0 : next;
        return true;
    };

    // One flit per cycle crosses the physical channel; round-robin
    // across this router's input queues (covering all VCs) arbitrates
    // both switch allocation and VC interleaving.
    visitFrom(&cand_[static_cast<std::size_t>(lid * candWords_)],
              candWords_, l.rrPointer, try_send);
}

void
RouterNetwork::serviceEjection(int r)
{
    // One ejection port per router-local node; each can sink one flit
    // per cycle.
    const int set = ejectSet(r);
    const int base = queueBase_[static_cast<std::size_t>(r)];
    visitFrom(&cand_[static_cast<std::size_t>(set * candWords_)],
              candWords_, 0, [&](int pos) {
        const FlitEntry &f =
            queues_[static_cast<std::size_t>(base + pos)].front;
        Cycle &port = ejectedAt_[static_cast<std::size_t>(f.dst)];
        if (port == now_)
            return false;
        port = now_;
        if (f.tail) {
            Packet &done = packets_[f.pkt];
            done.delivered = now_;
            delivered_.push_back(done);
            ids_.erase(done.id, f.pkt, packets_);
            freeSlots_.push_back(f.pkt);
        }
        popHead(r, pos, set);
        return false;
    });
}

void
RouterNetwork::step()
{
    // 1. Heads that become ready this cycle join their candidate sets.
    auto &due =
        wheel_[static_cast<std::size_t>(now_ & (wheel_.size() - 1))];
    for (const Waiter &w : due)
        join(w.set, w.pos);
    due.clear();

    // 2. Eject before switching so freshly freed slots are usable next
    //    cycle (not this one), matching a real credit round-trip.
    const int links = static_cast<int>(links_.size());
    forEachLive(live_, links, links + routers_,
                [&](int set) { serviceEjection(set - links); });

    // 3. Switch allocation per output link, in id order.
    forEachLive(live_, 0, links, [&](int lid) { serviceLink(lid); });

    ++now_;
}

} // namespace cryo::netsim
