/**
 * @file
 * Cycle-accurate shared-bus model: per-node request queues, a central
 * matrix arbiter, and a broadcast medium occupied per transaction -
 * the machinery of Fig. 19, including optional address interleaving
 * (Section 7.1) as multiple independent bus ways.
 */

#ifndef CRYOWIRE_NETSIM_BUS_NET_HH
#define CRYOWIRE_NETSIM_BUS_NET_HH

#include <vector>

#include "netsim/arbiter.hh"
#include "netsim/network.hh"
#include "noc/noc_config.hh"
#include "util/sliding_queue.hh"

namespace cryo::netsim
{

/** Timing parameters of one bus design (from NocConfig::busBreakdown). */
struct BusTiming
{
    int requestCycles = 1;   ///< source -> arbiter propagation
    int grantCycles = 1;     ///< arbiter -> source (incl. control)
    int broadcastCycles = 1; ///< head traversal of the worst sink path
    int ways = 1;            ///< address-interleaved buses

    /** Build from an analytic NoC design point. */
    static BusTiming fromConfig(const noc::NocConfig &cfg, int ways = 1);

    bool operator==(const BusTiming &) const = default;
};

/**
 * The bus simulator.
 */
class BusNetwork : public Network
{
  public:
    BusNetwork(int nodes, BusTiming timing);

    void inject(const Packet &p) override;
    void step() override;
    Cycle now() const override { return now_; }
    int nodes() const override { return nodes_; }
    std::size_t inFlight() const override { return inFlight_; }

    /** Fraction of elapsed cycles a given way's medium was busy. */
    double utilization(int way = 0) const;

  private:
    struct PendingTx
    {
        Packet packet;
        /** Cycle it reached the queue head; kNotAtHead until then. */
        Cycle headAt = kNotAtHead;
    };

    /** Sentinel: the transaction has not reached its queue head yet. */
    static constexpr Cycle kNotAtHead = ~Cycle{0};

    struct Way
    {
        MatrixArbiter arbiter;
        std::vector<SlidingQueue<PendingTx>> queues; ///< per node
        Cycle nextFree = 0;
        std::uint64_t busyCycles = 0;
        /**
         * Scheduled broadcast windows [start, end), ordered and
         * non-overlapping. Utilization counts only cycles inside a
         * window; the grant-to-broadcast-start gap leaves the medium
         * idle (nextFree alone would overcount it as busy).
         */
        SlidingQueue<std::pair<Cycle, Cycle>> busyWindows;

        explicit Way(int nodes)
            : arbiter(nodes), queues(static_cast<std::size_t>(nodes))
        {
        }
    };

    int wayOf(const Packet &p) const;

    int nodes_;
    BusTiming timing_;
    Cycle now_ = 0;
    std::size_t inFlight_ = 0;
    std::vector<Way> ways_;
    /** Transactions broadcast but whose tail has not completed yet. */
    std::vector<std::pair<Cycle, Packet>> completing_;
    /** Per-cycle request lines, reused across cycles (no per-tick alloc). */
    std::vector<bool> requestScratch_;
};

} // namespace cryo::netsim

#endif // CRYOWIRE_NETSIM_BUS_NET_HH
