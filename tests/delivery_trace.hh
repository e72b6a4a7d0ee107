/**
 * @file
 * Delivery-trace digests for the netsim schedule tests: one
 * measureLoadPoint run, with every packet the network delivers folded,
 * in delivery order, into an FNV-1a digest. Any change to a network's
 * cycle-level behaviour moves the digest.
 */

#ifndef CRYOWIRE_TESTS_DELIVERY_TRACE_HH
#define CRYOWIRE_TESTS_DELIVERY_TRACE_HH

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>

#include "netsim/load_latency.hh"
#include "netsim/network.hh"
#include "util/hash.hh"

namespace cryo::netsim::pinned
{

/** What a DigestingNetwork saw, for the test to fold and compare. */
struct DeliveryTrace
{
    Fnv1a digest; ///< (id, src, dst, injected, delivered) each
    Cycle now = 0;
    std::size_t inFlight = 0;
};

/**
 * Forwards to a network, folds every delivered packet, in delivery
 * order, into a DeliveryTrace, and keeps its latest now() and
 * inFlight() there.
 */
class DigestingNetwork : public Network
{
  public:
    DigestingNetwork(std::unique_ptr<Network> net, DeliveryTrace &trace)
        : net_(std::move(net)), trace_(trace)
    {
    }

    void
    inject(const Packet &p) override
    {
        net_->inject(p);
        trace_.inFlight = net_->inFlight();
    }

    void
    step() override
    {
        net_->step();
        for (const Packet &p : net_->drainDelivered()) {
            trace_.digest.u64(p.id).i64(p.src).i64(p.dst).u64(
                p.injected).u64(p.delivered);
            delivered_.push_back(p);
        }
        trace_.now = net_->now();
        trace_.inFlight = net_->inFlight();
    }

    Cycle now() const override { return net_->now(); }
    int nodes() const override { return net_->nodes(); }
    std::size_t inFlight() const override { return net_->inFlight(); }

  private:
    std::unique_ptr<Network> net_;
    DeliveryTrace &trace_;
};

/**
 * The delivery-trace digest of one measureLoadPoint run on networks
 * from @p factory: every delivery, then the final cycle and backlog.
 */
inline std::uint64_t
deliveryTraceDigest(const NetworkFactory &factory,
                    const TrafficSpec &traffic, const MeasureOpts &opts)
{
    DeliveryTrace trace;
    measureLoadPoint(
        [&factory, &trace]() -> std::unique_ptr<Network> {
            return std::make_unique<DigestingNetwork>(factory(), trace);
        },
        traffic, opts);
    return trace.digest.u64(trace.now).u64(trace.inFlight).digest();
}

/** @p digest as 0x-prefixed hex, for a failure message. */
inline std::string
digestHex(std::uint64_t digest)
{
    char hex[32];
    std::snprintf(hex, sizeof hex, "0x%016llx",
                  static_cast<unsigned long long>(digest));
    return hex;
}

} // namespace cryo::netsim::pinned

#endif // CRYOWIRE_TESTS_DELIVERY_TRACE_HH
