/**
 * @file
 * Common interface of the cycle-accurate network models.
 */

#ifndef CRYOWIRE_NETSIM_NETWORK_HH
#define CRYOWIRE_NETSIM_NETWORK_HH

#include <vector>

#include "netsim/packet.hh"
#include "util/stats.hh"

namespace cryo::netsim
{

/**
 * A cycle-stepped interconnect simulator.
 */
class Network
{
  public:
    virtual ~Network() = default;

    /** Queue a packet at its source NI (takes effect this cycle). */
    virtual void inject(const Packet &p) = 0;

    /** Advance one clock cycle. */
    virtual void step() = 0;

    /** Current cycle. */
    virtual Cycle now() const = 0;

    /** Number of endpoint nodes. */
    virtual int nodes() const = 0;

    /** Packets currently queued or in flight. */
    virtual std::size_t inFlight() const = 0;

    /** Delivered packets since the last drain. */
    std::vector<Packet> &delivered() { return delivered_; }

    /**
     * Hand over the packets delivered since the last drain and start a
     * new list. The returned buffer belongs to the network and is
     * valid until the next drainDelivered() call, which reuses it: two
     * buffers trade places, so a drain every cycle allocates nothing
     * once both have grown.
     */
    const std::vector<Packet> &
    drainDelivered()
    {
        drained_.clear();
        drained_.swap(delivered_);
        return drained_;
    }

  protected:
    std::vector<Packet> delivered_;

  private:
    std::vector<Packet> drained_; ///< the last drain's packets
};

} // namespace cryo::netsim

#endif // CRYOWIRE_NETSIM_NETWORK_HH
