/**
 * @file
 * Synthetic traffic generation for load-latency analysis (Figs 18, 21,
 * 25, 26).
 */

#ifndef CRYOWIRE_NETSIM_TRAFFIC_HH
#define CRYOWIRE_NETSIM_TRAFFIC_HH

#include <string>
#include <vector>

#include "netsim/packet.hh"
#include "util/rng.hh"

namespace cryo::netsim
{

/** The synthetic patterns of Fig. 21 and Fig. 25. */
enum class TrafficPattern
{
    UniformRandom,
    Transpose,  ///< (x, y) -> (y, x)
    BitReverse, ///< index -> bit-reversed index
    Hotspot,    ///< a share of traffic targets one node
    Burst       ///< uniform destinations, on/off bursty injection
};

const char *trafficPatternName(TrafficPattern p);

/** Generator parameters. */
struct TrafficSpec
{
    TrafficPattern pattern = TrafficPattern::UniformRandom;
    double injectionRate = 0.01; ///< packets per node per cycle
    int flitsPerPacket = 1;
    /**
     * When > 0, every delivered request triggers a data response of
     * this many flits from the destination back to the source, and the
     * measured latency is the full request + response round trip. Used
     * for directory-based router NoCs, where both legs share the one
     * network; the split-transaction bus designs carry responses on
     * the decoupled data plane and leave this 0.
     */
    int responseFlits = 0;
    int hotspotNode = 0;
    double hotspotFraction = 0.2; ///< share of traffic sent to hotspot
    double burstOnProb = 0.25;    ///< P(off -> on) per cycle
    double burstOffProb = 0.25;   ///< P(on -> off) per cycle
    std::uint64_t seed = 1;

    /**
     * Range/consistency validation against a @p nodes-sized network;
     * throws cryo::FatalError naming every offending field. Called by
     * TrafficGenerator at construction.
     */
    void validate(int nodes) const;

    bool operator==(const TrafficSpec &) const = default;
};

/**
 * Per-node Bernoulli(-modulated) injection with pattern-driven
 * destinations.
 */
class TrafficGenerator
{
  public:
    TrafficGenerator(int nodes, TrafficSpec spec);

    /**
     * Packets to inject this cycle (destinations resolved); sources
     * with src == dst re-draw (uniform) or drop (deterministic
     * patterns mapping a node to itself). Ids run densely from 1 in
     * the order the packets are handed out, which measureLoadPoint's
     * round-trip table relies on.
     *
     * Returns a reference to an internal buffer reused across cycles
     * (the per-tick allocation was the hottest churn in the injection
     * path); it is valid until the next tick() call - copy it if you
     * need to keep it.
     */
    const std::vector<Packet> &tick(Cycle now);

    /** Deterministic destination of @p src under the pattern. */
    int patternDestination(int src) const;

    int nodes() const { return nodes_; }
    const TrafficSpec &spec() const { return spec_; }

  private:
    int uniformDestination(int src);

    int nodes_;
    int gridSide_;
    TrafficSpec spec_;
    Rng rng_;
    std::vector<bool> burstOn_;
    std::uint64_t nextId_ = 1;
    std::vector<Packet> tickBuf_; ///< reused per-cycle output buffer
};

} // namespace cryo::netsim

#endif // CRYOWIRE_NETSIM_TRAFFIC_HH
