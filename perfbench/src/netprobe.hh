/**
 * @file
 * The netsim probe: builds each network kind the anchors experiments
 * simulate, wraps it in a counting decorator, and drives it through
 * the public load-latency functions, so simulator cost can be read
 * per kind and per simulated cycle.
 */

#ifndef PERFBENCH_NETPROBE_HH
#define PERFBENCH_NETPROBE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "netsim/load_latency.hh"
#include "netsim/network.hh"

namespace perfbench
{

/** Exact work counts of the networks a counting factory built. */
struct NetCounters
{
    std::uint64_t networks = 0; ///< factory calls = measured points
    std::uint64_t cycles = 0;   ///< step() calls
    std::uint64_t packets = 0;  ///< inject() calls (requests + replies)
};

/**
 * Decorator that forwards to an inner network and counts its work.
 * Delivered packets are moved into this object's list after every
 * call that can deliver, so callers see exactly the inner sequence.
 */
class CountingNetwork : public cryo::netsim::Network
{
  public:
    CountingNetwork(std::unique_ptr<cryo::netsim::Network> inner,
                    NetCounters *counters);

    void inject(const cryo::netsim::Packet &p) override;
    void step() override;
    cryo::netsim::Cycle now() const override { return inner_->now(); }
    int nodes() const override { return inner_->nodes(); }
    std::size_t inFlight() const override { return inner_->inFlight(); }

  private:
    void forwardDelivered();

    std::unique_ptr<cryo::netsim::Network> inner_;
    NetCounters *counters_;
};

/** Wrap @p factory so every network it builds is counted. */
cryo::netsim::NetworkFactory
countingFactory(cryo::netsim::NetworkFactory factory,
                NetCounters *counters);

/** One probed network kind. */
struct NetKind
{
    std::string name; ///< bus64, cryobus64, hybrid256, mesh64, ...
    cryo::netsim::NetworkFactory factory;
    cryo::netsim::TrafficSpec traffic;
    double lowRate = 0.0; ///< sub-saturation, per design cycle
    double satRate = 0.0; ///< past saturation, per design cycle
};

/** The kinds the anchors experiments simulate, for @p seed. */
std::vector<NetKind> netKinds(std::uint64_t seed);

/** What the probe measured. */
struct ProbeResult
{
    struct PerKind
    {
        std::string name;
        double nsPerCycleLow = 0.0;
        double nsPerCycleSat = 0.0;
        bool lowSaturated = false;
        bool satSaturated = false;
    };
    std::vector<PerKind> kinds;
    NetCounters counters;
    std::uint64_t satProbes = 0; ///< points measured by saturationRate
    double busSaturation = 0.0;    ///< cryobus64, req/node/cycle
    double hybridSaturation = 0.0; ///< hybrid256, req/node/cycle
};

/** Run the probe (serial, single-threaded). */
ProbeResult runNetProbe(std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_NETPROBE_HH
