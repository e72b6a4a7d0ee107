/**
 * @file
 * Load-latency measurement driver (the BookSim experiment of Figs 18,
 * 21, 25, 26).
 */

#ifndef CRYOWIRE_NETSIM_LOAD_LATENCY_HH
#define CRYOWIRE_NETSIM_LOAD_LATENCY_HH

#include <functional>
#include <memory>

#include "netsim/network.hh"
#include "netsim/traffic.hh"

namespace cryo::netsim
{

/** One point of a load-latency curve. */
struct LoadPoint
{
    double injectionRate = 0.0;   ///< packets / node / cycle offered
    double avgLatency = 0.0;      ///< cycles (meaningless if saturated)
    double p99Latency = 0.0;      ///< cycles
    double throughput = 0.0;      ///< packets / node / cycle accepted
    bool saturated = false;
};

/** Measurement controls. */
struct MeasureOpts
{
    Cycle warmupCycles = 3000;
    Cycle measureCycles = 12000;
    double saturationLatency = 400.0; ///< cycles; beyond this = saturated
    double backlogFactor = 4.0; ///< in-flight growth ratio = saturated

    bool operator==(const MeasureOpts &) const = default;
};

/** Builds a fresh network instance for each measured point. */
using NetworkFactory = std::function<std::unique_ptr<Network>()>;

/**
 * Measure one operating point: warm up, then observe delivered-packet
 * latency and throughput over the measurement window.
 */
LoadPoint measureLoadPoint(const NetworkFactory &factory,
                           TrafficSpec traffic, MeasureOpts opts = {});

/**
 * saturationRate's bracket contract: throws cryo::FatalError unless
 * 0 < @p tolerance < @p hi < 1.
 */
void validateSaturationBracket(double hi, double tolerance);

/**
 * Search the saturation throughput (packets/node/cycle) of a network
 * under @p traffic: the highest rate found unsaturated, within
 * @p tolerance of the lowest rate found saturated.
 *
 * The search answers on the grid a bisection of [0, @p hi] walks while
 * its lower end is still 0: r_0 = hi, r_{j+1} = 0.5 r_j, down to the
 * first r_k <= tolerance. Rather than walk that grid down from hi,
 * whose top rates run far past saturation and cost the most time and
 * memory, it probes r_s, s = floor(k/2), first. If r_s saturates, it
 * bisects [0, r_s]; otherwise it climbs r_{s-1}, r_{s-2}, ... to the
 * first rate r_j that saturates and bisects [r_{j+1}, r_j]. Either way
 * the bisection continues exactly as the top-down order (probe hi,
 * then bisect [0, hi]) would from the same bracket, so the answer is
 * the top-down one, bit for bit, whenever every grid rate above the
 * first saturated one the climb finds saturates too. The start is the
 * middle of the grid, not its bottom: transpose and bit-reverse drop
 * the packets of their self-mapped nodes (8 of 64), so their accepted
 * rate tops out at 0.875 x offered, and at the smallest rates, where a
 * window holds few packets, the starvation test (accepted < 0.85 x
 * offered) fires by chance.
 *
 * Requires 0 < @p tolerance < @p hi < 1 (throws cryo::FatalError
 * otherwise). Two degenerate bracket shapes resolve gracefully rather
 * than hanging or aborting: a @p hi that never saturates returns
 * @p hi itself, and a network already saturated at every probed rate
 * returns 0.0; both emit a (deduplicated) warning.
 */
double saturationRate(const NetworkFactory &factory, TrafficSpec traffic,
                      double hi = 0.995, double tolerance = 0.005,
                      MeasureOpts opts = {});

/** zeroLoadLatency's shortest measurement window [cycles]. */
inline constexpr Cycle kZeroLoadMeasureCycles = 40000;

/**
 * Zero-load latency: the latency at a vanishing injection rate,
 * measured over at least kZeroLoadMeasureCycles.
 */
double zeroLoadLatency(const NetworkFactory &factory, TrafficSpec traffic,
                       MeasureOpts opts = {});

} // namespace cryo::netsim

#endif // CRYOWIRE_NETSIM_LOAD_LATENCY_HH
