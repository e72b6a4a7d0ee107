/**
 * @file
 * Load-latency measurement driver (the BookSim experiment of Figs 18,
 * 21, 25, 26).
 */

#ifndef CRYOWIRE_NETSIM_LOAD_LATENCY_HH
#define CRYOWIRE_NETSIM_LOAD_LATENCY_HH

#include <functional>
#include <memory>
#include <vector>

#include "netsim/network.hh"
#include "netsim/traffic.hh"
#include "util/parallel.hh"

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
 * Sweep injection rates and return the curve; points after the first
 * saturated one are still measured (the curve keeps its shape).
 *
 * Points are simulated concurrently (@p par controls the width; the
 * default follows CRYOWIRE_JOBS), except inside another parallelFor
 * body such as a runner experiment, where they run on the calling
 * thread. Each point runs on a fresh network from @p factory with an
 * RNG stream seeded from (traffic.seed, point index), so the curve is
 * bitwise-identical at any job count. The factory must be callable
 * from multiple threads at once.
 */
std::vector<LoadPoint> sweepLoadLatency(const NetworkFactory &factory,
                                        TrafficSpec traffic,
                                        const std::vector<double> &rates,
                                        MeasureOpts opts = {},
                                        ParallelOptions par = {});

/**
 * saturationRate's bracket contract: throws cryo::FatalError unless
 * 0 < @p tolerance < @p hi < 1.
 */
void validateSaturationBracket(double hi, double tolerance);

/**
 * Binary-search the saturation throughput (packets/node/cycle) of a
 * network under @p traffic, to @p tolerance.
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
