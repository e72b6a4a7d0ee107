/**
 * @file
 * A netsim cell: one load-latency measurement as a value.
 *
 * A cell names a network, the traffic offered to it, the measurement
 * window, and a probe - zero-load latency, one load point, or a
 * saturation search. It says what to simulate, not how to schedule
 * it: the figures list their cells, and the experiment runner
 * simulates every selected experiment's cells in one pool before any
 * table is built (DESIGN.md §4b). Each run builds a fresh network, so
 * a cell's result depends on its content alone.
 *
 * hash() runs FNV-1a over a canonical field-order encoding
 * (util/hash.hh documents the byte rules). tests/test_load_latency.cc
 * pins two digests, so a change of encoding is loud; bump kCellSchema
 * with it.
 */

#ifndef CRYOWIRE_NETSIM_CELL_HH
#define CRYOWIRE_NETSIM_CELL_HH

#include <cstdint>
#include <memory>
#include <variant>

#include "netsim/bus_net.hh"
#include "netsim/hybrid_net.hh"
#include "netsim/load_latency.hh"
#include "netsim/router_net.hh"
#include "netsim/traffic.hh"
#include "util/hash.hh"

namespace cryo::netsim
{

/** Canonical-encoding schema tag, folded into every cell hash. */
inline constexpr std::uint64_t kCellSchema = 1;

/** A shared bus: its timing and node count. */
struct BusSpec
{
    int nodes = 64;
    BusTiming timing;

    bool operator==(const BusSpec &) const = default;
};

/** The network a cell measures. */
using NetworkSpec = std::variant<BusSpec, RouterNetConfig, HybridConfig>;

/** A fresh network for @p spec. */
std::unique_ptr<Network> buildNetwork(const NetworkSpec &spec);

/** What a cell measures. */
enum class ProbeKind
{
    ZeroLoad,   ///< zeroLoadLatency
    LoadPoint,  ///< measureLoadPoint at traffic.injectionRate
    Saturation, ///< saturationRate over (0, hi] to tolerance
};

/** One measurement as a value; build it with the named constructors. */
struct Cell
{
    NetworkSpec network;
    TrafficSpec traffic;
    MeasureOpts opts;
    ProbeKind probe = ProbeKind::LoadPoint;
    double hi = 0.0;        ///< Saturation: bracket top
    double tolerance = 0.0; ///< Saturation: bisection resolution

    static Cell zeroLoad(NetworkSpec network, TrafficSpec traffic,
                         MeasureOpts opts);
    static Cell loadPoint(NetworkSpec network, TrafficSpec traffic,
                          MeasureOpts opts);
    /** Validates the bracket here (validateSaturationBracket), so a
     * bad one fails where it is declared, not where it runs. */
    static Cell saturation(NetworkSpec network, TrafficSpec traffic,
                           double hi, double tolerance,
                           MeasureOpts opts);

    /** The 64-bit content hash (kCellSchema + canonical fields). */
    std::uint64_t hash() const;

    /**
     * Static cost estimate, for longest-first scheduling: nodes x
     * window x probes, where a saturation search counts the probes of
     * a bisection of [0, hi] to tolerance. It ranks cells rather than
     * predicting time: the search probes fewer rates, and none far past
     * saturation (saturationRate), yet the count still puts fig26's
     * 256-node searches first.
     */
    double cost() const;

    bool operator==(const Cell &) const = default;
};

/** What a cell measured. */
struct CellResult
{
    /**
     * The probe's answer: zero-load latency [cycles], the load point's
     * average latency [cycles], or the saturation rate
     * [packets/node/cycle].
     */
    double value = 0.0;
    LoadPoint point; ///< the whole point, for LoadPoint probes
};

/**
 * Simulate @p cell: exactly one call of zeroLoadLatency,
 * measureLoadPoint or saturationRate on networks built from its spec.
 * Failpoint site "netsim.cell" is evaluated first.
 */
CellResult runCell(const Cell &cell);

} // namespace cryo::netsim

#endif // CRYOWIRE_NETSIM_CELL_HH
