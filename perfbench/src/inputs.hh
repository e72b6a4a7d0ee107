/**
 * @file
 * Seeded input generators owned by the benchmark. The program under
 * test only ever sees what these produce: a sweep spec file, a cache
 * file, and request lines. Equal seeds give byte-identical inputs;
 * other seeds give other points with the same counts and mix.
 */

#ifndef PERFBENCH_INPUTS_HH
#define PERFBENCH_INPUTS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "dse/design_point.hh"

namespace perfbench
{

/** The ten PARSEC workloads of sys::parsec21(), by name. */
const std::vector<std::string> &parsecWorkloads();

/** Shape of the dse-grid spec (axis lengths; the rest is fixed). */
struct GridShape
{
    int tempSteps = 40;  ///< seeded tempK values in [77, 300]
    int scaleSteps = 4;  ///< seeded floorplanScale values in [0.8, 1.3]
};

/**
 * The dse-grid sweep spec as JSON: axes tempK (seeded), workload (the
 * ten PARSEC workloads plus "" = whole-suite mean), busWays {1, 2},
 * floorplanScale (seeded) and nodeNm {45, 22, 14}.
 */
std::string dseSpecJson(std::uint64_t seed, const GridShape &shape);

/** Points in a spec of @p shape. */
std::size_t gridPoints(const GridShape &shape);

/** What one serve-mixed request slot asks for. */
enum class SlotKind
{
    kPreloaded, ///< a point whose result is in the pre-populated cache
    kFresh,     ///< a point nobody asked for before
    kPair,      ///< a fresh point sent on both connections at once
};

/** One scheduled request slot. */
struct Slot
{
    std::int64_t dueUs = 0; ///< offset from the start of the run
    SlotKind kind = SlotKind::kPreloaded;
    std::size_t point = 0; ///< index into ServePlan::points
    int conn = 0;          ///< connection (ignored for pairs: both)
};

/** The serve-mixed inputs: the point pool and the open-loop plan. */
struct ServePlan
{
    /** Points; the first preloaded() are the pre-populated ones. */
    std::vector<cryo::dse::DesignPoint> points;
    std::size_t preloaded = 0;
    std::vector<Slot> slots;

    /** Requests the plan sends (a pair sends two). */
    std::size_t requests() const;

    /** Every input as text: point hashes then slots, one per line. */
    std::string render() const;
};

/** Knobs of the serve-mixed generator. */
struct ServeShape
{
    std::size_t preloaded = 20000; ///< records in the pre-populated cache
    double ratePerS = 4000.0;      ///< open-loop slot rate
    double seconds = 10.0;         ///< schedule length
    int connections = 2;
    double freshShare = 0.25;
    double pairShare = 0.05; ///< the rest ask for preloaded points
};

/** Build the plan for @p seed. */
ServePlan makeServePlan(std::uint64_t seed, const ServeShape &shape);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_HH
