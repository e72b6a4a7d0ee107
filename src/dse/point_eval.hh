/**
 * @file
 * PointEvaluator: DesignPoint -> PointMetrics, the pure function the
 * whole DSE engine is built on.
 *
 * Evaluation composes the existing model stack: Technology from the
 * point's node/device axes, SystemBuilder for the named preset with
 * the temperature/voltage/bus overrides applied, IntervalSimulator
 * over the selected workload suite, and McpatLite (activity follows
 * frequency, as in the Fig. 27 accounting) against the 300 K mesh
 * baseline built from the same technology. Performance is normalized
 * to that same-suite baseline, so "perf" is directly the paper's
 * speed-up axis.
 *
 * The evaluator memoizes the expensive invariants behind a mutex:
 * Technology instances, one ModelStack per technology family
 * (technology axes, core count, floorplan scale) whose core designer
 * keeps the family's CryoSP and 300 K baseline cores, and baseline
 * suite performance. The caches affect cost only, never results, so
 * evaluate() remains a pure function of the point and is safe to call
 * from parallelFor workers.
 */

#ifndef CRYOWIRE_DSE_POINT_EVAL_HH
#define CRYOWIRE_DSE_POINT_EVAL_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/system_builder.hh"
#include "dse/design_point.hh"
#include "tech/technology.hh"
#include "util/json.hh"

namespace cryo::dse
{

/** The figures of merit recorded for one design point. */
struct PointMetrics
{
    /** Suite performance relative to the 300 K mesh baseline. */
    double perf = 0.0;

    /** Core clock [GHz]. */
    double freqGhz = 0.0;

    /** Core device (dynamic + leakage) power vs the baseline total. */
    double devicePower = 0.0;

    /** Cryo-cooler input power for that heat (0 at 300 K). */
    double coolingPower = 0.0;

    /** devicePower + coolingPower - the Pareto power axis. */
    double totalPower = 0.0;

    /** perf / totalPower (the Fig. 27 ordinate). */
    double perfPerWatt = 0.0;

    /** Mean interconnect utilization over the suite. */
    double utilization = 0.0;

    /** Fraction of workloads that saturated the interconnect. */
    double saturatedShare = 0.0;

    /** All workload fixed points converged. */
    bool converged = true;

    /** Names of every metric, in canonical (JSON/CSV) order. */
    static const std::vector<std::string> &metricNames();

    /**
     * That object rendered compactly: a sweep point renders it once,
     * and its cache record and result line both embed the bytes
     * (JsonWriter::raw).
     */
    std::string json() const;

    /**
     * Emit @p subset as a JSON object, in canonical order regardless
     * of the subset's order (so equal requests render equal bytes).
     * An empty subset, the default, means "all"; an unknown name is
     * fatal() - the service layer validates names at request-parse
     * time, so a miss here is a programming error.
     */
    void writeJson(JsonWriter &w,
                   const std::vector<std::string> &subset = {}) const;

    /**
     * Rebuild from a parsed JSON object (cache load path). Every
     * metric must appear exactly once; an unknown, duplicate or
     * missing one is fatal().
     */
    static PointMetrics fromJson(const JsonValue &obj);

    /** Append every metric as CSV cells (formatDouble rendering), in
     * metricNames() order. */
    void appendCsv(std::vector<std::string> &cells) const;
};

/**
 * Build the Technology a point's node/device axes select (uncached -
 * PointEvaluator::technologyFor memoizes on top of this, exp::Context
 * calls it once per context).
 */
std::shared_ptr<const tech::Technology>
makeTechnology(const DesignPoint &point);

/**
 * A design point's model stack: its Technology and the one
 * SystemBuilder over it, at the point's core count and
 * Floorplan::skylakeLike().scaled(floorplanScale). The evaluator
 * shares one per technology family, and exp::Context holds one.
 */
struct ModelStack
{
    ModelStack(std::shared_ptr<const tech::Technology> technology,
               const DesignPoint &point);

    /** Declared before the builder, which holds a reference into it. */
    std::shared_ptr<const tech::Technology> tech;
    core::SystemBuilder builder;
};

/**
 * Evaluates design points. One instance may serve any number of
 * threads concurrently.
 */
class PointEvaluator
{
  public:
    PointEvaluator();
    ~PointEvaluator();

    PointEvaluator(const PointEvaluator &) = delete;
    PointEvaluator &operator=(const PointEvaluator &) = delete;

    /**
     * Evaluate one point. Validates it first; invalid points are
     * fatal. Thread-safe; bit-identical for equal points regardless
     * of call order or thread count.
     */
    PointMetrics evaluate(const DesignPoint &point) const;

  private:
    /**
     * The Technology for the point's node/device axes, shared and
     * immutable (memoized per distinct axis combination).
     */
    std::shared_ptr<const tech::Technology>
    technologyFor(const DesignPoint &point) const;

    /**
     * The stack of the point's technology axes, core count and
     * floorplan scale, shared by every point of that family
     * (memoized).
     */
    std::shared_ptr<const ModelStack>
    stackFor(const DesignPoint &point) const;

    double baselinePerf(const DesignPoint &point,
                        const ModelStack &stack) const;

    mutable std::mutex mu_;
    mutable std::map<std::uint64_t,
                     std::shared_ptr<const tech::Technology>>
        techCache_;
    mutable std::map<std::uint64_t, std::shared_ptr<const ModelStack>>
        stackCache_;
    mutable std::map<std::uint64_t, double> baselineCache_;
};

} // namespace cryo::dse

#endif // CRYOWIRE_DSE_POINT_EVAL_HH
