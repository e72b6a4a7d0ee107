/**
 * @file
 * The experiment data model: a registered figure/table reproduction
 * fills an ExperimentResult with tables (the human rendering), notes,
 * and named metrics. Metrics optionally carry a paper anchor plus a
 * relative tolerance, which is what turns the whole evaluation into a
 * machine-checkable regression gate.
 *
 * Experiments consume the model stack through a shared const Context
 * (technology, SystemBuilder, IntervalSimulator, seeded traffic)
 * instead of each main() hand-wiring its own globals, so every
 * experiment is a pure function of (Context, declaration) and can be
 * dispatched on the thread pool with deterministic results. The netsim
 * figures also list their measurements as netsim::Cell values; the
 * runner simulates those in one pool and hands the results back
 * through the Context.
 */

#ifndef CRYOWIRE_EXP_EXPERIMENT_HH
#define CRYOWIRE_EXP_EXPERIMENT_HH

#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/system_builder.hh"
#include "dse/point_eval.hh"
#include "netsim/cell.hh"
#include "netsim/traffic.hh"
#include "sys/interval_sim.hh"
#include "tech/technology.hh"
#include "util/table.hh"

namespace cryo::exp
{

/**
 * One named measurement. When @p anchor is set (non-NaN) the metric
 * participates in the regression gate: the run fails unless
 * |value - anchor| <= relTol * |anchor| (equality required when the
 * tolerance is zero, e.g. for structural integer anchors).
 */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit; ///< display tag ("GHz", "frac", "x", ...)
    double anchor = std::numeric_limits<double>::quiet_NaN();
    double relTol = 0.0;

    bool hasAnchor() const { return !std::isnan(anchor); }

    /** Gate verdict; metrics without an anchor always pass. */
    bool pass() const
    {
        if (!hasAnchor())
            return true;
        if (!std::isfinite(value))
            return false;
        return std::abs(value - anchor) <= relTol * std::abs(anchor);
    }

    /** Signed relative deviation from the anchor (NaN without one). */
    double deviation() const
    {
        if (!hasAnchor() || anchor == 0.0)
            return std::numeric_limits<double>::quiet_NaN();
        return value / anchor - 1.0;
    }
};

/**
 * Everything one experiment produced, in presentation order. The same
 * object renders three ways (terminal Table text, JSON, CSV) through
 * the sink layer - experiments never print.
 */
class ExperimentResult
{
  public:
    /** Append a new table; the reference stays valid for the result's
     * lifetime (tables live in a deque). */
    Table &table(std::vector<std::string> header);

    /** Append a free-text line between/around tables. */
    void note(std::string line);

    /** One-line closing verdict (the old printVerdict text). */
    void verdict(std::string text) { verdict_ = std::move(text); }

    /** Record an unanchored metric; returns @p value for chaining. */
    double metric(std::string name, double value,
                  std::string unit = {});

    /**
     * Record a metric gated against a paper anchor.
     * @param rel_tol relative tolerance; 0 demands exact equality.
     */
    double anchored(std::string name, double value, double anchor,
                    double rel_tol, std::string unit = {});

    /** Ordered render items: which table/note comes next. */
    struct Item
    {
        enum class Kind { TableRef, Note };
        Kind kind;
        std::size_t index; ///< into tables() or notes()
    };

    const std::vector<Item> &items() const { return items_; }
    const std::deque<Table> &tables() const { return tables_; }
    const std::vector<std::string> &notes() const { return notes_; }
    const std::vector<Metric> &metrics() const { return metrics_; }
    const std::string &verdict() const { return verdict_; }

    /** Count of anchored metrics currently failing their tolerance. */
    std::size_t failedAnchors() const;

  private:
    std::vector<Item> items_;
    std::deque<Table> tables_;
    std::vector<std::string> notes_;
    std::vector<Metric> metrics_;
    std::string verdict_;
};

/**
 * Netsim cells and their results, keyed by content. The runner adds
 * every selected experiment's cells once, fills in the results from
 * its pool, and then shares the table read-only through the Context.
 * A lookup compares the stored cell, so a hash collision misses (and
 * costs a recompute), never returns another cell's result.
 */
class CellTable
{
  public:
    /** Add @p cell unless an equal one is in; returns its index. */
    std::size_t add(const netsim::Cell &cell);

    std::size_t size() const { return cells_.size(); }
    const netsim::Cell &cell(std::size_t i) const { return cells_[i]; }

    /** Record cell @p i's result. Distinct indices may be set
     * concurrently; a cell without a result stays out of find(). */
    void setResult(std::size_t i, const netsim::CellResult &result)
    {
        results_[i] = result;
    }

    /** The result of a cell equal to @p cell, or null. */
    const netsim::CellResult *find(const netsim::Cell &cell) const;

  private:
    std::vector<netsim::Cell> cells_;
    std::vector<std::optional<netsim::CellResult>> results_;
    std::unordered_multimap<std::uint64_t, std::size_t> byHash_;
};

/**
 * Shared, immutable model stack handed to every experiment - a pure
 * function of one dse::DesignPoint. The point selects the technology
 * corner, core count, floorplan scale, and seed. Hooks read their
 * models from the point's dse::ModelStack through builder(); only a
 * figure whose axis is the model itself (Fig. 26's 256-core designer,
 * the floorplan and technology-node ablations) builds its own. A hook
 * that evaluates design points (Fig. 27) builds them from point().
 * The stack and the IntervalSimulator are thread-safe, so concurrent
 * experiments may consume one Context freely. The runner's Context
 * also carries the netsim cell results its pool produced (measure()).
 *
 * Contexts are cheap values: copies (withCells) share the stack and
 * the cores its builder memoized.
 */
class Context
{
  public:
    /** The default design point with only the seed overridden. */
    explicit Context(std::uint64_t seed = 1);

    /** The model stack for @p point (validated here). */
    explicit Context(const dse::DesignPoint &point);

    const dse::DesignPoint &point() const { return point_; }
    std::uint64_t seed() const { return point_.seed; }

    const tech::Technology &technology() const { return *stack_->tech; }
    const core::SystemBuilder &builder() const { return stack_->builder; }
    const sys::IntervalSimulator &simulator() const { return sim_; }

    /** Base traffic spec carrying this run's seed. */
    netsim::TrafficSpec traffic() const;

    /** Directory-protocol traffic for router NoCs (5-flit replies). */
    netsim::TrafficSpec directoryTraffic() const;

    /**
     * The results of @p cells, in order. A cell the runner's pool
     * measured is read from its table; every other cell is simulated
     * here, in order, so a hook called with a plain Context runs its
     * cells inline (and fails as they fail).
     */
    std::vector<netsim::CellResult>
    measure(const std::vector<netsim::Cell> &cells) const;

    /** A copy of this Context whose measure() reads @p cells. */
    Context withCells(std::shared_ptr<const CellTable> cells) const;

  private:
    dse::DesignPoint point_;
    std::shared_ptr<const dse::ModelStack> stack_;
    sys::IntervalSimulator sim_;
    std::shared_ptr<const CellTable> cells_; ///< null: none pooled
};

/** An experiment's run hook. */
using RunFn = void (*)(const Context &, ExperimentResult &);

/** The netsim cells an experiment's hook measures. */
using CellsFn = std::vector<netsim::Cell> (*)(const Context &);

/**
 * One registered figure/table reproduction.
 *
 * @p name is the stable CLI identity ("fig02-stage-breakdown");
 * @p title and @p summary reproduce the old banner; @p tags select
 * subsets ("pipeline", "netsim", "smoke", ...).
 */
struct Experiment
{
    std::string name;
    std::string title;
    std::string summary;
    std::vector<std::string> tags;
    RunFn run = nullptr;
    /**
     * Null, or the cells @p run measures through Context::measure.
     * The runner simulates every selected experiment's cells in one
     * pool before any hook runs, so the hook only assembles tables.
     */
    CellsFn cells = nullptr;

    bool hasTag(const std::string &tag) const;
};

} // namespace cryo::exp

#endif // CRYOWIRE_EXP_EXPERIMENT_HH
