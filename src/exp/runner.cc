#include "runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>

#include "util/diag.hh"
#include "util/parallel.hh"

namespace cryo::exp
{

namespace
{

/**
 * Run one experiment with failure isolation: a throw is captured into
 * the record (error + context chain) instead of propagating, so
 * sibling experiments keep running. The "experiment <name>" frame
 * stays alive through the catch, so even exceptions that carry no
 * chain of their own are attributed to the experiment.
 */
void
runOne(const Experiment &e, const Context &ctx, RunRecord &rec)
{
    CRYO_CONTEXT("experiment " + e.name);
    try {
        e.run(ctx, rec.result);
    } catch (const FatalError &err) {
        rec.failed = true;
        rec.error = err.message();
        rec.errorContext = err.context();
    } catch (const std::exception &err) {
        rec.failed = true;
        rec.error = err.what();
        rec.errorContext = diag::contextStack();
    } catch (...) {
        rec.failed = true;
        rec.error = "unknown exception";
        rec.errorContext = diag::contextStack();
    }
}

/**
 * Wall-clock watchdog over units of work - pooled cells and hooks,
 * each belonging to one experiment. A monitor thread flags (once per
 * experiment, on stderr) every experiment with a unit still running
 * past the budget. Purely observational - nothing is killed and no
 * record field changes, keeping the sinks deterministic.
 */
class Watchdog
{
  public:
    /** Unit u belongs to experiment @p owners[u] of @p selection. */
    Watchdog(const std::vector<const Experiment *> &selection,
             std::vector<std::size_t> owners, double budget_seconds)
        : selection_(selection), owners_(std::move(owners)),
          budgetSeconds_(budget_seconds)
    {
        if (budgetSeconds_ <= 0.0)
            return;
        states_ = std::make_unique<State[]>(owners_.size());
        flagged_.assign(selection.size(), false);
        monitor_ = std::thread([this] { watch(); });
    }

    ~Watchdog()
    {
        if (!monitor_.joinable())
            return;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        cv_.notify_all();
        monitor_.join();
    }

    void
    started(std::size_t i)
    {
        if (states_)
            states_[i].startNs.store(nowNs(), std::memory_order_release);
    }

    void
    finished(std::size_t i)
    {
        if (states_)
            states_[i].done.store(true, std::memory_order_release);
    }

  private:
    struct State
    {
        std::atomic<std::int64_t> startNs{0}; ///< 0 = not started
        std::atomic<bool> done{false};
    };

    static std::int64_t
    nowNs()
    {
        // CRYOLINT-NEXTLINE(determinism-calls): watchdog wall time is
        // stderr-only diagnostics; it never reaches the JSON/CSV
        // results, which stay byte-identical across --jobs.
        const auto now = std::chrono::steady_clock::now();
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   now.time_since_epoch())
            .count();
    }

    void
    watch()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        while (!stop_) {
            cv_.wait_for(lock, std::chrono::milliseconds(200));
            if (stop_)
                return;
            const std::int64_t now = nowNs();
            for (std::size_t u = 0; u < owners_.size(); ++u) {
                const std::size_t i = owners_[u];
                State &s = states_[u];
                if (flagged_[i] ||
                    s.done.load(std::memory_order_acquire))
                    continue;
                const std::int64_t start =
                    s.startNs.load(std::memory_order_acquire);
                if (start == 0)
                    continue;
                const double elapsed =
                    static_cast<double>(now - start) * 1e-9;
                if (elapsed <= budgetSeconds_)
                    continue;
                flagged_[i] = true;
                std::fprintf(stderr,
                             "cryowire warn: experiment %s still "
                             "running after %.0f s (watchdog budget "
                             "%.0f s)\n",
                             selection_[i]->name.c_str(), elapsed,
                             budgetSeconds_);
            }
        }
    }

    const std::vector<const Experiment *> &selection_;
    std::vector<std::size_t> owners_;
    double budgetSeconds_;
    std::unique_ptr<State[]> states_;
    std::vector<bool> flagged_; ///< per experiment; monitor-thread only
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stop_ = false;
    std::thread monitor_;
};

/**
 * Every selected experiment's cells, each once; @p owners gets the
 * index of the experiment that declared each cell first. An experiment
 * whose cell list throws contributes none: its hook lists them again
 * and fails in its own record.
 */
CellTable
gatherCells(const std::vector<const Experiment *> &selection,
            const Context &ctx, std::vector<std::size_t> &owners)
{
    CellTable table;
    for (std::size_t i = 0; i < selection.size(); ++i) {
        if (selection[i]->cells == nullptr)
            continue;
        std::vector<netsim::Cell> cells;
        try {
            cells = selection[i]->cells(ctx);
        } catch (...) {
            continue;
        }
        for (const netsim::Cell &cell : cells) {
            if (table.add(cell) == owners.size())
                owners.push_back(i);
        }
    }
    return table;
}

} // namespace

std::vector<RunRecord>
runExperiments(const Registry &registry, const RunOptions &opts)
{
    const std::vector<const Experiment *> selection =
        registry.match(opts.filters);
    std::vector<RunRecord> records(selection.size());
    for (std::size_t i = 0; i < selection.size(); ++i)
        records[i].experiment = selection[i];

    const Context base{opts.seed};
    std::vector<std::size_t> owners;
    auto table = std::make_shared<CellTable>(
        gatherCells(selection, base, owners));
    const std::size_t n_cells = table->size();
    // Watchdog units: the pooled cells, then one hook per experiment.
    for (std::size_t i = 0; i < selection.size(); ++i)
        owners.push_back(i);
    Watchdog watchdog{selection, std::move(owners),
                      opts.watchdogSeconds};

    // chunk=1 so each cell, then each experiment, is one schedulable
    // unit; results are stored by index, so nothing depends on timing.
    ParallelOptions popts;
    popts.jobs = opts.jobs;
    popts.chunk = 1;

    // Phase 1: every cell in one pool, longest first (ties keep
    // declaration order). A cell that throws stays out of the table;
    // its experiment's hook recomputes it and fails in its record.
    std::vector<std::size_t> order(n_cells);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return table->cell(a).cost() >
                             table->cell(b).cost();
                     });
    parallelFor(
        n_cells,
        [&](std::size_t k) {
            const std::size_t c = order[k];
            watchdog.started(c);
            try {
                table->setResult(c, netsim::runCell(table->cell(c)));
            } catch (...) {
                // Not lost: the owner's hook recomputes the cell inside
                // its "experiment <name>" frame and records the error.
            }
            watchdog.finished(c);
        },
        popts);

    // Phase 2: the hooks, which read the pooled results by content.
    const Context ctx = base.withCells(std::move(table));
    parallelFor(
        selection.size(),
        [&](std::size_t i) {
            watchdog.started(n_cells + i);
            runOne(*selection[i], ctx, records[i]);
            watchdog.finished(n_cells + i);
        },
        popts);
    return records;
}

} // namespace cryo::exp
