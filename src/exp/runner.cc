#include "runner.hh"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
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
 * Wall-clock watchdog: a monitor thread flags (once, on stderr) every
 * experiment still running past the budget. Purely observational - the
 * experiment is not killed and no record field changes, keeping the
 * sinks deterministic.
 */
class Watchdog
{
  public:
    Watchdog(const std::vector<const Experiment *> &selection,
             double budget_seconds)
        : selection_(selection), budgetSeconds_(budget_seconds)
    {
        if (budgetSeconds_ <= 0.0)
            return;
        states_ = std::make_unique<State[]>(selection.size());
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
        bool flagged = false; ///< monitor-thread only
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
            for (std::size_t i = 0; i < selection_.size(); ++i) {
                State &s = states_[i];
                if (s.flagged ||
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
                s.flagged = true;
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
    double budgetSeconds_;
    std::unique_ptr<State[]> states_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stop_ = false;
    std::thread monitor_;
};

} // namespace

std::vector<RunRecord>
runExperiments(const Registry &registry, const RunOptions &opts)
{
    const std::vector<const Experiment *> selection =
        registry.match(opts.filters);
    std::vector<RunRecord> records(selection.size());
    for (std::size_t i = 0; i < selection.size(); ++i)
        records[i].experiment = selection[i];

    const Context ctx{opts.seed};
    Watchdog watchdog{selection, opts.watchdogSeconds};
    // chunk=1 so each experiment is one schedulable unit; results are
    // stored by index, so the record order never depends on timing.
    ParallelOptions popts;
    popts.jobs = opts.jobs;
    popts.chunk = 1;
    parallelFor(
        selection.size(),
        [&](std::size_t i) {
            watchdog.started(i);
            runOne(*selection[i], ctx, records[i]);
            watchdog.finished(i);
        },
        popts);
    return records;
}

} // namespace cryo::exp
