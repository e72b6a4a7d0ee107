/**
 * @file
 * A lazily-grown worker pool shared by the parallel sweep engine.
 *
 * The pool owns plain workers pulling type-erased tasks off one queue;
 * all scheduling policy (chunking, ordering, determinism) lives in
 * util/parallel.hh on top of it. The process-wide instance is sized by
 * the CRYOWIRE_JOBS environment variable (falling back to the hardware
 * thread count) and grows on demand, so a single binary can mix sweeps
 * at different widths without re-creating threads.
 */

#ifndef CRYOWIRE_UTIL_THREAD_POOL_HH
#define CRYOWIRE_UTIL_THREAD_POOL_HH

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cryo
{

/**
 * Fixed-policy task pool: submit() never blocks, workers run tasks in
 * FIFO order, the destructor drains the queue before joining.
 */
class ThreadPool
{
  public:
    /** @param threads initial worker count (>= 1). */
    explicit ThreadPool(int threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue @p task; it runs on some worker, eventually. */
    void submit(std::function<void()> task);

    /** Grow the pool to at least @p threads workers (never shrinks). */
    void ensureWorkers(int threads);

    /** Current worker count. */
    int threads() const;

    /**
     * Parallel width requested for this process: CRYOWIRE_JOBS if set
     * to a valid job count, else std::thread::hardware_concurrency(),
     * and at least 1.
     */
    static int defaultThreads();

    /**
     * Largest CRYOWIRE_JOBS or --jobs value accepted. Far above any
     * real machine; a request beyond it is a typo ("80000" for "8"),
     * not a topology, and oversubscribing by three orders of
     * magnitude would OOM before it parallelized anything.
     */
    static constexpr int kMaxJobs = 4096;

    /**
     * Validate one CRYOWIRE_JOBS value (defaultThreads' parsing,
     * exposed for tests). Accepts a decimal integer in [1, kMaxJobs]
     * (cli::parseNumber, the rule every --jobs flag uses) with
     * optional surrounding whitespace. Anything else - empty,
     * non-numeric, trailing garbage, zero, negative, or absurd - emits
     * one dedup'd warn() naming the value and falls back to the
     * hardware thread count. @p env may be nullptr (unset: silent
     * fallback).
     */
    static int parseJobs(const char *env);

    /** The process-wide pool, created on first use. */
    static ThreadPool &global();

    /** True on a thread currently executing a pool task. */
    static bool inWorker();

  private:
    void workerLoop();

    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::deque<std::function<void()>> tasks_;
    std::vector<std::thread> workers_;
    bool stopping_ = false;
};

} // namespace cryo

#endif // CRYOWIRE_UTIL_THREAD_POOL_HH
