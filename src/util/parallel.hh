/**
 * @file
 * Deterministic data-parallel loops for the sweep engines.
 *
 * parallelFor/parallelMap split an index range into chunks executed on
 * the shared ThreadPool. Determinism contract: results are keyed by
 * index (never by completion order), so as long as the per-index work
 * is itself a pure function of the index — which every sweep in this
 * repo guarantees by seeding per-point RNG streams from the index — the
 * output is bitwise-identical at any job count, including 1.
 *
 * Reductions that depend on order (argmax with first-wins ties, prefix
 * sums) are performed serially over the index-ordered results.
 *
 * The width resolves once per call: 1 on a pool worker or inside
 * another call's body (only the outermost call fans out), else
 * ParallelOptions::jobs if positive, else CRYOWIRE_JOBS, else the
 * hardware thread count. Every width runs the same claim-and-drain
 * loop on the caller and marks the region, so everything beneath a
 * width-1 call stays on the caller's thread.
 */

#ifndef CRYOWIRE_UTIL_PARALLEL_HH
#define CRYOWIRE_UTIL_PARALLEL_HH

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <type_traits>
#include <vector>

#include "thread_pool.hh"

namespace cryo
{

/** Per-call knobs for parallelFor/parallelMap. */
struct ParallelOptions
{
    /** Worker count; 0 = CRYOWIRE_JOBS / hardware default. */
    int jobs = 0;
    /** Indices per claimed chunk; 0 = auto (n / (4 * jobs)). */
    std::size_t chunk = 0;
};

namespace detail
{

/** True while this thread executes inside a parallelFor region. */
inline thread_local bool tls_in_parallel_region = false;

struct ParallelState
{
    std::atomic<std::size_t> next{0};
    std::mutex mu;
    std::condition_variable cv;
    int pending = 0;
    std::exception_ptr error;
};

} // namespace detail

/**
 * Run body(i) for every i in [0, n), distributing chunks over the
 * shared pool; blocks until all claimed chunks completed. The first
 * exception thrown by any chunk stops further chunk claims and is
 * rethrown on the calling thread. @p body must be safe to invoke
 * concurrently for distinct indices.
 */
template <typename Body>
void
parallelFor(std::size_t n, Body &&body, ParallelOptions opts = {})
{
    // Only the outermost call fans out: a pool worker must not block
    // on the queue it drains, and a nested call runs on its caller.
    int jobs = 1;
    if (!ThreadPool::inWorker() && !detail::tls_in_parallel_region)
        jobs = opts.jobs > 0 ? opts.jobs : ThreadPool::defaultThreads();
    const std::size_t chunk = opts.chunk > 0
        ? opts.chunk
        : std::max<std::size_t>(
              1, n / (4 * static_cast<std::size_t>(jobs)));
    const std::size_t chunks = (n + chunk - 1) / chunk;
    const int workers = static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(jobs), chunks));

    detail::ParallelState state;
    auto drain = [&state, &body, n, chunk] {
        const bool was_in_region = detail::tls_in_parallel_region;
        detail::tls_in_parallel_region = true;
        for (;;) {
            const std::size_t begin =
                state.next.fetch_add(chunk, std::memory_order_relaxed);
            if (begin >= n)
                break;
            const std::size_t end = std::min(n, begin + chunk);
            try {
                for (std::size_t i = begin; i < end; ++i)
                    body(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(state.mu);
                if (!state.error)
                    state.error = std::current_exception();
                // Stop further claims: every later one starts at n.
                state.next.store(n);
            }
        }
        detail::tls_in_parallel_region = was_in_region;
    };

    if (workers > 1) {
        ThreadPool &pool = ThreadPool::global();
        pool.ensureWorkers(jobs);
        {
            std::lock_guard<std::mutex> lock(state.mu);
            state.pending = workers - 1;
        }
        for (int w = 0; w < workers - 1; ++w) {
            pool.submit([&state, &drain] {
                drain();
                std::lock_guard<std::mutex> lock(state.mu);
                if (--state.pending == 0)
                    state.cv.notify_one();
            });
        }
    }
    drain(); // the caller works too instead of idling on the wait
    {
        std::unique_lock<std::mutex> lock(state.mu);
        state.cv.wait(lock, [&state] { return state.pending == 0; });
        if (state.error)
            std::rethrow_exception(state.error);
    }
}

/**
 * Map [0, n) through @p fn into an index-ordered vector. The result
 * type must be default-constructible; element i is exactly fn(i), so
 * the output is independent of the job count.
 */
template <typename Fn>
auto
parallelMap(std::size_t n, Fn &&fn, ParallelOptions opts = {})
    -> std::vector<std::decay_t<decltype(fn(std::size_t{0}))>>
{
    std::vector<std::decay_t<decltype(fn(std::size_t{0}))>> out(n);
    parallelFor(
        n, [&out, &fn](std::size_t i) { out[i] = fn(i); }, opts);
    return out;
}

} // namespace cryo

#endif // CRYOWIRE_UTIL_PARALLEL_HH
