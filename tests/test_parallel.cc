/**
 * @file
 * Tests for the parallel sweep engine: the thread pool, the chunked
 * deterministic parallelFor/parallelMap and its one level of
 * parallelism, and the per-point RNG streams.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "util/diag.hh"
#include "util/parallel.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace
{

using namespace cryo;

TEST(ThreadPool, DefaultThreadsAtLeastOne)
{
    EXPECT_GE(ThreadPool::defaultThreads(), 1);
}

TEST(ThreadPool, RunsSubmittedTasks)
{
    ThreadPool pool(2);
    std::atomic<int> done{0};
    for (int i = 0; i < 32; ++i)
        pool.submit([&done] { ++done; });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (done.load() < 32 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::yield();
    EXPECT_EQ(done.load(), 32);
}

TEST(ThreadPool, GrowsButNeverShrinks)
{
    ThreadPool pool(1);
    pool.ensureWorkers(3);
    EXPECT_EQ(pool.threads(), 3);
    pool.ensureWorkers(2);
    EXPECT_EQ(pool.threads(), 3);
}

TEST(Parallel, CoversEveryIndexExactlyOnce)
{
    constexpr std::size_t n = 1000;
    std::vector<int> hits(n, 0);
    ParallelOptions par;
    par.jobs = 8;
    par.chunk = 7; // deliberately not dividing n
    parallelFor(n, [&hits](std::size_t i) { ++hits[i]; }, par);
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i], 1) << "index " << i;
}

TEST(Parallel, MapIsIndexOrdered)
{
    ParallelOptions par;
    par.jobs = 8;
    const auto sq = parallelMap(
        100,
        [](std::size_t i) { return static_cast<double>(i * i); },
        par);
    ASSERT_EQ(sq.size(), 100u);
    for (std::size_t i = 0; i < sq.size(); ++i)
        EXPECT_DOUBLE_EQ(sq[i], static_cast<double>(i * i));
}

TEST(Parallel, EmptyAndSingleIndex)
{
    int calls = 0;
    parallelFor(0, [&calls](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    parallelFor(1, [&calls](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 1);
}

TEST(Parallel, PropagatesFirstException)
{
    ParallelOptions par;
    par.jobs = 4;
    EXPECT_THROW(parallelFor(
                     64,
                     [](std::size_t i) {
                         fatalIf(i == 40, "injected failure");
                     },
                     par),
                 FatalError);

    // At width 1 the claim loop runs in index order on the caller, so
    // stopping claims at the first throw means no later index runs.
    par.jobs = 1;
    std::vector<std::size_t> ran;
    EXPECT_THROW(parallelFor(
                     64,
                     [&ran](std::size_t i) {
                         ran.push_back(i);
                         fatalIf(i == 40, "injected failure");
                     },
                     par),
                 FatalError);
    ASSERT_FALSE(ran.empty());
    EXPECT_EQ(ran.back(), 40u);
    EXPECT_EQ(ran.size(), 41u);
}

TEST(Parallel, NestedCallsRunSerially)
{
    std::atomic<int> calls{0};
    ParallelOptions par;
    par.jobs = 4;
    parallelFor(
        4,
        [&calls, par](std::size_t) {
            parallelFor(
                8, [&calls](std::size_t) { ++calls; }, par);
        },
        par);
    EXPECT_EQ(calls.load(), 32);
}

/** Thread ids seen by a body, from any thread. */
class ThreadIds
{
  public:
    void
    record()
    {
        std::lock_guard<std::mutex> lock(mu_);
        ids_.insert(std::this_thread::get_id());
    }

    std::set<std::thread::id>
    seen() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return ids_;
    }

  private:
    mutable std::mutex mu_;
    std::set<std::thread::id> ids_;
};

/** Long enough that a fanned-out call hands chunks to helpers. */
void
briefWork()
{
    std::this_thread::sleep_for(std::chrono::microseconds(200));
}

TEST(Parallel, WidthOneCallKeepsNestedCallsOnItsThread)
{
    ThreadIds ids;
    ParallelOptions outer;
    outer.jobs = 1;
    ParallelOptions inner;
    inner.jobs = 4;
    inner.chunk = 1;
    parallelFor(
        4,
        [&ids, inner](std::size_t) {
            parallelFor(
                16,
                [&ids](std::size_t) {
                    ids.record();
                    briefWork();
                },
                inner);
        },
        outer);
    const auto seen = ids.seen();
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(*seen.begin(), std::this_thread::get_id());
}

TEST(Parallel, PoolTaskRunsParallelForInline)
{
    // Serve's path: an eval task submitted straight to the pool. A
    // worker that fanned out would wait on the queue it drains.
    ThreadIds ids;
    std::atomic<int> calls{0};
    std::promise<std::thread::id> worker;
    ThreadPool::global().submit([&] {
        ParallelOptions par;
        par.jobs = 4;
        par.chunk = 1;
        parallelFor(
            16,
            [&](std::size_t) {
                ids.record();
                ++calls;
                briefWork();
            },
            par);
        worker.set_value(std::this_thread::get_id());
    });
    const std::thread::id worker_id = worker.get_future().get();
    EXPECT_NE(worker_id, std::this_thread::get_id());
    EXPECT_EQ(calls.load(), 16);
    const auto seen = ids.seen();
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(*seen.begin(), worker_id);
}

TEST(Rng, DerivedSeedsAreDeterministicAndDistinct)
{
    EXPECT_EQ(Rng::deriveSeed(7, 3), Rng::deriveSeed(7, 3));
    EXPECT_NE(Rng::deriveSeed(7, 3), Rng::deriveSeed(7, 4));
    EXPECT_NE(Rng::deriveSeed(7, 3), Rng::deriveSeed(8, 3));
    // Consecutive streams must not produce consecutive raw seeds.
    EXPECT_NE(Rng::deriveSeed(7, 4) - Rng::deriveSeed(7, 3), 1u);
}

} // namespace
