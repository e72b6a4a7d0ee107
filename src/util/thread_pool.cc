#include "thread_pool.hh"

#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>

#include "cli.hh"
#include "diag.hh"

namespace cryo
{

namespace
{

thread_local bool tls_in_worker = false;

} // namespace

ThreadPool::ThreadPool(int threads)
{
    fatalIf(threads < 1, "thread pool needs at least one worker");
    ensureWorkers(threads);
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stopping_ = true;
    }
    cv_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        fatalIf(stopping_, "submit on a stopping thread pool");
        tasks_.push_back(std::move(task));
    }
    cv_.notify_one();
}

void
ThreadPool::ensureWorkers(int threads)
{
    std::lock_guard<std::mutex> lock(mu_);
    while (static_cast<int>(workers_.size()) < threads)
        workers_.emplace_back([this] { workerLoop(); });
}

int
ThreadPool::threads() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<int>(workers_.size());
}

namespace
{

/** Hardware thread count, and at least 1. */
int
hardwareThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

} // namespace

int
ThreadPool::parseJobs(const char *env)
{
    if (env == nullptr)
        return hardwareThreads();
    const std::string_view raw{env};
    std::size_t begin = raw.find_first_not_of(" \t");
    std::size_t end = raw.find_last_not_of(" \t");
    const std::string_view trimmed =
        begin == std::string_view::npos
            ? std::string_view{}
            : raw.substr(begin, end - begin + 1);

    const auto jobs = cli::parseNumber<std::int64_t>(trimmed);
    if (jobs && *jobs >= 1 && *jobs <= kMaxJobs)
        return static_cast<int>(*jobs);

    const int fallback = hardwareThreads();
    std::string reason;
    if (!jobs)
        reason = "not a decimal integer";
    else if (*jobs < 1)
        reason = "must be at least 1";
    else
        reason = "exceeds the sanity cap of " +
                 std::to_string(kMaxJobs);
    warn("ignoring CRYOWIRE_JOBS=\"" + std::string(raw) + "\" (" +
         reason + "); using the hardware thread count (" +
         std::to_string(fallback) + ")");
    return fallback;
}

int
ThreadPool::defaultThreads()
{
    // CRYOLINT-NEXTLINE(determinism-calls): CRYOWIRE_JOBS only picks
    // the worker count; results are bitwise job-count-invariant
    // (test_parallel pins 1/2/8 jobs against identical output).
    return parseJobs(std::getenv("CRYOWIRE_JOBS"));
}

ThreadPool &
ThreadPool::global()
{
    static ThreadPool pool(defaultThreads());
    return pool;
}

bool
ThreadPool::inWorker()
{
    return tls_in_worker;
}

void
ThreadPool::workerLoop()
{
    tls_in_worker = true;
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mu_);
            cv_.wait(lock,
                     [this] { return stopping_ || !tasks_.empty(); });
            if (tasks_.empty())
                return; // stopping and drained
            task = std::move(tasks_.front());
            tasks_.pop_front();
        }
        task();
    }
}

} // namespace cryo
