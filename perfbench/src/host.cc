#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>
#include <fstream>
#include <sstream>
#include <thread>

#include "common.hh"
#include "trace.hh"

namespace perfbench
{

void
Outcome::metric(std::string name, double value, std::string unit)
{
    metrics.push_back({std::move(name), value, std::move(unit)});
}

void
Outcome::check(bool ok, const std::string &what, std::uint64_t failedOps)
{
    if (ok)
        return;
    correct = false;
    failed += failedOps;
    notes.push_back("CHECK FAILED: " + what);
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
            static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
        static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
peakRssMb()
{
    std::ifstream in{"/proc/self/status"};
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields{line.substr(6)};
            double kb = 0.0;
            fields >> kb;
            return kb / 1024.0;
        }
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
secondsBetween(std::int64_t startNs, std::int64_t endNs)
{
    return static_cast<double>(endNs - startNs) * 1e-9;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const std::size_t k = static_cast<std::size_t>(
        std::clamp(rank, 1.0, static_cast<double>(v.size())));
    return v[k - 1];
}

std::string
hostFingerprint(const std::string &commit)
{
    std::string cpu = "unknown";
    {
        std::ifstream in{"/proc/cpuinfo"};
        std::string line;
        while (std::getline(in, line)) {
            if (line.rfind("model name", 0) == 0) {
                const std::size_t colon = line.find(':');
                if (colon != std::string::npos)
                    cpu = line.substr(line.find_first_not_of(' ',
                                                             colon + 1));
                break;
            }
        }
    }
    utsname u{};
    uname(&u);
    std::ostringstream out;
    out << "cpu=\"" << cpu << "\" nproc="
        << hostCpus() << " kernel=" << u.release
        << " compiler=\"" << PERFBENCH_COMPILER << "\" flags=\""
        << PERFBENCH_FLAGS << "\" build=" << PERFBENCH_BUILD_TYPE
        << " commit=" << commit;
    return out.str();
}

double
hostCalibSeconds()
{
    // xorshift64* chain: a dependent integer loop the compiler cannot
    // vectorise or fold, so its time tracks single-core speed only.
    // Start and end through volatile so the loop is neither folded
    // at compile time nor dropped as dead.
    volatile std::uint64_t seed = 0x9e3779b97f4a7c15ull;
    std::uint64_t x = seed;
    const std::int64_t t0 = nowNs();
    for (int i = 0; i < 150'000'000; ++i) {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        x *= 0x2545f4914f6cdd1dull;
    }
    const std::int64_t t1 = nowNs();
    seed = x;
    return secondsBetween(t0, t1);
}

double
hostSleepLateP99Ms()
{
    std::vector<double> lateMs;
    lateMs.reserve(1000);
    auto due = std::chrono::steady_clock::now();
    for (int i = 0; i < 1000; ++i) {
        due += std::chrono::microseconds(250);
        std::this_thread::sleep_until(due);
        const auto late = std::chrono::steady_clock::now() - due;
        lateMs.push_back(
            std::chrono::duration<double, std::milli>(late).count());
    }
    return percentile(std::move(lateMs), 0.99);
}

double
hostStealSeconds()
{
    std::ifstream in{"/proc/stat"};
    std::string cpu;
    double field = 0.0, steal = 0.0;
    in >> cpu; // "cpu": user nice system idle iowait irq softirq steal
    for (int i = 0; i < 8 && in >> field; ++i)
        steal = field;
    return cpu == "cpu" ? steal / static_cast<double>(sysconf(_SC_CLK_TCK))
                        : 0.0;
}

int
hostCpus()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n > 0 ? static_cast<int>(n) : 1;
}

} // namespace perfbench
