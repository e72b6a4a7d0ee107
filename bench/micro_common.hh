/**
 * @file
 * Minimal timing harness for the kernel micro benchmarks.
 *
 * Replaces the external google-benchmark dependency with a
 * fixed-schema JSON emitter the perf-regression gate
 * (tools/bench_gate.py) can diff: one entry per kernel, best-of-reps
 * ns/op (the minimum is the standard noise-robust statistic - any
 * slower sample only measures interference), scalar and (where the
 * kernel has one) batch variants side by side.
 *
 * Schema ("cryowire-bench/1"):
 * @code
 *   {
 *     "schema": "cryowire-bench/1",
 *     "suite": "micro_models",
 *     "unit": "ns/op",
 *     "kernels": [
 *       {"name": "wire_rc_delay", "ops": 512,
 *        "scalar_ns_op": 95.8, "batch_ns_op": null, "speedup": null},
 *       {"name": "interval_sim_parsec", "ops": 13,
 *        "scalar_ns_op": 1188.0, "batch_ns_op": 1078.0, "speedup": 1.1}
 *     ]
 *   }
 * @endcode
 */

#ifndef CRYOWIRE_BENCH_MICRO_COMMON_HH
#define CRYOWIRE_BENCH_MICRO_COMMON_HH

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/cli.hh"
#include "util/diag.hh"
#include "util/json.hh"
#include "util/output.hh"

namespace cryo::micro
{

/** Keep @p value (and everything it points to) alive past -O2. */
template <class T>
inline void
keep(const T &value)
{
#if defined(__GNUC__) || defined(__clang__)
    asm volatile("" : : "g"(&value) : "memory");
#else
    static volatile const void *sink;
    sink = &value;
#endif
}

/** One measured kernel: scalar ns/op and the optional batch ns/op. */
struct KernelRow
{
    std::string name;
    std::uint64_t ops;
    double scalarNsOp;
    std::optional<double> batchNsOp;
};

/**
 * Suite driver: parses the common CLI (see --help), times kernel
 * bodies, renders a table to stdout, and writes the gate's JSON on
 * request.
 */
class Harness
{
  public:
    Harness(std::string suite, int argc, char **argv)
        : suite_(std::move(suite))
    {
        const cli::Spec spec{
            "bench_" + suite_,
            "usage: bench_" + suite_ + " [options]\n\nTime the " +
                suite_ +
                " kernels and print their ns/op; --json writes\n"
                "the report tools/bench_gate.py checks.\n",
            {
                cli::text("--json", "PATH", &jsonPath_,
                          "write the cryowire-bench/1 JSON report"),
                cli::number("--reps", "N", &reps_, 1, INT_MAX,
                            "timed samples per kernel; the minimum "
                            "is reported"),
                cli::number("--min-time-ms", "MS", &minTimeMs_, 0.0, 1e6,
                            "calibrate each sample to at least this long"),
                cli::toggle("--quiet", &quiet_, "suppress the table"),
            }};
        if (const std::optional<int> status =
                cli::parseForMain(spec, argc, argv))
            std::exit(*status);
    }

    /**
     * Best-case ns per op of @p body, which performs @p ops_per_call
     * ops per invocation.  Calibrates an iteration count to
     * ~min-time, then takes the minimum over --reps timed samples.
     */
    template <class F>
    double
    time(std::uint64_t ops_per_call, F &&body)
    {
        using clock = std::chrono::steady_clock;
        auto sample = [&](std::uint64_t iters) {
            const auto t0 = clock::now();
            for (std::uint64_t i = 0; i < iters; ++i)
                body();
            const auto t1 = clock::now();
            return std::chrono::duration<double, std::nano>(t1 - t0)
                .count();
        };
        std::uint64_t iters = 1;
        double ns = sample(iters);
        while (ns < minTimeMs_ * 1e6 && iters < (std::uint64_t{1} << 28)) {
            iters *= 2;
            ns = sample(iters);
        }
        double best = std::numeric_limits<double>::infinity();
        for (int r = 0; r < reps_; ++r) {
            best = std::min(best,
                            sample(iters) /
                                (static_cast<double>(iters) *
                                 static_cast<double>(ops_per_call)));
        }
        return best;
    }

    /** Record a kernel with no batch variant. */
    void
    record(const std::string &name, std::uint64_t ops, double scalar_ns)
    {
        rows_.push_back({name, ops, scalar_ns, std::nullopt});
    }

    /** Record a scalar/batch pair. */
    void
    record(const std::string &name, std::uint64_t ops, double scalar_ns,
           double batch_ns)
    {
        rows_.push_back({name, ops, scalar_ns, batch_ns});
    }

    /**
     * Render the table, write the JSON, return the exit code: 1 when
     * either output cannot be written.
     */
    int
    finish() const
    {
        if (!quiet_) {
            std::printf("%-28s %12s %12s %8s\n", "kernel",
                        "scalar ns/op", "batch ns/op", "speedup");
            for (const auto &r : rows_) {
                if (r.batchNsOp) {
                    std::printf("%-28s %12.2f %12.2f %7.2fx\n",
                                r.name.c_str(), r.scalarNsOp,
                                *r.batchNsOp,
                                r.scalarNsOp / *r.batchNsOp);
                } else {
                    std::printf("%-28s %12.2f %12s %8s\n",
                                r.name.c_str(), r.scalarNsOp, "-", "-");
                }
            }
        }
        const std::string program = "bench_" + suite_;
        if (jsonPath_.empty())
            return cli::flushStdout(program, 0);
        std::ostringstream out;
        {
            JsonWriter w{out}; // its destructor writes the final newline
            w.beginObject();
            w.key("schema").value("cryowire-bench/1");
            w.key("suite").value(suite_);
            w.key("unit").value("ns/op");
            w.key("kernels").beginArray();
            for (const auto &r : rows_) {
                w.beginObject();
                w.key("name").value(r.name);
                w.key("ops").value(static_cast<std::uint64_t>(r.ops));
                w.key("scalar_ns_op").value(r.scalarNsOp);
                w.key("batch_ns_op");
                if (r.batchNsOp)
                    w.value(*r.batchNsOp);
                else
                    w.null();
                w.key("speedup");
                if (r.batchNsOp)
                    w.value(r.scalarNsOp / *r.batchNsOp);
                else
                    w.null();
                w.endObject();
            }
            w.endArray();
            w.endObject();
        }
        int status = 0;
        try {
            writeFile(jsonPath_, out.view());
        } catch (const FatalError &e) {
            std::fprintf(stderr, "%s: %s\n", program.c_str(), e.what());
            status = 1;
        }
        return cli::flushStdout(program, status);
    }

  private:
    std::string suite_;
    std::string jsonPath_;
    int reps_ = 5;
    double minTimeMs_ = 100.0;
    bool quiet_ = false;
    std::vector<KernelRow> rows_;
};

} // namespace cryo::micro

#endif // CRYOWIRE_BENCH_MICRO_COMMON_HH
