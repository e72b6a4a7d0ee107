/**
 * @file
 * Shared pieces of cryowire_perfbench: the per-run outcome every
 * workload fills, the host measurements recorded beside it, and small
 * statistics helpers.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench
{

/** What one invocation was asked to do. */
struct RunConfig
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workDir;  ///< scratch space inside the checkout
    std::string traceDir; ///< where traced runs write their trace file
    std::string commit;   ///< source revision for the fingerprint
};

/** A metric cryowire_perfbench can print: name and unit. */
using MetricSpec = std::pair<std::string, std::string>;

/** Printed by every workload's untraced run; BENCHMARK.json lists
 * exactly these as "end_to_end". */
const std::vector<MetricSpec> &endToEndMetrics();

/** Printed by every workload's traced run ("per_layer"); a workload
 * that does not enter a layer reports that layer's metrics as 0. */
const std::vector<MetricSpec> &perLayerMetrics();

/** One metric as printed in the result line. */
struct MetricValue
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * The result of one run: output checks (correct), attempted and failed
 * operations, and the metrics of the requested mode.
 */
struct Outcome
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<MetricValue> metrics;
    std::vector<std::string> notes; ///< human-readable lines

    void metric(std::string name, double value, std::string unit);

    /** Record a check; a failing one marks the run incorrect and
     * adds @p failedOps to the failed operations. */
    void check(bool ok, const std::string &what,
               std::uint64_t failedOps = 1);

    void note(std::string line) { notes.push_back(std::move(line)); }
};

/** Process CPU time, user + system [s]. */
double processCpuSeconds();

/** CPU time of the calling thread [s]. */
double threadCpuSeconds();

/** Resident-set high-water of the process [MB] (VmHWM). */
double peakRssMb();

/** Wall seconds between two nowNs() readings. */
double secondsBetween(std::int64_t startNs, std::int64_t endNs);

/** Median of @p v (mean of the middle pair when even); 0 if empty. */
double median(std::vector<double> v);

/** Nearest-rank percentile, @p q in [0, 1]; 0 if empty. */
double percentile(std::vector<double> v, double q);

/** Host fingerprint: CPU model, nproc, kernel, compiler, flags, build
 * type and source revision, as one line. */
std::string hostFingerprint(const std::string &commit);

/** A fixed single-thread integer loop of benchmark-owned code [s];
 * moves only with the host's speed. */
double hostCalibSeconds();

/** p99 lateness of sleep_until over fixed short sleeps [ms]. */
double hostSleepLateP99Ms();

/** CPU time the hypervisor took from this VM, all CPUs [s]
 * (the steal column of /proc/stat; 0 where absent). */
double hostStealSeconds();

/** Online CPUs. */
int hostCpus();

class Tracer;

/** Write @p tracer's spans as <traceDir>/<workload>-seed<N>.trace.json
 * and note the per-layer self times in @p out. */
void writeTraceFile(const RunConfig &cfg, const Tracer &tracer,
                    Outcome &out);

/** Workload entry points. */
Outcome runAnchors(const RunConfig &cfg);
Outcome runDseGrid(const RunConfig &cfg);
Outcome runServeMixed(const RunConfig &cfg);

/** Anchors results JSON of the experiments tagged @p tag, run with
 * tracing off and then on; true when the two are byte-identical. */
bool anchorsTraceInvariant(std::uint64_t seed, const std::string &tag);

/** The --selftest entry; returns the number of failed self-tests. */
int runSelfTests(const std::string &benchmarkJson,
                 const std::string &workDir);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
