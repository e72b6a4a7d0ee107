/**
 * @file
 * The sweep engine: enumerate a SweepSpec, evaluate (or cache-hit)
 * every point of one shard in parallel, and emit a deterministic
 * JSONL result stream.
 *
 * One result line per point, compact, in sweep-index order:
 * @code
 *   {"i":42,"hash":"8d3f...","point":{...},"metrics":{...}}
 * @endcode
 *
 * Sharding contract: shard k of n owns exactly the indices with
 * i % n == k, so shards partition the sweep and any job count -
 * including the serial n=1 run - produces the same per-index bytes.
 * mergeShards() therefore reassembles the serial output
 * byte-identically from any shard decomposition: lines are copied
 * verbatim, ordered by index, and checked for gaps and duplicates.
 *
 * Restartability comes from the ResultCache: every evaluated point is
 * flushed to the cache as it completes, so re-running a killed shard
 * re-evaluates only what is missing (lookup by content hash), and a
 * spec edit invalidates exactly the points it changes.
 *
 * The shard runs in blocks of kSweepBlockPoints points. Within a
 * block the pool's workers look up or evaluate each point, append its
 * cache record, and format its result line; a point's metrics object
 * is rendered once and spliced into both. Whichever worker takes the
 * next block's first point writes this block's lines in index order
 * while the others evaluate (the last block is written once the
 * loop ends), so up to two blocks' lines are held and the output's
 * bytes do not depend on the job count.
 */

#ifndef CRYOWIRE_DSE_SWEEP_RUNNER_HH
#define CRYOWIRE_DSE_SWEEP_RUNNER_HH

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

#include "dse/pareto.hh"
#include "dse/point_eval.hh"
#include "dse/result_cache.hh"
#include "dse/sweep_spec.hh"

namespace cryo::dse
{

/** Knobs for one runSweep call. */
struct SweepOptions
{
    /** This shard's index in [0, shardCount). */
    int shardIndex = 0;

    /** Total shards partitioning the sweep. */
    int shardCount = 1;

    /**
     * Worker threads, for the cache load and the points alike;
     * 0 = CRYOWIRE_JOBS / hardware default.
     */
    int jobs = 0;

    /** Result-cache path; "" = in-memory (no persistence). */
    std::string cachePath;

    /** Fsync the cache after every stored record (power-loss-safe). */
    bool fsyncCache = false;
};

/** What one runSweep call did. */
struct SweepStats
{
    std::size_t totalPoints = 0; ///< whole spec
    std::size_t shardPoints = 0; ///< owned by this shard
    std::size_t cacheHits = 0;   ///< served from the cache
    std::size_t evaluated = 0;   ///< freshly computed
    std::size_t quarantined = 0; ///< damaged cache records sidelined
};

/**
 * Points per runSweep block: a few hundred keep every worker busy
 * between the block's barriers, and hold two blocks' lines near
 * 0.6 MB.
 */
constexpr std::size_t kSweepBlockPoints = 512;

/** Render one result line (no trailing newline). */
std::string formatResultLine(const EvaluatedPoint &p);

/**
 * Evaluate this shard of @p spec and write its result lines to
 * @p out in index order. Returns the shard's evaluated points (same
 * order); @p stats (optional) reports cache effectiveness.
 *
 * When a point throws (an evaluation fault, an invalid point), the
 * exception propagates once the block's other claimed points finish.
 * @p out then holds the lines of every block before the failing one,
 * whole and in index order, and nothing of the failing block; the
 * cache holds every point evaluated before the throw. A caller that
 * must write all or nothing buffers @p out (cryowire_sweep does).
 */
std::vector<EvaluatedPoint> runSweep(const SweepSpec &spec,
                                     const PointEvaluator &evaluator,
                                     std::ostream &out,
                                     const SweepOptions &options = {},
                                     SweepStats *stats = nullptr);

/**
 * Merge shard result files into the serial-order stream. Lines are
 * copied verbatim and ordered by their "i" field; a duplicate or
 * missing index is fatal (it means the shard set was wrong or a
 * shard is incomplete).
 */
void mergeShards(const std::vector<std::string> &shardPaths,
                 std::ostream &out);

/**
 * Parse a result JSONL stream back into evaluated points. A bad line
 * is fatal(), citing @p source and the line number.
 */
std::vector<EvaluatedPoint> readResults(std::istream &in,
                                        const std::string &source);

} // namespace cryo::dse

#endif // CRYOWIRE_DSE_SWEEP_RUNNER_HH
