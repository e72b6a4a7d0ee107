/**
 * @file
 * Hash-keyed JSONL result cache - the DSE engine's checkpoint and
 * dedupe layer, with per-record integrity framing.
 *
 * One framed record per line (schema v2):
 * @code
 *   v2 <len> <crc32c-8hex> {"hash":"8d3f...","metrics":{...}}
 * @endcode
 * `len` is the byte length of the JSON payload and the CRC32C covers
 * exactly those bytes, so a torn append (kill mid-write), a flipped
 * bit, or an editor accident is detected per record - not merely per
 * "last line". Legacy v1 caches (bare JSON lines) still load; the
 * file is migrated to v2 framing in place (crash-safely) the first
 * time a v1 or damaged record is seen on a writable cache.
 *
 * Damaged records are never fatal: each one is appended verbatim to a
 * quarantine sidecar (`<path>.quarantine`) for post-mortems, counted,
 * and warned about once per load. The points simply re-evaluate.
 *
 * The key is DesignPoint::hashHex() (kSchema-tagged canonical content
 * hash), so a cache survives process restarts, shard reshuffles, and
 * spec edits: any point whose content is unchanged hits, everything
 * else misses and re-evaluates. Appends go straight to the fd (one
 * write() per record), which makes every record a checkpoint - a
 * killed sweep resumes from the last completed point. An opt-in
 * fsync-per-store mode extends that to power loss.
 *
 * Duplicate keys are legal (two shards may race on a shared point);
 * the last occurrence wins, and rewrite() compacts the file back to
 * one record per key in sorted-key order via write-temp -> fsync ->
 * atomic rename, so a crash at any instant leaves either the old or
 * the new file - never a truncated hybrid.
 *
 * The load streams the file in blocks of kLoadBlockLines lines. Each
 * block's lines are unframed, CRC-checked and parsed on the shared
 * pool at the owner's width (a sweep's --jobs, the daemon's eval
 * threads), then applied on the constructing thread in file order:
 * the last occurrence wins across blocks too, and damaged lines reach
 * the sidecar in file order, so every width loads the same entries
 * and writes the same bytes. The index is a hash map; only
 * compaction sorts the keys, in std::string order.
 *
 * Failpoint sites: "cache.append.write" (error / partial(BYTES)),
 * "cache.compact.write", "cache.compact.rename".
 */

#ifndef CRYOWIRE_DSE_RESULT_CACHE_HH
#define CRYOWIRE_DSE_RESULT_CACHE_HH

#include <cstddef>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "dse/point_eval.hh"

namespace cryo::dse
{

/**
 * What an unwritable cache file means to the caller.
 *
 * A sweep wants kRequireWritable: losing checkpointing silently
 * would turn a killed 10k-point run into a from-scratch rerun. The
 * serving daemon wants kTolerateReadOnly: a cache that cannot be
 * appended to still answers lookups, and a long-running server must
 * degrade to memory-only persistence rather than refuse to start.
 */
enum class CacheWritability
{
    kRequireWritable,
    kTolerateReadOnly,
};

/**
 * How hard each store() pushes the record toward the platter.
 *
 * kWritePerStore issues one write() per record - survives process
 * death (the common CI/cluster kill), not power loss. kFsyncPerStore
 * adds an fsync per record - survives power loss at a real throughput
 * cost; meant for long unattended sweeps on flaky hosts.
 */
enum class CacheDurability
{
    kWritePerStore,
    kFsyncPerStore,
};

/**
 * The cache. Thread-safe: lookup/insert/append may be called from
 * parallelFor workers.
 */
class ResultCache
{
  public:
    /**
     * Open the cache at @p path ("" = in-memory only). An existing
     * file is loaded (deduped; damaged or legacy records handled as
     * documented above) on @p loadJobs workers (0 = CRYOWIRE_JOBS /
     * hardware default, 1 = the calling thread only); a missing file
     * starts empty and is created on the first append. When the file
     * cannot be opened for appending, kRequireWritable is fatal();
     * kTolerateReadOnly warns once and serves lookups with
     * memory-only stores.
     */
    explicit ResultCache(
        std::string path,
        CacheWritability writability = CacheWritability::kRequireWritable,
        CacheDurability durability = CacheDurability::kWritePerStore,
        int loadJobs = 0);
    ~ResultCache();

    ResultCache(const ResultCache &) = delete;
    ResultCache &operator=(const ResultCache &) = delete;

    /** True and *out filled when @p hashHex is cached. */
    bool lookup(const std::string &hashHex, PointMetrics *out) const;

    /**
     * Record a result: remembered in memory and appended to the file
     * (one write() - this is the checkpoint; plus fsync under
     * kFsyncPerStore). A key already present is remembered but not
     * re-appended.
     */
    void store(const std::string &hashHex, const PointMetrics &m);

    /**
     * store(hashHex, m) for a caller that already rendered m.json()
     * as @p metricsJson to embed elsewhere too (a sweep's result
     * line): the record splices those bytes instead of rendering the
     * metrics again. Empty renders @p m, as store(hashHex, m) does.
     */
    void store(const std::string &hashHex, const PointMetrics &m,
               std::string_view metricsJson);

    /** Entries loaded from disk at construction. */
    std::size_t loadedEntries() const { return loaded_; }

    /** Damaged records quarantined to the sidecar at load. */
    std::size_t quarantinedEntries() const { return quarantined_; }

    /** fsync the append fd (shutdown flush); no-op when read-only. */
    void flush();

    /** True while appends still reach the file. */
    bool writable() const;

    /** Entries currently held (loaded + stored). */
    std::size_t size() const;

    /**
     * Rewrite the file compacted: one record per key, keys sorted,
     * last occurrence winning, v2-framed. Crash-safe (temp + fsync +
     * rename). No-op for in-memory caches. A failpoint-injected
     * failure throws FatalError and leaves the original file intact.
     */
    void rewrite();

    /** Path of the quarantine sidecar for a cache at @p path. */
    static std::string quarantinePath(const std::string &path);

    /** Render one payload line (no framing, no newline); tests. */
    static std::string formatLine(const std::string &hashHex,
                                  const PointMetrics &m);

    /** Render one framed v2 record (no trailing newline); tests. */
    static std::string formatRecord(const std::string &hashHex,
                                    const PointMetrics &m);

    /**
     * Lines per load block: a few hundred keep the reused line and
     * result buffers near 0.1 MB while each block still feeds every
     * worker.
     */
    static constexpr std::size_t kLoadBlockLines = 256;

  private:
    void loadExisting(int jobs);
    void quarantine(std::string_view line);
    /** Append one framed record, newline included. */
    bool appendLocked(const std::string &record);
    void compactLocked();
    void degradeLocked(const std::string &why);

    std::string path_;
    CacheDurability durability_ = CacheDurability::kWritePerStore;
    mutable std::mutex mu_;
    std::unordered_map<std::string, PointMetrics> entries_;
    int fd_ = -1;
    std::size_t loaded_ = 0;
    std::size_t quarantined_ = 0;
    bool sawLegacy_ = false;
};

} // namespace cryo::dse

#endif // CRYOWIRE_DSE_RESULT_CACHE_HH
