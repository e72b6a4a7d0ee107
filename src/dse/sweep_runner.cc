#include "sweep_runner.hh"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <istream>
#include <string_view>

#include "util/diag.hh"
#include "util/parallel.hh"

namespace cryo::dse
{

namespace
{

/**
 * Points a worker claims at a time within a block: a few, so that at
 * the block's end no worker idles long while another finishes its
 * last claim (a point costs ~10 us cold).
 */
constexpr std::size_t kClaimPoints = 8;

/**
 * formatResultLine for a point whose @p hash is already known. The
 * metrics object is spliced from @p metricsJson (p.metrics.json(),
 * already rendered for the cache record) or, when that is empty,
 * rendered here.
 */
std::string
resultLine(const EvaluatedPoint &p, std::string_view hash,
           std::string_view metricsJson)
{
    JsonWriter w;
    w.beginObject();
    w.key("i").value(static_cast<std::uint64_t>(p.index));
    w.key("hash").value(hash);
    w.key("point");
    p.point.writeJson(w);
    w.key("metrics");
    if (metricsJson.empty())
        p.metrics.writeJson(w);
    else
        w.raw(metricsJson);
    w.endObject();
    return w.take();
}

} // namespace

std::string
formatResultLine(const EvaluatedPoint &p)
{
    return resultLine(p, p.point.hashHex(), {});
}

std::vector<EvaluatedPoint>
runSweep(const SweepSpec &spec, const PointEvaluator &evaluator,
         std::ostream &out, const SweepOptions &options,
         SweepStats *stats)
{
    fatalIf(options.shardCount < 1, "need at least one shard");
    fatalIf(options.shardIndex < 0 ||
                options.shardIndex >= options.shardCount,
            "shard index " + std::to_string(options.shardIndex) +
                " outside [0, " + std::to_string(options.shardCount) +
                ")");

    // Shard k of n owns the indices k, k + n, k + 2n, ...
    const std::size_t total = spec.pointCount();
    const auto first = static_cast<std::size_t>(options.shardIndex);
    const auto stride = static_cast<std::size_t>(options.shardCount);
    const std::size_t owned =
        total > first ? (total - first + stride - 1) / stride : 0;

    ResultCache cache{options.cachePath,
                      CacheWritability::kRequireWritable,
                      options.fsyncCache
                          ? CacheDurability::kFsyncPerStore
                          : CacheDurability::kWritePerStore,
                      options.jobs};
    std::atomic<std::size_t> hits{0};
    std::atomic<std::size_t> evaluated{0};
    std::vector<EvaluatedPoint> results(owned);

    // A block at a time: the pool looks up or evaluates each point,
    // stores it, and formats its line into `block`. Item 0 first
    // writes the previous block's lines, so one worker writes while
    // the others evaluate; the last block is written after the loop.
    // Item 0 is in the first chunk claimed, and parallelFor finishes
    // claimed chunks before it rethrows, so a throw still leaves
    // exactly the blocks before the failing one in out. The two
    // buffers' slots are reused from block to block, so no more than
    // two blocks' lines are held.
    std::vector<std::string> block(std::min(owned, kSweepBlockPoints));
    std::vector<std::string> previous(block.size());
    std::size_t pending = 0; // lines in previous, not yet written
    const auto writePrevious = [&out, &previous, &pending] {
        for (std::size_t k = 0; k < pending; ++k)
            out.write(previous[k].data(),
                      static_cast<std::streamsize>(previous[k].size()))
                .put('\n');
    };
    for (std::size_t begin = 0; begin < owned;
         begin += kSweepBlockPoints) {
        const std::size_t n = std::min(kSweepBlockPoints, owned - begin);
        parallelFor(
            n,
            [&](std::size_t k) {
                if (k == 0)
                    writePrevious();
                EvaluatedPoint &ep = results[begin + k];
                ep.index = first + (begin + k) * stride;
                ep.point = spec.point(ep.index);
                const std::string hash = ep.point.hashHex();
                // An evaluated point's record and line splice one
                // rendering of its metrics; a hit, or a point with no
                // cache file to record it in, renders them in its line.
                std::string metrics;
                if (cache.lookup(hash, &ep.metrics)) {
                    hits.fetch_add(1, std::memory_order_relaxed);
                } else {
                    ep.metrics = evaluator.evaluate(ep.point);
                    if (!options.cachePath.empty())
                        metrics = ep.metrics.json();
                    cache.store(hash, ep.metrics, metrics);
                    evaluated.fetch_add(1, std::memory_order_relaxed);
                }
                block[k] = resultLine(ep, hash, metrics);
            },
            ParallelOptions{options.jobs, kClaimPoints});
        block.swap(previous);
        pending = n;
    }
    writePrevious();

    if (stats != nullptr) {
        stats->totalPoints = total;
        stats->shardPoints = owned;
        stats->cacheHits = hits.load();
        stats->evaluated = evaluated.load();
        stats->quarantined = cache.quarantinedEntries();
    }
    return results;
}

void
mergeShards(const std::vector<std::string> &shardPaths,
            std::ostream &out)
{
    struct Line
    {
        std::size_t index;
        std::string text;
    };
    std::vector<Line> lines;

    for (const std::string &path : shardPaths) {
        std::ifstream in{path};
        fatalIf(!in, "cannot open shard result \"" + path + "\"");
        std::string text;
        int lineno = 0;
        while (std::getline(in, text)) {
            ++lineno;
            if (text.empty())
                continue;
            const JsonValue v =
                parseJson(text, path + ":" + std::to_string(lineno));
            const std::int64_t i = v.at("i").asInteger();
            fatalIf(i < 0, "negative sweep index in \"" + path + "\"");
            lines.push_back(
                {static_cast<std::size_t>(i), std::move(text)});
        }
    }

    std::sort(lines.begin(), lines.end(),
              [](const Line &a, const Line &b) {
                  return a.index < b.index;
              });
    for (std::size_t k = 0; k < lines.size(); ++k) {
        fatalIf(k > 0 && lines[k].index == lines[k - 1].index,
                "duplicate sweep index " +
                    std::to_string(lines[k].index) +
                    " across shard results");
        fatalIf(lines[k].index != k,
                "missing sweep index " + std::to_string(k) +
                    " in shard results (incomplete shard set?)");
        out << lines[k].text << '\n';
    }
}

std::vector<EvaluatedPoint>
readResults(std::istream &in, const std::string &source)
{
    std::vector<EvaluatedPoint> out;
    std::string text;
    int lineno = 0;
    while (std::getline(in, text)) {
        ++lineno;
        if (text.empty())
            continue;
        const std::string where = source + ":" + std::to_string(lineno);
        const JsonValue v = parseJson(text, where);
        EvaluatedPoint ep;
        try {
            const std::int64_t i = v.at("i").asInteger();
            fatalIf(i < 0, "negative sweep index");
            ep.index = static_cast<std::size_t>(i);
            ep.point = DesignPoint::fromJson(v.at("point"));
            ep.metrics = PointMetrics::fromJson(v.at("metrics"));
        } catch (const FatalError &e) {
            fatal(where + ": " + e.message());
        }
        out.push_back(std::move(ep));
    }
    return out;
}

} // namespace cryo::dse
