#include "sweep_runner.hh"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <istream>
#include <sstream>
#include <string_view>

#include "util/diag.hh"
#include "util/hash.hh"
#include "util/parallel.hh"

namespace cryo::dse
{

namespace
{

/** formatResultLine for a point whose @p hash is already known. */
std::string
resultLine(const EvaluatedPoint &p, std::string_view hash)
{
    std::ostringstream line;
    JsonWriter w{line, /*indent=*/0};
    w.beginObject();
    w.key("i").value(static_cast<std::uint64_t>(p.index));
    w.key("hash").value(hash);
    w.key("point");
    p.point.writeJson(w);
    w.key("metrics");
    p.metrics.writeJson(w);
    w.endObject();
    return line.str();
}

} // namespace

std::string
formatResultLine(const EvaluatedPoint &p)
{
    return resultLine(p, p.point.hashHex());
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

    const std::size_t total = spec.pointCount();
    std::vector<std::size_t> mine;
    for (std::size_t i = static_cast<std::size_t>(options.shardIndex);
         i < total; i += static_cast<std::size_t>(options.shardCount))
        mine.push_back(i);

    ResultCache cache{options.cachePath,
                      CacheWritability::kRequireWritable,
                      options.fsyncCache
                          ? CacheDurability::kFsyncPerStore
                          : CacheDurability::kWritePerStore,
                      options.jobs};
    std::atomic<std::size_t> hits{0};
    std::atomic<std::size_t> evaluated{0};
    // Each worker keeps its point's digest for the result line.
    std::vector<std::uint64_t> digests(mine.size());

    auto results = parallelMap(
        mine.size(),
        [&](std::size_t k) {
            EvaluatedPoint ep;
            ep.index = mine[k];
            ep.point = spec.point(ep.index);
            digests[k] = ep.point.hash();
            const std::string hash = hashHex(digests[k]);
            if (cache.lookup(hash, &ep.metrics)) {
                hits.fetch_add(1, std::memory_order_relaxed);
            } else {
                ep.metrics = evaluator.evaluate(ep.point);
                cache.store(hash, ep.metrics);
                evaluated.fetch_add(1, std::memory_order_relaxed);
            }
            return ep;
        },
        ParallelOptions{options.jobs, 0});

    for (std::size_t k = 0; k < results.size(); ++k)
        out << resultLine(results[k], hashHex(digests[k])) << '\n';

    if (stats != nullptr) {
        stats->totalPoints = total;
        stats->shardPoints = mine.size();
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
