#include "result_cache.hh"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <fstream>
#include <string_view>
#include <utility>
#include <vector>

#include "util/diag.hh"
#include "util/failpoint.hh"
#include "util/hash.hh"
#include "util/parallel.hh"

namespace cryo::dse
{

namespace
{

/** write() until done (EINTR-safe); false on any hard failure. */
bool
writeFull(int fd, const char *data, std::size_t n)
{
    std::size_t done = 0;
    while (done < n) {
        const ssize_t w = ::write(fd, data + done, n - done);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        done += static_cast<std::size_t>(w);
    }
    return true;
}

/** Parse one JSON payload; returns false (no throw) on damage. */
bool
parsePayload(std::string_view payload, std::string *hash,
             PointMetrics *metrics)
{
    static const std::string kSource = "<cache line>";
    try {
        const JsonValue v = parseJson(payload, kSource);
        const JsonValue *h = v.find("hash");
        const JsonValue *m = v.find("metrics");
        if (h == nullptr || m == nullptr)
            return false;
        *hash = h->asString();
        *metrics = PointMetrics::fromJson(*m);
        return true;
    } catch (const FatalError &) {
        return false;
    }
}

/**
 * Strip and verify v2 framing: "v2 <len> <crc8hex> <payload>".
 * *payload views the payload bytes inside @p line. False when the
 * frame is malformed, the length is not the canonical decimal
 * formatRecord writes (no leading zero), the length disagrees (torn
 * append), or the CRC does not match (corruption).
 */
bool
unframe(std::string_view line, std::string_view *payload)
{
    if (!line.starts_with("v2 "))
        return false;
    std::size_t pos = 3;
    if (pos < line.size() && line[pos] == '0')
        return false;
    // A length past the line's own size can never match; stopping
    // there also keeps the accumulator from wrapping.
    std::size_t len = 0;
    while (pos < line.size() && line[pos] >= '0' && line[pos] <= '9') {
        len = len * 10 + static_cast<std::size_t>(line[pos] - '0');
        if (len > line.size())
            return false;
        ++pos;
    }
    if (pos == 3 || pos >= line.size() || line[pos] != ' ')
        return false;
    ++pos;
    if (pos + 9 > line.size() || line[pos + 8] != ' ')
        return false;
    const std::string_view crc = line.substr(pos, 8);
    *payload = line.substr(pos + 9);
    if (payload->size() != len)
        return false;
    return crcHex(Crc32c::of(*payload)) == crc;
}

/** One cache line, unframed and parsed on the pool. */
struct ParsedLine
{
    enum class Kind
    {
        kBlank,
        kRecord, ///< a v2 record
        kLegacy, ///< a v1 record: a bare JSON line, no framing
        kDamaged,
    };

    Kind kind = Kind::kBlank;
    std::string hash;
    PointMetrics metrics;
};

void
parseLine(std::string_view line, ParsedLine *out)
{
    using Kind = ParsedLine::Kind;
    std::string_view payload;
    if (line.empty()) {
        out->kind = Kind::kBlank;
    } else if (unframe(line, &payload)) {
        const bool ok = parsePayload(payload, &out->hash, &out->metrics);
        out->kind = ok ? Kind::kRecord : Kind::kDamaged;
    } else if (line[0] == '{') {
        const bool ok = parsePayload(line, &out->hash, &out->metrics);
        out->kind = ok ? Kind::kLegacy : Kind::kDamaged;
    } else {
        out->kind = Kind::kDamaged;
    }
}

/**
 * The payload: the hash and the metrics object, spliced from
 * @p metricsJson (m.json(), already rendered) or, when that is empty,
 * rendered from @p m here.
 */
std::string
payloadOf(std::string_view hashHex, const PointMetrics &m,
          std::string_view metricsJson)
{
    JsonWriter w;
    w.beginObject();
    w.key("hash").value(hashHex);
    w.key("metrics");
    if (metricsJson.empty())
        m.writeJson(w);
    else
        w.raw(metricsJson);
    w.endObject();
    return w.take();
}

/**
 * The framed v2 record of that payload, "v2 <len> <crc> <payload>",
 * with room left for the newline an append adds.
 */
std::string
recordOf(std::string_view hashHex, const PointMetrics &m,
         std::string_view metricsJson)
{
    const std::string payload = payloadOf(hashHex, m, metricsJson);
    std::string record = "v2 " + std::to_string(payload.size()) + " " +
                         crcHex(Crc32c::of(payload)) + " ";
    record.reserve(record.size() + payload.size() + 1);
    record += payload;
    return record;
}

/** Read up to lines.size() lines into @p lines; returns the count. */
std::size_t
readBlock(std::istream &in, std::vector<std::string> &lines)
{
    std::size_t n = 0;
    while (n < lines.size() && std::getline(in, lines[n]))
        ++n;
    return n;
}

} // namespace

ResultCache::ResultCache(std::string path, CacheWritability writability,
                         CacheDurability durability, int loadJobs)
    : path_(std::move(path)), durability_(durability)
{
    if (path_.empty())
        return;

    loadExisting(loadJobs);

    fd_ = ::open(path_.c_str(),
                 O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
    if (fd_ < 0) {
        fatalIf(writability == CacheWritability::kRequireWritable,
                "cannot open result cache \"" + path_ +
                    "\" for appending");
        warn("result cache \"" + path_ +
             "\" is not writable; serving loaded entries read-only, "
             "new results stay in memory");
        return;
    }

    // Migrate in place when the file holds legacy (v1) or damaged
    // records: the crash-safe compaction leaves a clean all-v2 file,
    // and damaged lines live on only in the quarantine sidecar.
    if (sawLegacy_ || quarantined_ > 0)
        compactLocked();
}

ResultCache::~ResultCache()
{
    if (fd_ >= 0)
        ::close(fd_);
}

std::string
ResultCache::quarantinePath(const std::string &path)
{
    return path + ".quarantine";
}

void
ResultCache::quarantine(std::string_view line)
{
    ++quarantined_;
    const std::string sidecar = quarantinePath(path_);
    const int qfd = ::open(sidecar.c_str(),
                           O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC,
                           0644);
    if (qfd < 0)
        return; // counted and warned about regardless
    std::string out{line};
    out += '\n';
    writeFull(qfd, out.data(), out.size());
    ::close(qfd);
}

void
ResultCache::loadExisting(int jobs)
{
    std::ifstream in{path_};
    if (!in)
        return;

    // Stream the file a block at a time (never whole: see DESIGN.md
    // §4f). The pool parses a block's lines; this thread then applies
    // them in file order, so the last occurrence wins and the sidecar
    // gets damaged lines as they stand, at any width. Both buffers
    // keep their capacity from block to block.
    std::vector<std::string> lines(kLoadBlockLines);
    std::vector<ParsedLine> parsed(kLoadBlockLines);
    while (const std::size_t n = readBlock(in, lines)) {
        parallelFor(
            n, [&](std::size_t i) { parseLine(lines[i], &parsed[i]); },
            ParallelOptions{jobs, 0});
        for (std::size_t i = 0; i < n; ++i) {
            ParsedLine &p = parsed[i];
            switch (p.kind) {
            case ParsedLine::Kind::kBlank:
                break;
            case ParsedLine::Kind::kLegacy:
                sawLegacy_ = true;
                [[fallthrough]];
            case ParsedLine::Kind::kRecord:
                entries_.insert_or_assign(std::move(p.hash), p.metrics);
                break;
            case ParsedLine::Kind::kDamaged:
                quarantine(lines[i]);
                break;
            }
        }
    }
    loaded_ = entries_.size();
    if (quarantined_ > 0)
        warn("quarantined " + std::to_string(quarantined_) +
             " damaged record(s) from result cache \"" + path_ +
             "\" to \"" + quarantinePath(path_) +
             "\"; the points re-evaluate");
}

bool
ResultCache::lookup(const std::string &hashHex, PointMetrics *out) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(hashHex);
    if (it == entries_.end())
        return false;
    *out = it->second;
    return true;
}

std::string
ResultCache::formatLine(const std::string &hashHex,
                        const PointMetrics &m)
{
    return payloadOf(hashHex, m, {});
}

std::string
ResultCache::formatRecord(const std::string &hashHex,
                          const PointMetrics &m)
{
    return recordOf(hashHex, m, {});
}

void
ResultCache::degradeLocked(const std::string &why)
{
    // A mid-run write failure (disk full, injected fault) must not
    // kill sibling evaluations: degrade to memory-only stores once.
    warn("append to result cache \"" + path_ + "\" failed (" + why +
         "); further results stay in memory only");
    ::close(fd_);
    fd_ = -1;
}

bool
ResultCache::appendLocked(const std::string &record)
{
    const failpoint::Action fp =
        failpoint::eval("cache.append.write");
    if (fp.kind == failpoint::ActionKind::kError) {
        degradeLocked("failpoint \"cache.append.write\" fired");
        return false;
    }
    if (fp.kind == failpoint::ActionKind::kPartial) {
        // The torn-write crash shape: the prefix really lands in the
        // file, so the next load must detect and quarantine it.
        const std::size_t n = std::min(
            static_cast<std::size_t>(fp.arg), record.size());
        writeFull(fd_, record.data(), n);
        degradeLocked("failpoint \"cache.append.write\" tore the "
                      "write at " +
                      std::to_string(n) + " byte(s)");
        return false;
    }
    if (!writeFull(fd_, record.data(), record.size())) {
        degradeLocked("write failed");
        return false;
    }
    if (durability_ == CacheDurability::kFsyncPerStore &&
        ::fsync(fd_) != 0) {
        degradeLocked("fsync failed");
        return false;
    }
    return true;
}

void
ResultCache::store(const std::string &hashHex, const PointMetrics &m)
{
    store(hashHex, m, {});
}

void
ResultCache::store(const std::string &hashHex, const PointMetrics &m,
                   std::string_view metricsJson)
{
    // Format outside the lock, so concurrent stores serialize only on
    // the map update and the write. A memory-only cache formats
    // nothing.
    std::string record;
    if (!path_.empty()) {
        record = recordOf(hashHex, m, metricsJson);
        record += '\n';
    }
    std::lock_guard<std::mutex> lock(mu_);
    const bool fresh = entries_.insert_or_assign(hashHex, m).second;
    if (fresh && fd_ >= 0)
        appendLocked(record);
}

void
ResultCache::flush()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (fd_ >= 0)
        ::fsync(fd_);
}

bool
ResultCache::writable() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return fd_ >= 0;
}

std::size_t
ResultCache::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
}

void
ResultCache::rewrite()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (path_.empty())
        return;
    compactLocked();
}

void
ResultCache::compactLocked()
{
    // Crash-safety contract: the original file stays byte-intact
    // until the rename, and rename(2) on one filesystem is atomic -
    // a crash at any instant leaves old-or-new, never a hybrid.
    const std::string tmp = path_ + ".tmp";
    const int tfd = ::open(
        tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    fatalIf(tfd < 0, "cannot open \"" + tmp +
                         "\" for result cache compaction");

    // Sorted keys make the file's bytes depend on the entries alone,
    // not on the hash map's layout.
    using Entry = decltype(entries_)::value_type;
    std::vector<const Entry *> sorted;
    sorted.reserve(entries_.size());
    // CRYOLINT-NEXTLINE(determinism-iteration): keys sorted before any
    // byte is written.
    for (const Entry &entry : entries_)
        sorted.push_back(&entry);
    std::sort(sorted.begin(), sorted.end(),
              [](const Entry *a, const Entry *b) {
                  return a->first < b->first;
              });
    std::string buf;
    for (const Entry *entry : sorted) {
        buf += formatRecord(entry->first, entry->second);
        buf += '\n';
    }

    const failpoint::Action fp =
        failpoint::eval("cache.compact.write");
    bool ok = true;
    std::string why;
    if (fp.kind == failpoint::ActionKind::kError) {
        ok = false;
        why = "failpoint \"cache.compact.write\" fired";
    } else if (fp.kind == failpoint::ActionKind::kPartial) {
        const std::size_t n =
            std::min(static_cast<std::size_t>(fp.arg), buf.size());
        writeFull(tfd, buf.data(), n);
        ok = false;
        why = "failpoint \"cache.compact.write\" tore the write at " +
              std::to_string(n) + " byte(s)";
    } else if (!writeFull(tfd, buf.data(), buf.size())) {
        ok = false;
        why = "write failed";
    }
    if (ok && ::fsync(tfd) != 0) {
        ok = false;
        why = "fsync failed";
    }
    ::close(tfd);
    if (!ok) {
        ::unlink(tmp.c_str());
        fatal("compacting result cache \"" + path_ + "\": " + why +
              " (original file left intact)");
    }

    const failpoint::Action rn =
        failpoint::eval("cache.compact.rename");
    if (rn.kind != failpoint::ActionKind::kNone) {
        ::unlink(tmp.c_str());
        fatal("compacting result cache \"" + path_ +
              "\": failpoint \"cache.compact.rename\" fired "
              "(original file left intact)");
    }
    if (::rename(tmp.c_str(), path_.c_str()) != 0) {
        ::unlink(tmp.c_str());
        fatal("cannot rename \"" + tmp + "\" over result cache \"" +
              path_ + "\"");
    }

    // The append fd (when open) now references the unlinked old
    // inode; reopen on the compacted file.
    if (fd_ >= 0)
        ::close(fd_);
    fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
    fatalIf(fd_ < 0, "cannot reopen result cache \"" + path_ +
                         "\" after compaction");
}

} // namespace cryo::dse
