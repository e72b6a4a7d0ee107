#include "trace.hh"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "util/json.hh"

namespace perfbench
{

namespace
{

std::atomic<Tracer *> g_tracer{nullptr};
thread_local std::uint64_t t_open = 0; ///< innermost open span id

} // namespace

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::uint32_t
threadIndex()
{
    static std::atomic<std::uint32_t> next{1};
    thread_local const std::uint32_t mine = next.fetch_add(1);
    return mine;
}

Tracer *
Tracer::active()
{
    return g_tracer.load(std::memory_order_acquire);
}

void
Tracer::install(Tracer *t)
{
    g_tracer.store(t, std::memory_order_release);
}

std::uint64_t
Tracer::nextId()
{
    std::lock_guard<std::mutex> lock(mu_);
    return ++lastId_;
}

void
Tracer::record(Span s)
{
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(s));
}

std::vector<Tracer::Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

std::map<std::string, double>
Tracer::selfSeconds() const
{
    const std::vector<Span> all = spans();
    std::map<std::uint64_t, std::int64_t> childNs;
    for (const Span &s : all)
        if (s.parent != 0)
            childNs[s.parent] += s.endNs - s.startNs;
    std::map<std::string, double> out;
    for (const Span &s : all) {
        const auto it = childNs.find(s.id);
        const std::int64_t children = it == childNs.end() ? 0 : it->second;
        // Children on other threads may overlap their parent's wall
        // interval by more than it lasted; clamp instead of going
        // negative.
        const std::int64_t self =
            std::max<std::int64_t>(0, s.endNs - s.startNs - children);
        out[s.layer] += static_cast<double>(self) * 1e-9;
    }
    return out;
}

void
Tracer::writeChrome(std::ostream &out) const
{
    std::vector<Span> all = spans();
    std::sort(all.begin(), all.end(), [](const Span &a, const Span &b) {
        return a.startNs < b.startNs;
    });
    const std::int64_t t0 = all.empty() ? 0 : all.front().startNs;
    cryo::JsonWriter w{out, /*indent=*/0};
    w.beginObject();
    w.key("displayTimeUnit").value("ms");
    w.key("traceEvents").beginArray();
    for (const Span &s : all) {
        w.beginObject();
        w.key("name").value(s.name);
        w.key("cat").value(s.layer);
        w.key("ph").value("X");
        w.key("ts").value(static_cast<double>(s.startNs - t0) * 1e-3);
        w.key("dur").value(static_cast<double>(s.endNs - s.startNs) *
                           1e-3);
        w.key("pid").value(1);
        w.key("tid").value(static_cast<std::uint64_t>(s.tid));
        w.key("args").beginObject();
        w.key("id").value(s.id);
        w.key("parent").value(s.parent);
        if (!s.req.empty())
            w.key("req").value(s.req);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    out << '\n';
}

ScopedSpan::ScopedSpan(const char *name, const char *layer,
                       std::string req)
    : tracer_(Tracer::active())
{
    if (tracer_ == nullptr)
        return;
    span_.name = name;
    span_.layer = layer;
    span_.req = std::move(req);
    span_.id = tracer_->nextId();
    span_.parent = t_open;
    span_.tid = threadIndex();
    t_open = span_.id;
    span_.startNs = nowNs();
}

ScopedSpan::~ScopedSpan()
{
    if (tracer_ == nullptr)
        return;
    span_.endNs = nowNs();
    t_open = span_.parent;
    tracer_->record(std::move(span_));
}

} // namespace perfbench
