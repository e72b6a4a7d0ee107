#include "protocol.hh"

#include <algorithm>

namespace cryo::svc
{

namespace
{

/** "at line L, column C" for request-shape diagnostics. */
std::string
at(const JsonValue &v)
{
    return "at line " + std::to_string(v.line()) + ", column " +
           std::to_string(v.column());
}

/** Comma-joined list for "legal names" diagnostics. */
std::string
joined(const std::vector<std::string> &names)
{
    std::string out;
    for (const std::string &n : names) {
        if (!out.empty())
            out += ", ";
        out += n;
    }
    return out;
}

Op
opFromJson(const JsonValue &v)
{
    const std::string &name = v.asString();
    if (name == "eval")
        return Op::kEval;
    if (name == "ping")
        return Op::kPing;
    if (name == "stats")
        return Op::kStats;
    if (name == "shutdown")
        return Op::kShutdown;
    fatal("unknown op \"" + name + "\" " + at(v) +
          " (legal: eval, ping, stats, shutdown)");
}

/** Re-emit a parsed value through @p w (compact re-rendering). */
void
writeJsonValue(JsonWriter &w, const JsonValue &v)
{
    switch (v.kind()) {
    case JsonValue::Kind::Null:
        w.null();
        return;
    case JsonValue::Kind::Bool:
        w.value(v.asBool());
        return;
    case JsonValue::Kind::Number:
        w.value(v.asNumber());
        return;
    case JsonValue::Kind::String:
        w.value(v.asString());
        return;
    case JsonValue::Kind::Array:
        w.beginArray();
        for (const JsonValue &item : v.items())
            writeJsonValue(w, item);
        w.endArray();
        return;
    case JsonValue::Kind::Object:
        w.beginObject();
        for (const JsonValue::Member &m : v.members()) {
            w.key(m.first);
            writeJsonValue(w, m.second);
        }
        w.endObject();
        return;
    }
    panic("unhandled JSON kind");
}

std::string
renderCompact(const JsonValue &v)
{
    JsonWriter w;
    writeJsonValue(w, v);
    return w.take();
}

} // namespace

const char *
opName(Op op)
{
    switch (op) {
    case Op::kEval:
        return "eval";
    case Op::kPing:
        return "ping";
    case Op::kStats:
        return "stats";
    case Op::kShutdown:
        return "shutdown";
    }
    panic("unhandled op");
}

Request
requestFromJson(const JsonValue &v)
{
    fatalIf(!v.isObject(),
            "request " + at(v) + ": must be a JSON object");

    Request r;
    bool haveId = false;
    bool haveOp = false;
    const JsonValue *point = nullptr;
    const JsonValue *metrics = nullptr;
    const JsonValue *deadline = nullptr;
    for (const JsonValue::Member &m : v.members()) {
        if (m.first == "id") {
            r.id = m.second.asString();
            haveId = true;
        } else if (m.first == "op") {
            r.op = opFromJson(m.second);
            haveOp = true;
        } else if (m.first == "point") {
            point = &m.second;
        } else if (m.first == "metrics") {
            metrics = &m.second;
        } else if (m.first == "deadline_ms") {
            deadline = &m.second;
        } else {
            fatal("unknown request member \"" + m.first + "\" " +
                  at(m.second) +
                  " (legal: id, op, point, metrics, deadline_ms)");
        }
    }
    fatalIf(!haveId,
            "request " + at(v) + ": missing required member \"id\"");
    fatalIf(r.id.empty(),
            "request " + at(v) + ": \"id\" must be non-empty");
    fatalIf(!haveOp,
            "request " + at(v) + ": missing required member \"op\"");

    if (point != nullptr) {
        fatalIf(r.op != Op::kEval,
                "member \"point\" " + at(*point) +
                    " is only valid for op \"eval\"");
        for (const JsonValue::Member &m : point->members())
            r.point.setField(m.first, m.second);
    }
    if (metrics != nullptr) {
        fatalIf(r.op != Op::kEval,
                "member \"metrics\" " + at(*metrics) +
                    " is only valid for op \"eval\"");
        const std::vector<std::string> &legal =
            dse::PointMetrics::metricNames();
        for (const JsonValue &name : metrics->items()) {
            const std::string &s = name.asString();
            fatalIf(std::find(legal.begin(), legal.end(), s) ==
                        legal.end(),
                    "unknown metric \"" + s + "\" " + at(name) +
                        " (legal: " + joined(legal) + ")");
            r.metrics.push_back(s);
        }
    }
    if (deadline != nullptr) {
        fatalIf(r.op != Op::kEval,
                "member \"deadline_ms\" " + at(*deadline) +
                    " is only valid for op \"eval\"");
        r.deadlineMs = deadline->asInteger();
        fatalIf(r.deadlineMs < 0,
                "member \"deadline_ms\" " + at(*deadline) +
                    " must be >= 0 (0 = no deadline)");
    }
    if (r.op == Op::kEval)
        r.point.validate();
    return r;
}

Request
parseRequest(std::string_view line, const std::string &source)
{
    return requestFromJson(parseJson(line, source));
}

std::string
formatRequest(const Request &r)
{
    JsonWriter w;
    w.beginObject();
    w.key("id").value(r.id);
    w.key("op").value(opName(r.op));
    if (r.op == Op::kEval) {
        w.key("point");
        r.point.writeJson(w);
        if (!r.metrics.empty()) {
            w.key("metrics").beginArray();
            for (const std::string &m : r.metrics)
                w.value(m);
            w.endArray();
        }
        if (r.deadlineMs > 0)
            w.key("deadline_ms").value(r.deadlineMs);
    }
    w.endObject();
    // Fitted: a load generator keeps every request line it sends.
    std::string line = w.take();
    line.shrink_to_fit();
    return line;
}

std::string
formatOkEval(const Request &req, const std::string &hash, bool cached,
             bool deduped, const dse::PointMetrics &metrics,
             std::int64_t latencyUs)
{
    JsonWriter w;
    w.beginObject();
    w.key("id").value(req.id);
    w.key("status").value("ok");
    w.key("op").value("eval");
    w.key("hash").value(hash);
    w.key("cached").value(cached);
    w.key("deduped").value(deduped);
    w.key("metrics");
    metrics.writeJson(w, req.metrics);
    w.key("latency_us").value(latencyUs);
    w.endObject();
    return w.take();
}

std::string
formatAck(const std::string &id, Op op, std::int64_t latencyUs)
{
    JsonWriter w;
    w.beginObject();
    w.key("id").value(id);
    w.key("status").value("ok");
    w.key("op").value(opName(op));
    w.key("latency_us").value(latencyUs);
    w.endObject();
    return w.take();
}

std::string
formatError(bool hasId, const std::string &id,
            const std::string &message, std::int64_t latencyUs)
{
    JsonWriter w;
    w.beginObject();
    if (hasId)
        w.key("id").value(id);
    w.key("status").value("error");
    w.key("message").value(message);
    w.key("latency_us").value(latencyUs);
    w.endObject();
    return w.take();
}

std::string
formatFailed(const std::string &id, const FatalError &err,
             std::int64_t latencyUs)
{
    JsonWriter w;
    w.beginObject();
    w.key("id").value(id);
    w.key("status").value("failed");
    w.key("message").value(err.message());
    w.key("context").beginArray();
    for (const std::string &frame : err.context())
        w.value(frame);
    w.endArray();
    w.key("latency_us").value(latencyUs);
    w.endObject();
    return w.take();
}

std::string
formatOverloaded(const std::string &id, std::size_t inflight,
                 std::size_t queued, std::size_t limit,
                 std::int64_t latencyUs)
{
    JsonWriter w;
    w.beginObject();
    w.key("id").value(id);
    w.key("status").value("overloaded");
    w.key("inflight").value(static_cast<std::uint64_t>(inflight));
    w.key("queued").value(static_cast<std::uint64_t>(queued));
    w.key("limit").value(static_cast<std::uint64_t>(limit));
    w.key("latency_us").value(latencyUs);
    w.endObject();
    return w.take();
}

std::string
formatExpired(const std::string &id, std::int64_t deadlineMs,
              std::int64_t latencyUs)
{
    JsonWriter w;
    w.beginObject();
    w.key("id").value(id);
    w.key("status").value("expired");
    w.key("deadline_ms").value(deadlineMs);
    w.key("latency_us").value(latencyUs);
    w.endObject();
    return w.take();
}

Reply
Reply::parse(std::string_view line, const std::string &source)
{
    Reply r;
    const JsonValue v = parseJson(line, source);
    for (const JsonValue::Member &m : v.members()) {
        if (m.first == "id") {
            r.id = m.second.asString();
            r.hasId = true;
        } else if (m.first == "status") {
            r.status = m.second.asString();
        } else if (m.first == "op") {
            r.op = m.second.asString();
        } else if (m.first == "hash") {
            r.hash = m.second.asString();
        } else if (m.first == "cached") {
            r.cached = m.second.asBool();
        } else if (m.first == "deduped") {
            r.deduped = m.second.asBool();
        } else if (m.first == "latency_us") {
            r.latencyUs = m.second.asInteger();
        } else if (m.first == "message") {
            r.message = m.second.asString();
        } else if (m.first == "context") {
            for (const JsonValue &frame : m.second.items())
                r.context.push_back(frame.asString());
        } else if (m.first == "metrics") {
            r.metricsJson = renderCompact(m.second);
        } else if (m.first == "stats") {
            r.statsJson = renderCompact(m.second);
        } else if (m.first == "inflight") {
            r.inflight = static_cast<std::size_t>(m.second.asInteger());
        } else if (m.first == "queued") {
            r.queued = static_cast<std::size_t>(m.second.asInteger());
        } else if (m.first == "limit") {
            r.limit = static_cast<std::size_t>(m.second.asInteger());
        } else if (m.first == "deadline_ms") {
            r.deadlineMs = m.second.asInteger();
        } else {
            fatal("unknown reply member \"" + m.first + "\" " +
                  at(m.second));
        }
    }
    fatalIf(r.status.empty(),
            "reply " + at(v) + ": missing member \"status\"");
    fatalIf(r.status != "ok" && r.status != "error" &&
                r.status != "failed" && r.status != "overloaded" &&
                r.status != "expired",
            "reply " + at(v) + ": unknown status \"" + r.status +
                "\" (legal: ok, error, failed, overloaded, expired)");
    return r;
}

} // namespace cryo::svc
