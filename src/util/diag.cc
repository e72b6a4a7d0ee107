#include "diag.hh"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <sstream>
#include <utility>

namespace cryo
{

namespace diag
{

namespace
{

thread_local std::vector<ContextFrame> tls_context;

/** Serializes the dedup table, the counters, and the stderr write. */
std::mutex &
warnMutex()
{
    static std::mutex mu;
    return mu;
}

struct WarnState
{
    std::map<std::pair<std::string, unsigned>, std::uint64_t> seen;
    WarnStats stats;
};

WarnState &
warnState()
{
    static WarnState state;
    return state;
}

} // namespace

std::vector<std::string>
contextStack()
{
    std::vector<std::string> chain;
    chain.reserve(tls_context.size());
    for (const ContextFrame &frame : tls_context)
        chain.push_back(frame.render(frame.closure));
    return chain;
}

void
pushContext(ContextFrame frame)
{
    tls_context.push_back(frame);
}

void
popContext()
{
    tls_context.pop_back();
}

WarnStats
warnStats()
{
    std::lock_guard<std::mutex> lock(warnMutex());
    return warnState().stats;
}

void
resetWarnings()
{
    std::lock_guard<std::mutex> lock(warnMutex());
    warnState().seen.clear();
    warnState().stats = {};
}

double
checkFinite(double value, const char *expr, const char *file, int line)
{
    if (!std::isfinite(value)) {
        std::ostringstream os;
        os << "non-finite model output: " << expr << " = " << value
           << " (" << file << ":" << line << ")";
        fatal(os.str());
    }
    return value;
}

} // namespace diag

std::string
FatalError::render(const std::string &msg,
                   const std::vector<std::string> &chain)
{
    std::string out = "cryowire fatal: " + msg;
    if (!chain.empty()) {
        out += "\n  context:";
        for (const std::string &frame : chain)
            out += "\n    " + frame;
    }
    return out;
}

FatalError::FatalError(const std::string &msg)
    : FatalError(msg, diag::contextStack())
{
}

FatalError::FatalError(const std::string &msg,
                       std::vector<std::string> chain)
    : std::runtime_error(render(msg, chain)), message_(msg),
      context_(std::move(chain))
{
}

void
fatal(const std::string &msg)
{
    throw FatalError(msg);
}

void
panic(const std::string &msg)
{
    std::string out = "cryowire panic: " + msg;
    for (const std::string &frame : diag::contextStack())
        out += "\n    context: " + frame;
    out += "\n";
    std::fprintf(stderr, "%s", out.c_str());
    std::abort();
}

void
warn(const std::string &msg, std::source_location loc)
{
    std::lock_guard<std::mutex> lock(diag::warnMutex());
    auto &state = diag::warnState();
    const auto key = std::make_pair(std::string(loc.file_name()),
                                    static_cast<unsigned>(loc.line()));
    if (++state.seen[key] > 1) {
        ++state.stats.suppressed;
        return;
    }
    ++state.stats.emitted;
    // One fprintf for the whole line: concurrent warners cannot
    // interleave inside a message.
    const std::string line = "cryowire warn: " + msg + "\n";
    std::fprintf(stderr, "%s", line.c_str());
}

} // namespace cryo
