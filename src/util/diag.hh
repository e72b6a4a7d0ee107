/**
 * @file
 * Typed diagnostics in the gem5 spirit, extended with context chains
 * and thread-safe, deduplicated warnings.
 *
 * fatal()  - the condition is the caller's fault (bad configuration,
 *            out-of-range argument, out-of-domain model query); throws
 *            cryo::FatalError carrying the active CRYO_CONTEXT chain so
 *            library users can recover and report *where* the bad value
 *            entered the model stack.
 * panic()  - the condition indicates a bug inside CryoWire itself;
 *            prints (with the context chain) and aborts.
 * warn()   - thread-safe diagnostic: the whole message is emitted in
 *            one fprintf so parallel sweeps cannot interleave it, and
 *            each call site prints at most once per process (repeats
 *            are counted, not printed).
 *
 * CRYO_CONTEXT("mosfet @ 77K") installs a scope-local context frame on
 * a thread-local stack; a FatalError thrown while the scope is alive
 * carries the frame in its context() chain (innermost last). A frame
 * is rendered only when a FatalError, panic() or contextStack() reads
 * the chain, so entering a scope on the success path builds no string:
 * the frame's expression must therefore read values that stay
 * unchanged while its scope is open.
 *
 * CRYO_CHECK_FINITE(expr) is the standard postcondition on model
 * outputs: it evaluates to the value of @p expr and throws FatalError
 * (with context) when the value is NaN or infinite, so an out-of-domain
 * query fails loudly at the model boundary instead of propagating
 * plausible garbage into anchored metrics.
 */

#ifndef CRYOWIRE_UTIL_DIAG_HH
#define CRYOWIRE_UTIL_DIAG_HH

#include <cmath>
#include <cstdint>
#include <source_location>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace cryo
{

namespace diag
{

/**
 * The calling thread's active context frames, rendered now
 * (outermost first).
 */
std::vector<std::string> contextStack();

/** One pushed frame: @p render(@p closure) gives its text. */
struct ContextFrame
{
    const void *closure;
    std::string (*render)(const void *closure);
};

/** The thread-local frame stack behind ContextScope. */
void pushContext(ContextFrame frame);
void popContext();

/**
 * RAII context frame: pushes a reference to @p render, a callable
 * returning the frame's text, on the thread-local stack for its
 * lifetime. Use through CRYO_CONTEXT.
 */
template <typename Render>
class ContextScope
{
  public:
    explicit ContextScope(Render render) : render_(std::move(render))
    {
        pushContext({&render_, [](const void *closure) -> std::string {
                         return (*static_cast<const Render *>(closure))();
                     }});
    }

    ~ContextScope() { popContext(); }

    ContextScope(const ContextScope &) = delete;
    ContextScope &operator=(const ContextScope &) = delete;

  private:
    Render render_;
};

/** warn() bookkeeping, exposed for tests. */
struct WarnStats
{
    std::uint64_t emitted = 0;   ///< messages actually printed
    std::uint64_t suppressed = 0; ///< repeats swallowed by the dedup
};

WarnStats warnStats();

/** Test hook: forget every seen call site and zero the counters. */
void resetWarnings();

} // namespace diag

/** Exception thrown by fatal(): a user-recoverable configuration or
 * domain error, carrying the CRYO_CONTEXT chain active at the throw. */
class FatalError : public std::runtime_error
{
  public:
    /** Captures the calling thread's context stack, rendered. */
    explicit FatalError(const std::string &msg);

    /** The raw message, without the "cryowire fatal:" prefix or the
     * rendered context chain. */
    const std::string &message() const { return message_; }

    /** Context frames active at the throw site, outermost first. */
    const std::vector<std::string> &context() const { return context_; }

  private:
    FatalError(const std::string &msg, std::vector<std::string> chain);

    static std::string render(const std::string &msg,
                              const std::vector<std::string> &chain);

    std::string message_;
    std::vector<std::string> context_;
};

/** Report a user error and throw FatalError. */
[[noreturn]] void fatal(const std::string &msg);

/** Report an internal bug (with context chain) and abort. */
[[noreturn]] void panic(const std::string &msg);

/**
 * Print a non-fatal diagnostic to stderr: one atomic fprintf, at most
 * once per call site (later repeats from the same file:line are
 * counted but not printed, so a --jobs N sweep cannot spam).
 */
void warn(const std::string &msg,
          std::source_location loc = std::source_location::current());

/** fatal() unless @p cond holds. */
inline void
fatalIf(bool cond, const std::string &msg)
{
    if (cond)
        fatal(msg);
}

/**
 * fatalIf() for a literal message: the std::string is built only when
 * @p cond holds, so a check on a hot path (a network's inject(), the
 * bus arbiter) costs a branch, not an allocation per call.
 */
inline void
fatalIf(bool cond, const char *msg)
{
    if (cond)
        fatal(msg);
}

namespace diag
{

/** CRYO_CHECK_FINITE backend; returns @p value when finite. */
double checkFinite(double value, const char *expr, const char *file,
                   int line);

} // namespace diag

} // namespace cryo

// Two-step concatenation so __LINE__ expands before pasting.
#define CRYO_DIAG_CONCAT2(a, b) a##b
#define CRYO_DIAG_CONCAT(a, b) CRYO_DIAG_CONCAT2(a, b)

/**
 * Install a context frame for the rest of the enclosing scope. The
 * frame expression is evaluated only when the chain is read (see the
 * file comment), by reference to the enclosing scope's values.
 */
#define CRYO_CONTEXT(frame)                                            \
    const ::cryo::diag::ContextScope CRYO_DIAG_CONCAT(                 \
        cryo_context_scope_, __LINE__)                                 \
    {                                                                  \
        [&]() -> std::string { return (frame); }                       \
    }

/** Finite-value postcondition: yields @p expr, fatal() on NaN/Inf. */
#define CRYO_CHECK_FINITE(expr)                                        \
    ::cryo::diag::checkFinite((expr), #expr, __FILE__, __LINE__)

#endif // CRYOWIRE_UTIL_DIAG_HH
