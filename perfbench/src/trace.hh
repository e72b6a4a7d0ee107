/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * Spans are opened and closed by the benchmark's own code around its
 * calls into each layer; the program under test is never instrumented.
 * A span carries a name, its layer, start/end on the steady clock, the
 * span that was open on the same thread when it began (its parent),
 * and for serve-mixed the request id. Nothing is written until the run
 * ends, when the spans go out as Chrome trace-event JSON.
 *
 * Disarmed (no Tracer installed), a ScopedSpan costs one pointer load.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench
{

/** Steady-clock nanoseconds (the time base of every span). */
std::int64_t nowNs();

class Tracer
{
  public:
    struct Span
    {
        std::string name;
        std::string layer;
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
        std::uint64_t id = 0;
        std::uint64_t parent = 0; ///< 0 = a root span
        std::uint32_t tid = 0;
        std::string req; ///< request id shared by a request's spans
    };

    /** The installed tracer, or nullptr when tracing is off. */
    static Tracer *active();

    /** Install @p t (nullptr disarms); not thread-safe by design -
     * call it only while no spans are being recorded. */
    static void install(Tracer *t);

    /** A fresh span id. */
    std::uint64_t nextId();

    /** Store one finished span. Thread-safe. */
    void record(Span s);

    /** Snapshot of every recorded span. */
    std::vector<Span> spans() const;

    /** Per-layer self time [s]: span duration minus its children's. */
    std::map<std::string, double> selfSeconds() const;

    /** Chrome trace-event JSON ("X" events, microsecond timestamps). */
    void writeChrome(std::ostream &out) const;

  private:
    mutable std::mutex mu_;
    std::vector<Span> spans_;
    std::uint64_t lastId_ = 0;
};

/** Small per-thread id for trace rows. */
std::uint32_t threadIndex();

/**
 * RAII span on the installed tracer; nests under the span already
 * open on this thread.
 */
class ScopedSpan
{
  public:
    ScopedSpan(const char *name, const char *layer, std::string req = {});
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer *tracer_;
    Tracer::Span span_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
