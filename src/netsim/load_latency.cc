#include "load_latency.hh"

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_map>

#include "util/diag.hh"
#include "util/parallel.hh"
#include "util/rng.hh"
#include "util/validate.hh"

namespace cryo::netsim
{

LoadPoint
measureLoadPoint(const NetworkFactory &factory, TrafficSpec traffic,
                 MeasureOpts opts)
{
    CRYO_CONTEXT("load_latency @ rate=" +
                 std::to_string(traffic.injectionRate));
    {
        Validator v{"MeasureOpts"};
        v.atLeast("measureCycles",
                  static_cast<long>(opts.measureCycles), 1)
            .positive("saturationLatency", opts.saturationLatency)
            .positive("backlogFactor", opts.backlogFactor)
            .done();
    }
    auto net = factory();
    fatalIf(!net, "network factory returned null");
    TrafficGenerator gen(net->nodes(), traffic);

    // Round-trip bookkeeping for request-response mode: request id ->
    // original injection cycle.
    std::unordered_map<std::uint64_t, Cycle> outstanding;
    constexpr std::uint64_t kResponseBit = 1ull << 62;

    RunningStats lat;
    Histogram hist(512, 4.0);
    std::uint64_t delivered_count = 0;

    auto run = [&](Cycle cycles, bool record) {
        for (Cycle c = 0; c < cycles; ++c) {
            for (const Packet &p : gen.tick(net->now())) {
                net->inject(p);
                if (traffic.responseFlits > 0)
                    outstanding[p.id] = net->now();
            }
            net->step();
            for (const Packet &p : net->drainDelivered()) {
                if (traffic.responseFlits > 0) {
                    if (p.tag == 0) {
                        // Request arrived: send the data response.
                        Packet resp = p;
                        resp.id = p.id | kResponseBit;
                        resp.src = p.dst;
                        resp.dst = p.src;
                        resp.flits = traffic.responseFlits;
                        resp.tag = 1;
                        net->inject(resp);
                        continue;
                    }
                    const std::uint64_t orig = p.id & ~kResponseBit;
                    const auto it = outstanding.find(orig);
                    if (it == outstanding.end())
                        continue; // response to a pre-window request
                    const double rtt =
                        static_cast<double>(net->now() - it->second);
                    outstanding.erase(it);
                    if (record) {
                        lat.add(rtt);
                        hist.add(rtt);
                        ++delivered_count;
                    }
                } else if (record) {
                    lat.add(static_cast<double>(p.latency()));
                    hist.add(static_cast<double>(p.latency()));
                    ++delivered_count;
                }
            }
        }
    };

    // Warm-up: run traffic without recording.
    run(opts.warmupCycles, false);
    outstanding.clear();
    const std::size_t backlog_start = std::max<std::size_t>(
        net->inFlight(), 8);
    run(opts.measureCycles, true);

    LoadPoint pt;
    pt.injectionRate = traffic.injectionRate;
    pt.avgLatency = CRYO_CHECK_FINITE(lat.mean());
    pt.p99Latency = CRYO_CHECK_FINITE(hist.percentile(0.99));
    pt.throughput = CRYO_CHECK_FINITE(
        static_cast<double>(delivered_count)
        / static_cast<double>(opts.measureCycles)
        / static_cast<double>(net->nodes()));
    const std::size_t backlog_end = net->inFlight();
    // Three saturation signatures: latency blow-up, unbounded backlog
    // growth, and accepted throughput falling behind the offered load
    // (at extreme overload nothing completes inside the window, so the
    // latency criterion alone would stay silent).
    const bool starved = traffic.injectionRate > 1e-4
        && pt.throughput < 0.85 * traffic.injectionRate;
    pt.saturated = pt.avgLatency > opts.saturationLatency
        || backlog_end > static_cast<std::size_t>(
               opts.backlogFactor * static_cast<double>(backlog_start))
        || starved;
    return pt;
}

std::vector<LoadPoint>
sweepLoadLatency(const NetworkFactory &factory, TrafficSpec traffic,
                 const std::vector<double> &rates, MeasureOpts opts,
                 ParallelOptions par)
{
    for (std::size_t i = 0; i < rates.size(); ++i) {
        if (!(std::isfinite(rates[i]) && rates[i] >= 0.0 &&
              rates[i] < 1.0)) {
            CRYO_CONTEXT("sweepLoadLatency");
            fatal("rates[" + std::to_string(i) + "] = " +
                  std::to_string(rates[i]) +
                  " outside [0, 1) packets/node/cycle");
        }
    }
    // Each offered-load point is an independent cycle-accurate
    // simulation on its own network instance, with an RNG stream
    // derived from (base seed, point index) — never from a shared
    // serial counter — so the curve is bitwise-identical at any job
    // count.
    return parallelMap(
        rates.size(),
        [&](std::size_t i) {
            TrafficSpec spec = traffic;
            spec.injectionRate = rates[i];
            spec.seed = Rng::deriveSeed(traffic.seed, i);
            return measureLoadPoint(factory, spec, opts);
        },
        par);
}

void
validateSaturationBracket(double hi, double tolerance)
{
    Validator v{"saturationRate"};
    v.positive("hi", hi)
        .positive("tolerance", tolerance)
        .require(hi < 1.0, "hi must be below 1 packet/node/cycle")
        .require(tolerance < hi,
                 "tolerance must be below hi, or the search never "
                 "probes below hi")
        .done();
}

double
saturationRate(const NetworkFactory &factory, TrafficSpec traffic,
               double hi, double tolerance, MeasureOpts opts)
{
    validateSaturationBracket(hi, tolerance);
    double lo = 0.0;
    // Ensure hi is actually saturated; if not, the true saturation
    // point lies outside the bracket — report hi rather than bisecting
    // a bracket that contains no crossing.
    {
        TrafficSpec spec = traffic;
        spec.injectionRate = hi;
        if (!measureLoadPoint(factory, spec, opts).saturated) {
            warn("saturationRate: network not saturated at hi=" +
                 std::to_string(hi) +
                 "; returning hi (raise the bracket)");
            return hi;
        }
    }
    // A bisection over a monotone saturation predicate halves the
    // bracket each step, so ~60 iterations exhaust double precision;
    // the cap only trips on floating-point stagnation (mid == lo or
    // mid == hi), which would otherwise spin forever.
    constexpr int kMaxBisections = 200;
    int it = 0;
    while (hi - lo > tolerance) {
        if (++it > kMaxBisections) {
            CRYO_CONTEXT("saturationRate bisection");
            fatal("no convergence after " +
                  std::to_string(kMaxBisections) + " bisections (lo=" +
                  std::to_string(lo) + ", hi=" + std::to_string(hi) +
                  ", tolerance=" + std::to_string(tolerance) + ")");
        }
        const double mid = 0.5 * (lo + hi);
        TrafficSpec spec = traffic;
        spec.injectionRate = mid;
        if (measureLoadPoint(factory, spec, opts).saturated)
            hi = mid;
        else
            lo = mid;
    }
    // lo never advanced: every probed rate saturated, i.e. the network
    // cannot sustain any offered load under this traffic. Flag it and
    // report zero instead of a misleading near-zero tolerance artifact.
    if (lo == 0.0) {
        warn("saturationRate: saturated at every probed rate; "
             "reporting 0 packets/node/cycle");
    }
    return lo;
}

double
zeroLoadLatency(const NetworkFactory &factory, TrafficSpec traffic,
                MeasureOpts opts)
{
    TrafficSpec spec = traffic;
    spec.injectionRate = 0.0002; // sparse enough to avoid queueing
    opts.measureCycles =
        std::max<Cycle>(opts.measureCycles, kZeroLoadMeasureCycles);
    return measureLoadPoint(factory, spec, opts).avgLatency;
}

} // namespace cryo::netsim
