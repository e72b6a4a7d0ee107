#include "load_latency.hh"

#include <algorithm>
#include <string>
#include <vector>

#include "util/diag.hh"
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

    // Round-trip bookkeeping for request-response mode: the cycle each
    // request was injected, indexed by id - first_id. The generator
    // numbers requests densely from 1, so the table is a plain vector;
    // the warm-up's requests are dropped from it, and responses to
    // them (ids below first_id) are not recorded.
    std::vector<Cycle> issued_at;
    std::uint64_t first_id = 1;
    constexpr std::uint64_t kResponseBit = 1ull << 62;

    RunningStats lat;
    Histogram hist(512, 4.0);
    std::uint64_t delivered_count = 0;

    auto run = [&](Cycle cycles, bool record) {
        for (Cycle c = 0; c < cycles; ++c) {
            for (const Packet &p : gen.tick(net->now())) {
                net->inject(p);
                if (traffic.responseFlits > 0) {
                    if (p.id != first_id + issued_at.size())
                        panic("request ids must run densely from 1");
                    issued_at.push_back(net->now());
                }
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
                    if (orig < first_id)
                        continue; // response to a pre-window request
                    const double rtt = static_cast<double>(
                        net->now() - issued_at[orig - first_id]);
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
    first_id += issued_at.size();
    issued_at.clear();
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
    auto saturatedAt = [&](double rate) {
        TrafficSpec spec = traffic;
        spec.injectionRate = rate;
        return measureLoadPoint(factory, spec, opts).saturated;
    };
    // The grid hi, hi/2, ... down to the first rate <= tolerance: the
    // mids a bisection of [0, hi] probes while lo is 0 (0.5 * (0 + x)
    // is bit-equal to 0.5 * x). The walk starts at the grid's middle
    // and climbs (see the header for why not at its bottom).
    std::vector<double> grid{hi};
    while (grid.back() > tolerance)
        grid.push_back(0.5 * grid.back());
    std::size_t j = (grid.size() - 1) / 2;
    // A bisection over a monotone saturation predicate halves the
    // bracket each step, so ~60 iterations exhaust double precision;
    // the cap only trips on floating-point stagnation (mid == lo or
    // mid == hi), which would otherwise spin forever. it starts at the
    // number of mids the top-down order (probe hi, then bisect [0, hi])
    // probes to reach the walk's bracket, so the cap bounds the same
    // count. When every grid rate above the first saturated one the
    // walk finds saturates too, the loop below starts in the top-down
    // order's state: it probes the same mids and returns the same rate.
    constexpr int kMaxBisections = 200;
    int it = static_cast<int>(j);
    double lo = 0.0;
    if (saturatedAt(grid[j])) {
        hi = grid[j];
    } else {
        // Climb until a rate saturates. If not even hi does, the true
        // saturation point lies outside the bracket — report hi rather
        // than bisecting a bracket that contains no crossing.
        do {
            if (j == 0) {
                warn("saturationRate: network not saturated at hi=" +
                     std::to_string(hi) +
                     "; returning hi (raise the bracket)");
                return hi;
            }
            --j;
        } while (!saturatedAt(grid[j]));
        lo = grid[j + 1];
        hi = grid[j];
        it = static_cast<int>(j) + 1;
    }
    while (hi - lo > tolerance) {
        if (++it > kMaxBisections) {
            CRYO_CONTEXT("saturationRate bisection");
            fatal("no convergence after " +
                  std::to_string(kMaxBisections) + " bisections (lo=" +
                  std::to_string(lo) + ", hi=" + std::to_string(hi) +
                  ", tolerance=" + std::to_string(tolerance) + ")");
        }
        const double mid = 0.5 * (lo + hi);
        if (saturatedAt(mid))
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
