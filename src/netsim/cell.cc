#include "cell.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/failpoint.hh"

namespace cryo::netsim
{

namespace
{

void
hashTiming(Fnv1a &h, const BusTiming &t)
{
    h.i64(t.requestCycles)
        .i64(t.grantCycles)
        .i64(t.broadcastCycles)
        .i64(t.ways);
}

void
hashNetwork(Fnv1a &h, const NetworkSpec &spec)
{
    if (const auto *bus = std::get_if<BusSpec>(&spec)) {
        h.str("bus").i64(bus->nodes);
        hashTiming(h, bus->timing);
    } else if (const auto *rc = std::get_if<RouterNetConfig>(&spec)) {
        h.str("router")
            .i64(static_cast<std::int64_t>(rc->kind))
            .i64(rc->cores)
            .i64(rc->concentration)
            .i64(rc->routerCycles)
            .i64(rc->virtualChannels)
            .i64(rc->vcBufferFlits)
            .i64(rc->hopsPerCycle);
    } else {
        const auto &hc = std::get<HybridConfig>(spec);
        h.str("hybrid").i64(hc.clusters).i64(hc.coresPerCluster);
        hashTiming(h, hc.busTiming);
        h.i64(hc.meshRouterCycles)
            .i64(hc.meshLinkCycles)
            .i64(hc.gatewayBandwidth);
    }
}

int
nodesOf(const NetworkSpec &spec)
{
    if (const auto *bus = std::get_if<BusSpec>(&spec))
        return bus->nodes;
    if (const auto *rc = std::get_if<RouterNetConfig>(&spec))
        return rc->cores;
    const auto &hc = std::get<HybridConfig>(spec);
    return hc.clusters * hc.coresPerCluster;
}

} // namespace

std::unique_ptr<Network>
buildNetwork(const NetworkSpec &spec)
{
    if (const auto *bus = std::get_if<BusSpec>(&spec))
        return std::make_unique<BusNetwork>(bus->nodes, bus->timing);
    if (const auto *rc = std::get_if<RouterNetConfig>(&spec))
        return std::make_unique<RouterNetwork>(*rc);
    return std::make_unique<HybridNetwork>(std::get<HybridConfig>(spec));
}

Cell
Cell::zeroLoad(NetworkSpec network, TrafficSpec traffic, MeasureOpts opts)
{
    return {std::move(network), traffic, opts, ProbeKind::ZeroLoad};
}

Cell
Cell::loadPoint(NetworkSpec network, TrafficSpec traffic,
                MeasureOpts opts)
{
    return {std::move(network), traffic, opts, ProbeKind::LoadPoint};
}

Cell
Cell::saturation(NetworkSpec network, TrafficSpec traffic, double hi,
                 double tolerance, MeasureOpts opts)
{
    validateSaturationBracket(hi, tolerance);
    return {std::move(network), traffic, opts, ProbeKind::Saturation, hi,
            tolerance};
}

std::uint64_t
Cell::hash() const
{
    Fnv1a h;
    h.u64(kCellSchema);
    hashNetwork(h, network);
    h.i64(static_cast<std::int64_t>(traffic.pattern))
        .f64(traffic.injectionRate)
        .i64(traffic.flitsPerPacket)
        .i64(traffic.responseFlits)
        .i64(traffic.hotspotNode)
        .f64(traffic.hotspotFraction)
        .f64(traffic.burstOnProb)
        .f64(traffic.burstOffProb)
        .u64(traffic.seed);
    h.u64(opts.warmupCycles)
        .u64(opts.measureCycles)
        .f64(opts.saturationLatency)
        .f64(opts.backlogFactor);
    h.i64(static_cast<std::int64_t>(probe)).f64(hi).f64(tolerance);
    return h.digest();
}

double
Cell::cost() const
{
    double window = static_cast<double>(opts.warmupCycles) +
        static_cast<double>(opts.measureCycles);
    double probes = 1.0;
    switch (probe) {
    case ProbeKind::ZeroLoad:
        window = static_cast<double>(opts.warmupCycles) +
            static_cast<double>(
                std::max(opts.measureCycles, kZeroLoadMeasureCycles));
        break;
    case ProbeKind::LoadPoint:
        break;
    case ProbeKind::Saturation:
        probes += std::ceil(std::log2(hi / tolerance));
        break;
    }
    return static_cast<double>(nodesOf(network)) * window * probes;
}

CellResult
runCell(const Cell &cell)
{
    CRYO_FAILPOINT("netsim.cell");
    const NetworkFactory factory = [&cell] {
        return buildNetwork(cell.network);
    };
    CellResult r;
    switch (cell.probe) {
    case ProbeKind::ZeroLoad:
        r.value = zeroLoadLatency(factory, cell.traffic, cell.opts);
        break;
    case ProbeKind::LoadPoint:
        r.point = measureLoadPoint(factory, cell.traffic, cell.opts);
        r.value = r.point.avgLatency;
        break;
    case ProbeKind::Saturation:
        r.value = saturationRate(factory, cell.traffic, cell.hi,
                                 cell.tolerance, cell.opts);
        break;
    }
    return r;
}

} // namespace cryo::netsim
