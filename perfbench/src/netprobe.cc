#include "netprobe.hh"

#include "exp/experiment.hh"
#include "exp/netsim_support.hh"
#include "netsim/hybrid_net.hh"
#include "noc/noc_config.hh"
#include "trace.hh"

namespace perfbench
{

using namespace cryo;

CountingNetwork::CountingNetwork(std::unique_ptr<netsim::Network> inner,
                                 NetCounters *counters)
    : inner_(std::move(inner)), counters_(counters)
{
}

void
CountingNetwork::forwardDelivered()
{
    std::vector<netsim::Packet> &in = inner_->delivered();
    if (in.empty())
        return;
    delivered_.insert(delivered_.end(), in.begin(), in.end());
    in.clear();
}

void
CountingNetwork::inject(const netsim::Packet &p)
{
    ++counters_->packets;
    inner_->inject(p);
    forwardDelivered();
}

void
CountingNetwork::step()
{
    ++counters_->cycles;
    inner_->step();
    forwardDelivered();
}

netsim::NetworkFactory
countingFactory(netsim::NetworkFactory factory, NetCounters *counters)
{
    return [factory = std::move(factory),
            counters]() -> std::unique_ptr<netsim::Network> {
        ++counters->networks;
        return std::make_unique<CountingNetwork>(factory(), counters);
    };
}

std::vector<NetKind>
netKinds(std::uint64_t seed)
{
    const exp::Context ctx{seed};
    const noc::NocDesigner d64{ctx.technology()};
    const noc::NocDesigner d256{ctx.technology(), 256};

    netsim::HybridConfig hc;
    hc.busTiming = netsim::BusTiming::fromConfig(d64.cryoBus(), 1);
    auto hybrid = [hc]() -> std::unique_ptr<netsim::Network> {
        return std::make_unique<netsim::HybridNetwork>(hc);
    };

    // Rates are per design cycle: low sits under every kind's
    // saturation point, sat well past it (Figs. 18/21/25/26 brackets).
    const netsim::TrafficSpec bus = ctx.traffic();
    const netsim::TrafficSpec dir = ctx.directoryTraffic();
    return {
        {"bus64", exp::busFactory(d64.sharedBus77()), bus, 0.002, 0.02},
        {"cryobus64", exp::busFactory(d64.cryoBus(), 1), bus, 0.005,
         0.05},
        {"hybrid256", hybrid, bus, 0.003, 0.03},
        {"mesh64", exp::routerFactory(d64.mesh(77.0, 3)), dir, 0.005,
         0.3},
        {"cmesh64", exp::routerFactory(d64.cmesh(77.0, 3)), dir, 0.005,
         0.3},
        {"fb64", exp::routerFactory(d64.flattenedButterfly(77.0, 3)),
         dir, 0.005, 0.3},
        {"mesh256", exp::routerFactory(d256.mesh(77.0, 1)), dir, 0.002,
         0.2},
        {"cmesh256", exp::routerFactory(d256.cmesh(77.0, 3)), dir,
         0.002, 0.2},
        {"fb256", exp::routerFactory(d256.flattenedButterfly(77.0, 3)),
         dir, 0.002, 0.2},
    };
}

ProbeResult
runNetProbe(std::uint64_t seed)
{
    ProbeResult out;
    // A short window: enough cycles past warm-up to reach the
    // saturated regime, cheap enough to probe nine kinds.
    netsim::MeasureOpts opts;
    opts.warmupCycles = 500;
    opts.measureCycles = 1500;

    for (const NetKind &k : netKinds(seed)) {
        ProbeResult::PerKind pk;
        pk.name = k.name;
        const auto measure = [&](double rate, bool *saturated) {
            NetCounters c;
            netsim::TrafficSpec tr = k.traffic;
            tr.injectionRate = rate;
            ScopedSpan span{"netsim.measureLoadPoint", "netsim"};
            const std::int64_t t0 = nowNs();
            const netsim::LoadPoint pt = netsim::measureLoadPoint(
                countingFactory(k.factory, &c), tr, opts);
            const std::int64_t t1 = nowNs();
            *saturated = pt.saturated;
            out.counters.networks += c.networks;
            out.counters.cycles += c.cycles;
            out.counters.packets += c.packets;
            return static_cast<double>(t1 - t0) /
                static_cast<double>(c.cycles);
        };
        pk.nsPerCycleLow = measure(k.lowRate, &pk.lowSaturated);
        pk.nsPerCycleSat = measure(k.satRate, &pk.satSaturated);
        out.kinds.push_back(pk);
    }

    // The bisections the experiments run on the cheap cells, with the
    // experiments' own window and brackets (Fig. 25 CryoBus uniform,
    // Fig. 26 hybrid).
    const std::vector<NetKind> kinds = netKinds(seed);
    const auto bisect = [&](const NetKind &k, double hi, double tol) {
        NetCounters c;
        ScopedSpan span{"netsim.saturationRate", "netsim"};
        const double sat = netsim::saturationRate(
            countingFactory(k.factory, &c), k.traffic, hi, tol,
            exp::measureOpts());
        out.satProbes += c.networks;
        out.counters.networks += c.networks;
        out.counters.cycles += c.cycles;
        out.counters.packets += c.packets;
        return sat;
    };
    out.busSaturation = bisect(kinds[1], 0.6, 0.003);
    out.hybridSaturation = bisect(kinds[2], 0.05, 0.0005);
    return out;
}

} // namespace perfbench
