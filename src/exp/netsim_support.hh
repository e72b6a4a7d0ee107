/**
 * @file
 * Shared netsim factories for the load-latency experiments (Figs 18,
 * 21, 25, 26): bind an analytic NoC design point to a cycle-accurate
 * network factory, and size the measurement window for experiment
 * runtime.
 */

#ifndef CRYOWIRE_EXP_NETSIM_SUPPORT_HH
#define CRYOWIRE_EXP_NETSIM_SUPPORT_HH

#include <memory>
#include <vector>

#include "netsim/bus_net.hh"
#include "netsim/load_latency.hh"
#include "netsim/router_net.hh"
#include "noc/noc_config.hh"

namespace cryo::exp
{

/** Bus network factory bound to an analytic design point. */
inline netsim::NetworkFactory
busFactory(const noc::NocConfig &cfg, int ways = 1)
{
    const netsim::BusTiming timing =
        netsim::BusTiming::fromConfig(cfg, ways);
    const int nodes = cfg.topology().cores();
    return [timing, nodes]() -> std::unique_ptr<netsim::Network> {
        return std::make_unique<netsim::BusNetwork>(nodes, timing);
    };
}

/** Router network factory bound to an analytic design point. */
inline netsim::NetworkFactory
routerFactory(const noc::NocConfig &cfg)
{
    const netsim::RouterNetConfig rc =
        netsim::RouterNetConfig::fromConfig(cfg);
    return [rc]() -> std::unique_ptr<netsim::Network> {
        return std::make_unique<netsim::RouterNetwork>(rc);
    };
}

/** Measurement window sized for experiment runtime. */
inline netsim::MeasureOpts
measureOpts()
{
    netsim::MeasureOpts o;
    o.warmupCycles = 1500;
    o.measureCycles = 5000;
    return o;
}

} // namespace cryo::exp

#endif // CRYOWIRE_EXP_NETSIM_SUPPORT_HH
