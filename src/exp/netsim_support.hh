/**
 * @file
 * Shared netsim helpers for the load-latency experiments (Figs 18, 21,
 * 25, 26): bind an analytic NoC design point to a cycle-accurate
 * network spec or factory, and size the measurement window for
 * experiment runtime.
 */

#ifndef CRYOWIRE_EXP_NETSIM_SUPPORT_HH
#define CRYOWIRE_EXP_NETSIM_SUPPORT_HH

#include "netsim/cell.hh"
#include "netsim/load_latency.hh"
#include "noc/noc_config.hh"

namespace cryo::exp
{

/** Bus network spec bound to an analytic design point. */
inline netsim::NetworkSpec
busSpec(const noc::NocConfig &cfg, int ways = 1)
{
    return netsim::BusSpec{cfg.topology().cores(),
                           netsim::BusTiming::fromConfig(cfg, ways)};
}

/** Router network spec bound to an analytic design point. */
inline netsim::NetworkSpec
routerSpec(const noc::NocConfig &cfg)
{
    return netsim::RouterNetConfig::fromConfig(cfg);
}

/** Bus network factory bound to an analytic design point. */
inline netsim::NetworkFactory
busFactory(const noc::NocConfig &cfg, int ways = 1)
{
    return [spec = busSpec(cfg, ways)] {
        return netsim::buildNetwork(spec);
    };
}

/** Router network factory bound to an analytic design point. */
inline netsim::NetworkFactory
routerFactory(const noc::NocConfig &cfg)
{
    return [spec = routerSpec(cfg)] {
        return netsim::buildNetwork(spec);
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
