/**
 * @file
 * Umbrella header: the full public API of the CryoWire library.
 *
 * Layered bottom-up:
 *  - cryo::tech      device + wire physics (cryo-MOSFET / cryo-wire)
 *  - cryo::pipeline  critical-path model, superpipeliner, CryoSP
 *  - cryo::noc       topologies, router/link models, CryoBus
 *  - cryo::netsim    cycle-accurate bus/router simulators
 *  - cryo::mem       cache/DRAM timing, L3 transaction composition
 *  - cryo::power     McPAT-lite, Orion-lite, cooling cost
 *  - cryo::sys       workloads + interval simulator
 *  - cryo::core      system builder + voltage optimizer (this layer)
 */

#ifndef CRYOWIRE_CORE_CRYOWIRE_HH
#define CRYOWIRE_CORE_CRYOWIRE_HH

#include "core/system_builder.hh"
#include "core/voltage_optimizer.hh"
#include "mem/memory_system.hh"
#include "netsim/bus_net.hh"
#include "netsim/hybrid_net.hh"
#include "netsim/load_latency.hh"
#include "netsim/router_net.hh"
#include "netsim/traffic.hh"
#include "noc/noc_config.hh"
#include "pipeline/core_config.hh"
#include "pipeline/superpipeline.hh"
#include "power/cooling.hh"
#include "power/mcpat_lite.hh"
#include "power/orion_lite.hh"
#include "sys/interval_sim.hh"
#include "sys/workload.hh"
#include "tech/technology.hh"
#include "util/table.hh"

#endif // CRYOWIRE_CORE_CRYOWIRE_HH
