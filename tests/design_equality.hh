/**
 * @file
 * Field-by-field, bit-for-bit comparison of core and system designs,
 * for tests that check one way of building a design against another
 * (a memoized core against a fresh one, atTemperature against the
 * composition it replaced).
 */

#ifndef CRYOWIRE_TESTS_DESIGN_EQUALITY_HH
#define CRYOWIRE_TESTS_DESIGN_EQUALITY_HH

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>

#include "pipeline/core_config.hh"
#include "sys/interval_sim.hh"

namespace cryo::test
{

/** The bits of @p v: equal doubles with different bits differ. */
inline std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

inline void
expectSameCore(const pipeline::CoreConfig &a,
               const pipeline::CoreConfig &b, const std::string &where)
{
    SCOPED_TRACE(where);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(bits(a.tempK), bits(b.tempK));
    EXPECT_EQ(bits(a.voltage.vdd), bits(b.voltage.vdd));
    EXPECT_EQ(bits(a.voltage.vth), bits(b.voltage.vth));
    const pipeline::CoreStructures &s = a.structures;
    const pipeline::CoreStructures &t = b.structures;
    EXPECT_EQ(s.width, t.width);
    EXPECT_EQ(s.loadQueue, t.loadQueue);
    EXPECT_EQ(s.storeQueue, t.storeQueue);
    EXPECT_EQ(s.issueQueue, t.issueQueue);
    EXPECT_EQ(s.reorderBuffer, t.reorderBuffer);
    EXPECT_EQ(s.intRegisters, t.intRegisters);
    EXPECT_EQ(s.fpRegisters, t.fpRegisters);
    EXPECT_EQ(a.pipelineDepth, b.pipelineDepth);
    EXPECT_EQ(bits(a.frequency), bits(b.frequency));
    EXPECT_EQ(bits(a.paperFrequency), bits(b.paperFrequency));
    EXPECT_EQ(bits(a.ipcFactor), bits(b.ipcFactor));
    EXPECT_EQ(bits(a.paperCorePower), bits(b.paperCorePower));
    EXPECT_EQ(bits(a.paperTotalPower), bits(b.paperTotalPower));
    ASSERT_EQ(a.stages.size(), b.stages.size());
    for (std::size_t i = 0; i < a.stages.size(); ++i) {
        const pipeline::PipelineStage &x = a.stages[i];
        const pipeline::PipelineStage &y = b.stages[i];
        EXPECT_EQ(x.name, y.name) << "stage " << i;
        EXPECT_EQ(x.kind, y.kind) << x.name;
        EXPECT_EQ(bits(x.delay300), bits(y.delay300)) << x.name;
        EXPECT_EQ(bits(x.wireFraction), bits(y.wireFraction)) << x.name;
        EXPECT_EQ(x.wireClass, y.wireClass) << x.name;
        EXPECT_EQ(x.pipelinable, y.pipelinable) << x.name;
        EXPECT_EQ(x.maxSplit, y.maxSplit) << x.name;
    }
}

inline void
expectSameSystem(const sys::SystemDesign &a, const sys::SystemDesign &b,
                 const std::string &where)
{
    SCOPED_TRACE(where);
    EXPECT_EQ(a.name, b.name);
    expectSameCore(a.core, b.core, where + ", core");

    const noc::NocConfig &n = a.noc;
    const noc::NocConfig &m = b.noc;
    EXPECT_EQ(n.name(), m.name());
    EXPECT_EQ(n.topology().kind(), m.topology().kind());
    EXPECT_EQ(n.topology().cores(), m.topology().cores());
    EXPECT_EQ(n.protocol(), m.protocol());
    EXPECT_EQ(bits(n.tempK()), bits(m.tempK()));
    EXPECT_EQ(bits(n.voltage().vdd), bits(m.voltage().vdd));
    EXPECT_EQ(bits(n.voltage().vth), bits(m.voltage().vth));
    EXPECT_EQ(bits(n.clockFreq()), bits(m.clockFreq()));
    EXPECT_EQ(n.routerSpec().pipelineCycles, m.routerSpec().pipelineCycles);
    EXPECT_EQ(n.routerSpec().virtualChannels,
              m.routerSpec().virtualChannels);
    EXPECT_EQ(n.routerSpec().bufferDepth, m.routerSpec().bufferDepth);
    EXPECT_EQ(bits(n.routerSpec().logicFraction),
              bits(m.routerSpec().logicFraction));
    EXPECT_EQ(n.hopsPerCycle(), m.hopsPerCycle());
    EXPECT_EQ(n.dynamicLinks(), m.dynamicLinks());

    EXPECT_EQ(bits(a.mem.l1), bits(b.mem.l1));
    EXPECT_EQ(bits(a.mem.l2), bits(b.mem.l2));
    EXPECT_EQ(bits(a.mem.l3), bits(b.mem.l3));
    EXPECT_EQ(bits(a.mem.dram), bits(b.mem.dram));
    EXPECT_EQ(a.idealNoc, b.idealNoc);
    EXPECT_EQ(a.busWays, b.busWays);
}

} // namespace cryo::test

#endif // CRYOWIRE_TESTS_DESIGN_EQUALITY_HH
