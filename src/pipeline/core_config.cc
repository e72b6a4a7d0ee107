#include "core_config.hh"

#include <utility>

#include "pipeline/stage_library.hh"
#include "pipeline/superpipeline.hh"
#include "util/diag.hh"
#include "util/units.hh"
#include "util/validate.hh"

namespace cryo::pipeline
{

namespace
{

/** Voltage points from Table 3. */
constexpr tech::VoltagePoint kNominalV{1.25, 0.47};
constexpr tech::VoltagePoint kCryoSpV{0.64, 0.25};
constexpr tech::VoltagePoint kChpV{0.75, 0.25};

} // namespace

void
CoreStructures::validate() const
{
    Validator v{"CoreStructures"};
    v.atLeast("width", width, 1)
        .atLeast("loadQueue", loadQueue, 1)
        .atLeast("storeQueue", storeQueue, 1)
        .atLeast("issueQueue", issueQueue, 1)
        .atLeast("reorderBuffer", reorderBuffer, 1)
        .atLeast("intRegisters", intRegisters, 1)
        .atLeast("fpRegisters", fpRegisters, 1)
        .done();
}

void
CoreConfig::validate() const
{
    structures.validate();
    Validator v{"CoreConfig", name};
    v.temperature("tempK", tempK)
        .positive("voltage.vdd", voltage.vdd)
        .positive("voltage.vth", voltage.vth)
        .require(voltage.vdd > voltage.vth, "Vdd must exceed Vth")
        .atLeast("pipelineDepth", pipelineDepth, 1)
        .positive("frequency", frequency)
        .positive("paperFrequency", paperFrequency)
        .positive("ipcFactor", ipcFactor)
        .done();
}

CoreDesigner::CoreDesigner(const tech::Technology &tech,
                           Floorplan floorplan)
    : tech_(tech), floorplan_(std::move(floorplan)),
      model_(tech, floorplan_)
{
}

CoreStructures
CoreDesigner::cryoCoreStructures()
{
    // CryoCore [16] halves the issue width and shrinks the structures
    // to cut power (Table 3, "+CryoCore" column).
    CoreStructures s;
    s.width = 4;
    s.loadQueue = 24;
    s.storeQueue = 24;
    s.issueQueue = 72;
    s.reorderBuffer = 96;
    s.intRegisters = 100;
    s.fpRegisters = 96;
    return s;
}

const CoreConfig &
CoreDesigner::baseline300() const
{
    return baseline300_.get([this] { return designBaseline300(); });
}

CoreConfig
CoreDesigner::designBaseline300() const
{
    CoreConfig c;
    c.name = "300K Baseline";
    c.tempK = 300.0;
    c.voltage = kNominalV;
    c.stages = boomSkylakeStages();
    c.pipelineDepth = kBaselineDepth;
    c.frequency = model_.frequency(c.stages, constants::roomTemp,
                                   c.voltage).value();
    c.paperFrequency = (4.0 * units::GHz).value();
    c.ipcFactor = 1.0;
    c.paperCorePower = 1.0;
    c.paperTotalPower = 1.0;
    return c;
}

CoreConfig
CoreDesigner::baseline77() const
{
    CoreConfig c = baseline300();
    c.name = "77K Baseline (cooled only)";
    c.tempK = 77.0;
    c.frequency = model_.frequency(c.stages, constants::ln2Temp,
                                   c.voltage).value();
    // Not a Table-3 column; the paper quotes ~15-19% gain from cooling
    // alone [16], which is what this design point shows.
    c.paperFrequency = c.frequency;
    return c;
}

CoreConfig
CoreDesigner::superpipeline77() const
{
    CoreConfig c;
    c.name = "77K Superpipeline";
    c.tempK = 77.0;
    c.voltage = kNominalV;
    Superpipeliner sp{model_};
    const auto plan = sp.plan(boomSkylakeStages(), constants::ln2Temp,
                              c.voltage);
    c.stages = plan.result;
    c.pipelineDepth = kBaselineDepth + plan.addedStages;
    c.frequency = model_.frequency(c.stages, constants::ln2Temp,
                                   c.voltage).value();
    c.paperFrequency = (6.4 * units::GHz).value();
    c.ipcFactor = 0.96; // Table 3: -4.2% from deeper frontend
    c.paperCorePower = 1.61;
    c.paperTotalPower = 17.15;
    return c;
}

CoreConfig
CoreDesigner::superpipelineCryoCore77() const
{
    CoreConfig c = superpipeline77();
    c.name = "77K Superpipeline + CryoCore";
    c.structures = cryoCoreStructures();
    // CryoCore down-sizing cuts power, not frequency (Table 3 keeps
    // 6.4 GHz for this column).
    c.ipcFactor = 0.90;
    c.paperCorePower = 0.3575;
    c.paperTotalPower = 3.73;
    return c;
}

const CoreConfig &
CoreDesigner::cryoSP() const
{
    return cryoSp_.get([this] { return designCryoSP(); });
}

CoreConfig
CoreDesigner::designCryoSP() const
{
    CoreConfig c = superpipelineCryoCore77();
    c.name = "77K CryoSP";
    c.voltage = kCryoSpV;
    fatalIf(!tech_.mosfet().voltageScalingFeasible(constants::ln2Temp,
                                                   kCryoSpV),
            "CryoSP voltage point leaks more than the 300 K baseline");
    c.frequency = model_.frequency(c.stages, constants::ln2Temp,
                                   c.voltage).value();
    c.paperFrequency = (7.84 * units::GHz).value();
    c.ipcFactor = 0.90;
    c.paperCorePower = 0.093;
    c.paperTotalPower = 1.0;
    return c;
}

CoreConfig
CoreDesigner::chpCore() const
{
    CoreConfig c;
    c.name = "CHP-core";
    c.tempK = 77.0;
    c.voltage = kChpV;
    fatalIf(!tech_.mosfet().voltageScalingFeasible(constants::ln2Temp,
                                                   kChpV),
            "CHP-core voltage point leaks more than the 300 K baseline");
    c.structures = cryoCoreStructures();
    c.stages = boomSkylakeStages(); // no superpipelining in CHP-core
    c.pipelineDepth = kBaselineDepth;
    c.frequency = model_.frequency(c.stages, constants::ln2Temp,
                                   c.voltage).value();
    c.paperFrequency = (6.1 * units::GHz).value();
    c.ipcFactor = 0.93;
    c.paperCorePower = 0.093;
    c.paperTotalPower = 1.0;
    return c;
}

std::vector<CoreConfig>
CoreDesigner::table3Ladder() const
{
    return {baseline300(), superpipeline77(), superpipelineCryoCore77(),
            cryoSP(), chpCore()};
}

} // namespace cryo::pipeline
