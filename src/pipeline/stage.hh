/**
 * @file
 * Pipeline-stage descriptors for the critical-path model.
 *
 * Each stage's 300 K critical path is decomposed into a transistor
 * (logic) component and a wire component, mirroring how the paper's
 * Design-Compiler flow reports the two portions (Fig. 12). The wire
 * component carries a *wire class* that says which physical wire model
 * scales it across temperature:
 *
 *  - ForwardingWire: the long semi-global inter-unit wire whose length
 *    comes from the floorplan (2-2 in Fig. 6: Hspice path).
 *  - CamBroadcast / CacheArray / ShortLocal: local-layer wires of
 *    characteristic lengths inside units (2-1: Design-Compiler path).
 */

#ifndef CRYOWIRE_PIPELINE_STAGE_HH
#define CRYOWIRE_PIPELINE_STAGE_HH

#include <string>
#include <vector>

namespace cryo::pipeline
{

/** Frontend/backend classification (Fig. 11). */
enum class StageKind
{
    Frontend,
    Backend
};

/** Which physical wire model scales a stage's wire delay. */
enum class WireClass
{
    None,           ///< purely logic
    ShortLocal,     ///< short local wires between adjacent gates
    CacheArray,     ///< SRAM word/bit-lines (local layer)
    CamBroadcast,   ///< CAM tag broadcast, large fanout (local layer)
    ForwardingWire  ///< floorplan-length semi-global forwarding wire
};

/**
 * One representative pipeline stage of the BOOM/Skylake-like core.
 */
struct PipelineStage
{
    std::string name;
    StageKind kind;

    /**
     * Total 300 K critical-path delay, normalized so that the longest
     * stage of the baseline (execute bypass) is 1.0.
     */
    double delay300;

    /** Fraction of delay300 that is wire delay at 300 K. */
    double wireFraction;

    /** Physical model scaling the wire component over temperature. */
    WireClass wireClass;

    /**
     * False for stages that must complete in one cycle to execute
     * dependent instructions back-to-back (data read from bypass,
     * execute bypass, wakeup & select) - pipelining them would wreck
     * IPC [13, 48, 49].
     */
    bool pipelinable;

    /**
     * How many substages the stage can be cut into when superpipelined
     * (1 = cannot be cut further). The paper cuts fetch1/fetch3/
     * decode&rename in two.
     */
    int maxSplit = 2;

    /** Logic (transistor) part of delay300. */
    double logic300() const { return delay300 * (1.0 - wireFraction); }

    /** Wire part of delay300. */
    double wire300() const { return delay300 * wireFraction; }
};

/** A full pipeline: ordered stages, frontend first. */
using StageList = std::vector<PipelineStage>;

/** Number of frontend stages in @p stages. */
int frontendStageCount(const StageList &stages);

/** Average wire fraction over stages of @p kind (Fig. 12 annotations). */
double averageWireFraction(const StageList &stages, StageKind kind);

} // namespace cryo::pipeline

#endif // CRYOWIRE_PIPELINE_STAGE_HH
