/**
 * @file
 * The Table-3 core-design ladder: 300K Baseline -> 77K Superpipeline ->
 * +CryoCore -> CryoSP, plus the prior-work CHP-core [16].
 */

#ifndef CRYOWIRE_PIPELINE_CORE_CONFIG_HH
#define CRYOWIRE_PIPELINE_CORE_CONFIG_HH

#include <atomic>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "pipeline/critical_path.hh"
#include "pipeline/stage.hh"
#include "tech/technology.hh"

namespace cryo::pipeline
{

/** Out-of-order structure sizes (Table 3 rows). */
struct CoreStructures
{
    int width = 8;            ///< issue width
    int loadQueue = 72;
    int storeQueue = 56;
    int issueQueue = 97;
    int reorderBuffer = 224;
    int intRegisters = 180;
    int fpRegisters = 168;

    /** All structure sizes must be at least one entry/lane. */
    void validate() const;
};

/** One fully-specified core design point. */
struct CoreConfig
{
    std::string name;
    double tempK = 300.0;
    tech::VoltagePoint voltage{1.25, 0.47};
    CoreStructures structures;
    int pipelineDepth = 14;

    /** Model-derived clock frequency [Hz]. */
    double frequency = 4.0e9;

    /** Frequency Table 3 reports, for side-by-side comparison [Hz]. */
    double paperFrequency = 4.0e9;

    /** IPC at iso-frequency relative to 300K Baseline (Table 3). */
    double ipcFactor = 1.0;

    /** Stage list the frequency was derived from. */
    StageList stages;

    /** Paper's relative core power (Table 3), for comparison. */
    double paperCorePower = 1.0;

    /** Paper's relative total (device + cooling) power (Table 3). */
    double paperTotalPower = 1.0;

    /**
     * Range/consistency validation (temperature within the model
     * window, Vdd > Vth, positive frequency and IPC factor, sane
     * structures); throws cryo::FatalError naming every offence.
     * Consumers (interval simulator, power models, voltage optimizer)
     * call this before trusting the design point.
     */
    void validate() const;
};

/**
 * Derives the Table-3 ladder from the models (frequency from the
 * critical-path model + superpipeliner, IPC from the IPC model) while
 * carrying the paper's published values for every bench to print
 * alongside.
 *
 * baseline300() and cryoSP() depend only on the technology and the
 * floorplan, and every temperature-axis design starts from one of
 * them, so the designer builds each on the first call that asks and
 * keeps it; the reference they return stays valid while the designer
 * lives. One designer may serve any number of threads.
 */
class CoreDesigner
{
  public:
    /**
     * @param floorplan execution-cluster floorplan the critical-path
     *        model measures forwarding wires against; the default is
     *        the paper's Table-1 layout. A DSE floorplan-scale axis
     *        passes Floorplan::skylakeLike().scaled(f) here.
     */
    explicit CoreDesigner(
        const tech::Technology &tech,
        Floorplan floorplan = Floorplan::skylakeLike());

    const CoreConfig &baseline300() const;   ///< memoized
    CoreConfig baseline77() const;           ///< cooled, un-redesigned
    CoreConfig superpipeline77() const;
    CoreConfig superpipelineCryoCore77() const;
    const CoreConfig &cryoSP() const;        ///< memoized
    CoreConfig chpCore() const;

    /** The five Table-3 columns in order. */
    std::vector<CoreConfig> table3Ladder() const;

    const CriticalPathModel &model() const { return model_; }
    const Floorplan &floorplan() const { return floorplan_; }

    /** Structure sizes after CryoCore down-sizing (half width). */
    static CoreStructures cryoCoreStructures();

  private:
    /**
     * One design, built by the first call that asks for it and kept.
     * A racing caller waits for that build; a build that throws
     * leaves the memo empty, so the next call throws again. It holds a
     * mutex, so neither it nor a designer can be copied: consumers
     * share one designer, and its designs, by reference.
     */
    class Memo
    {
      public:
        template <typename Build>
        const CoreConfig &get(Build &&build)
        {
            if (!ready_.load(std::memory_order_acquire)) {
                std::lock_guard<std::mutex> lock(mu_);
                if (!config_) {
                    config_.emplace(build());
                    ready_.store(true, std::memory_order_release);
                }
            }
            return *config_;
        }

      private:
        std::mutex mu_;
        std::atomic<bool> ready_{false};
        std::optional<CoreConfig> config_;
    };

    CoreConfig designBaseline300() const;
    CoreConfig designCryoSP() const;

    const tech::Technology &tech_;
    Floorplan floorplan_;
    CriticalPathModel model_;
    mutable Memo baseline300_;
    mutable Memo cryoSp_;
};

} // namespace cryo::pipeline

#endif // CRYOWIRE_PIPELINE_CORE_CONFIG_HH
