/**
 * @file
 * The experiment registry: every figure/table reproduction registers
 * itself by name and tags, and the driver (cryowire_bench) selects
 * from it.
 *
 * Registration is explicit - registerAll() calls one register function
 * per experiment family - rather than static-initializer magic, so a
 * static library can hold the definitions without link-order tricks
 * and the registry order (= output order) is deterministic.
 */

#ifndef CRYOWIRE_EXP_REGISTRY_HH
#define CRYOWIRE_EXP_REGISTRY_HH

#include <string>
#include <vector>

#include "exp/experiment.hh"

namespace cryo::exp
{

class Registry
{
  public:
    /** Register @p e; duplicate names are fatal(). */
    void add(Experiment e);

    /** All experiments in registration order. */
    const std::vector<Experiment> &all() const { return experiments_; }

    /** Lookup by exact name; nullptr when absent. */
    const Experiment *find(const std::string &name) const;

    /**
     * Select experiments matching any of @p filters (OR semantics),
     * preserving registration order. A filter matches an experiment
     * when it equals one of its tags or glob-matches its name.
     * An empty filter list selects everything.
     */
    std::vector<const Experiment *>
    match(const std::vector<std::string> &filters) const;

    /** Shell-style glob: '*' = any run, '?' = any one character. */
    static bool globMatch(const std::string &pattern,
                          const std::string &text);

    /** The process-wide registry holding all built-in experiments. */
    static const Registry &builtins();

  private:
    std::vector<Experiment> experiments_;
};

/** Per-family registration hooks (one per src/exp/exp_*.cc file). */
void registerPipelineExperiments(Registry &reg);
void registerWireExperiments(Registry &reg);
void registerNocExperiments(Registry &reg);
void registerNetsimExperiments(Registry &reg);
void registerSystemExperiments(Registry &reg);
void registerAblationExperiments(Registry &reg);

/** Populate @p reg with every built-in experiment, paper order. */
void registerAll(Registry &reg);

} // namespace cryo::exp

#endif // CRYOWIRE_EXP_REGISTRY_HH
