#include "evaluation.hh"

#include "util/diag.hh"

namespace cryo::core
{

Evaluator::Evaluator(const tech::Technology &tech, int cores)
    : tech_(tech), builder_(tech, cores)
{
}

SuiteResult
Evaluator::evaluate(const std::vector<sys::SystemDesign> &designs,
                    const std::vector<sys::Workload> &suite,
                    std::size_t baseline_idx) const
{
    fatalIf(designs.empty(), "no designs to evaluate");
    fatalIf(suite.empty(), "no workloads to evaluate");
    fatalIf(baseline_idx >= designs.size(), "baseline index out of range");

    SuiteResult out;
    // One runSuite per design validates it and derives its
    // interconnect invariants once for the whole suite.
    std::vector<std::vector<sys::SimResult>> runs;
    for (const auto &d : designs) {
        out.designs.push_back(d.name);
        runs.push_back(sim_.runSuite(d, suite));
    }
    for (const auto &w : suite)
        out.workloads.push_back(w.name);

    out.perf.assign(suite.size(),
                    std::vector<double>(designs.size(), 0.0));
    for (std::size_t wi = 0; wi < suite.size(); ++wi) {
        const double base_time = runs[baseline_idx][wi].timePerInstr;
        for (std::size_t di = 0; di < designs.size(); ++di)
            out.perf[wi][di] = base_time / runs[di][wi].timePerInstr;
    }

    out.mean.assign(designs.size(), 0.0);
    for (std::size_t di = 0; di < designs.size(); ++di) {
        double sum = 0.0;
        for (std::size_t wi = 0; wi < suite.size(); ++wi)
            sum += out.perf[wi][di];
        out.mean[di] = sum / static_cast<double>(suite.size());
    }
    return out;
}

SuiteResult
Evaluator::parsecComparison() const
{
    // Fig. 23 normalizes to CHP-core (77K, Mesh) - index 1 in the
    // Table-4 order.
    return evaluate(builder_.table4Systems(), sys::parsec21(), 1);
}

SuiteResult
Evaluator::specComparison() const
{
    std::vector<sys::SystemDesign> designs = {
        builder_.baseline300Mesh(),
        builder_.chpMesh77(),
        builder_.cryoSpCryoBus77(1),
        builder_.cryoSpCryoBus77(2),
    };
    // Fig. 24 normalizes to the 300 K baseline.
    return evaluate(designs, sys::specRateAggressivePrefetch(), 0);
}

} // namespace cryo::core
