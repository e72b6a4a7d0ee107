#include "stage.hh"

namespace cryo::pipeline
{

int
frontendStageCount(const StageList &stages)
{
    int n = 0;
    for (const auto &s : stages) {
        if (s.kind == StageKind::Frontend)
            ++n;
    }
    return n;
}

double
averageWireFraction(const StageList &stages, StageKind kind)
{
    double sum = 0.0;
    int n = 0;
    for (const auto &s : stages) {
        if (s.kind == kind) {
            sum += s.wireFraction;
            ++n;
        }
    }
    return n ? sum / n : 0.0;
}

} // namespace cryo::pipeline
