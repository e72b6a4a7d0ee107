#include "pareto.hh"

#include <algorithm>

#include "util/output.hh"

namespace cryo::dse
{

std::vector<std::size_t>
paretoFrontier(const std::vector<EvaluatedPoint> &points)
{
    // Sort candidate order: power ascending, then perf descending,
    // then index ascending. A single sweep keeping the best perf seen
    // so far then yields exactly the non-dominated set, and equal
    // (power, perf) duplicates resolve to the lowest index.
    std::vector<std::size_t> order(points.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&points](std::size_t a, std::size_t b) {
                  const PointMetrics &ma = points[a].metrics;
                  const PointMetrics &mb = points[b].metrics;
                  if (ma.totalPower != mb.totalPower)
                      return ma.totalPower < mb.totalPower;
                  if (ma.perf != mb.perf)
                      return ma.perf > mb.perf;
                  return points[a].index < points[b].index;
              });

    std::vector<std::size_t> frontier;
    double best_perf = -1.0;
    for (const std::size_t i : order) {
        if (points[i].metrics.perf > best_perf) {
            best_perf = points[i].metrics.perf;
            frontier.push_back(i);
        }
    }
    return frontier;
}

void
writeParetoCsv(std::ostream &out,
               const std::vector<EvaluatedPoint> &points,
               const std::vector<std::size_t> &frontier)
{
    const std::vector<std::string> &fields = DesignPoint::fieldNames();
    const std::vector<std::string> &metrics = PointMetrics::metricNames();
    std::vector<std::string> cells{"index"};
    cells.insert(cells.end(), fields.begin(), fields.end());
    cells.insert(cells.end(), metrics.begin(), metrics.end());
    out << csvRow(cells);
    for (const std::size_t i : frontier) {
        const EvaluatedPoint &p = points[i];
        cells.clear();
        cells.push_back(std::to_string(p.index));
        p.point.appendCsv(cells);
        p.metrics.appendCsv(cells);
        out << csvRow(cells);
    }
}

} // namespace cryo::dse
