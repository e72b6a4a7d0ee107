#include "experiment.hh"

#include <algorithm>

#include "util/diag.hh"

namespace cryo::exp
{

Table &
ExperimentResult::table(std::vector<std::string> header)
{
    tables_.emplace_back(std::move(header));
    items_.push_back({Item::Kind::TableRef, tables_.size() - 1});
    return tables_.back();
}

void
ExperimentResult::note(std::string line)
{
    notes_.push_back(std::move(line));
    items_.push_back({Item::Kind::Note, notes_.size() - 1});
}

double
ExperimentResult::metric(std::string name, double value,
                         std::string unit)
{
    Metric m;
    m.name = std::move(name);
    m.value = value;
    m.unit = std::move(unit);
    metrics_.push_back(std::move(m));
    return value;
}

double
ExperimentResult::anchored(std::string name, double value,
                           double anchor, double rel_tol,
                           std::string unit)
{
    fatalIf(std::isnan(anchor), "anchored() needs a real anchor");
    fatalIf(rel_tol < 0.0, "negative anchor tolerance");
    Metric m;
    m.name = std::move(name);
    m.value = value;
    m.unit = std::move(unit);
    m.anchor = anchor;
    m.relTol = rel_tol;
    metrics_.push_back(std::move(m));
    return value;
}

std::size_t
ExperimentResult::failedAnchors() const
{
    return static_cast<std::size_t>(std::count_if(
        metrics_.begin(), metrics_.end(),
        [](const Metric &m) { return !m.pass(); }));
}

namespace
{

dse::DesignPoint
pointWithSeed(std::uint64_t seed)
{
    dse::DesignPoint p;
    p.seed = seed;
    return p;
}

const dse::DesignPoint &
validated(const dse::DesignPoint &point)
{
    point.validate();
    return point;
}

} // namespace

Context::Context(std::uint64_t seed) : Context(pointWithSeed(seed)) {}

Context::Context(const dse::DesignPoint &point)
    : point_(validated(point)),
      stack_(std::make_shared<const dse::ModelStack>(
          dse::makeTechnology(point_), point_))
{
}

netsim::TrafficSpec
Context::traffic() const
{
    netsim::TrafficSpec tr;
    tr.seed = point_.seed;
    return tr;
}

netsim::TrafficSpec
Context::directoryTraffic() const
{
    netsim::TrafficSpec tr = traffic();
    tr.responseFlits = 5;
    return tr;
}

std::vector<netsim::CellResult>
Context::measure(const std::vector<netsim::Cell> &cells) const
{
    std::vector<netsim::CellResult> out;
    out.reserve(cells.size());
    for (const netsim::Cell &cell : cells) {
        const netsim::CellResult *pooled =
            cells_ ? cells_->find(cell) : nullptr;
        out.push_back(pooled ? *pooled : netsim::runCell(cell));
    }
    return out;
}

Context
Context::withCells(std::shared_ptr<const CellTable> cells) const
{
    Context ctx = *this;
    ctx.cells_ = std::move(cells);
    return ctx;
}

std::size_t
CellTable::add(const netsim::Cell &cell)
{
    const std::uint64_t h = cell.hash();
    const auto [first, last] = byHash_.equal_range(h);
    for (auto it = first; it != last; ++it) {
        if (cells_[it->second] == cell)
            return it->second;
    }
    byHash_.emplace(h, cells_.size());
    cells_.push_back(cell);
    results_.emplace_back();
    return cells_.size() - 1;
}

const netsim::CellResult *
CellTable::find(const netsim::Cell &cell) const
{
    const auto [first, last] = byHash_.equal_range(cell.hash());
    for (auto it = first; it != last; ++it) {
        const std::size_t i = it->second;
        if (cells_[i] == cell)
            return results_[i] ? &*results_[i] : nullptr;
    }
    return nullptr;
}

bool
Experiment::hasTag(const std::string &tag) const
{
    return std::find(tags.begin(), tags.end(), tag) != tags.end();
}

} // namespace cryo::exp
