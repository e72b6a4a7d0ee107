#include "sinks.hh"

#include <filesystem>
#include <sstream>
#include <system_error>

#include "util/diag.hh"
#include "util/json.hh"
#include "util/output.hh"
#include "util/table.hh"

namespace cryo::exp
{

std::string
renderText(const Experiment &e, const ExperimentResult &r)
{
    std::ostringstream out;
    out << "\n=== CryoWire reproduction: " << e.title << " ===\n"
        << e.summary << "\n\n";
    for (const ExperimentResult::Item &item : r.items()) {
        if (item.kind == ExperimentResult::Item::Kind::TableRef)
            out << r.tables()[item.index].str();
        else
            out << r.notes()[item.index] << '\n';
    }
    if (!r.verdict().empty())
        out << r.verdict() << '\n';
    return out.str();
}

std::string
renderText(const RunRecord &rec)
{
    const Experiment &e = *rec.experiment;
    if (!rec.failed)
        return renderText(e, rec.result);
    std::ostringstream out;
    out << "\n=== CryoWire reproduction: " << e.title << " ===\n"
        << "EXPERIMENT FAILED: " << rec.error << '\n';
    for (const std::string &frame : rec.errorContext)
        out << "  context: " << frame << '\n';
    return out.str();
}

void
writeJson(std::ostream &out, const std::vector<RunRecord> &records,
          std::uint64_t seed)
{
    std::size_t anchors = 0, failed = 0, experiments_failed = 0;
    for (const RunRecord &rec : records) {
        if (rec.failed) {
            ++experiments_failed;
            continue;
        }
        for (const Metric &m : rec.result.metrics()) {
            if (!m.hasAnchor())
                continue;
            ++anchors;
            if (!m.pass())
                ++failed;
        }
    }

    JsonWriter w{out};
    w.beginObject();
    w.key("schema").value("cryowire-results-v2");
    w.key("seed").value(seed);
    w.key("experiments").beginArray();
    for (const RunRecord &rec : records) {
        const Experiment &e = *rec.experiment;
        w.beginObject();
        w.key("name").value(e.name);
        w.key("title").value(e.title);
        w.key("tags").beginArray();
        for (const std::string &tag : e.tags)
            w.value(tag);
        w.endArray();
        w.key("status").value(rec.failed ? "failed" : "ok");
        if (rec.failed) {
            w.key("error").value(rec.error);
            w.key("context").beginArray();
            for (const std::string &frame : rec.errorContext)
                w.value(frame);
            w.endArray();
        }
        w.key("metrics").beginArray();
        for (const Metric &m : rec.result.metrics()) {
            w.beginObject();
            w.key("name").value(m.name);
            w.key("value").value(m.value);
            if (!m.unit.empty())
                w.key("unit").value(m.unit);
            if (m.hasAnchor()) {
                w.key("anchor").value(m.anchor);
                w.key("rel_tol").value(m.relTol);
                w.key("pass").value(m.pass());
            }
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.key("anchors").beginObject();
    w.key("total").value(static_cast<std::uint64_t>(anchors));
    w.key("failed").value(static_cast<std::uint64_t>(failed));
    w.endObject();
    w.key("experiments_failed")
        .value(static_cast<std::uint64_t>(experiments_failed));
    w.endObject();
}

void
writeCsv(const std::string &dir, const RunRecord &rec)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    fatalIf(static_cast<bool>(ec), "cannot create CSV directory \"" +
                                       dir + "\": " + ec.message());
    const ExperimentResult &r = rec.result;
    const std::string stem = dir + "/" + rec.experiment->name;

    std::string csv = csvRow(
        {"metric", "value", "unit", "anchor", "rel_tol", "status"});
    for (const Metric &m : r.metrics()) {
        csv += csvRow({m.name, formatDouble(m.value), m.unit,
                       m.hasAnchor() ? formatDouble(m.anchor) : "",
                       m.hasAnchor() ? formatDouble(m.relTol) : "",
                       m.hasAnchor() ? (m.pass() ? "pass" : "FAIL") : ""});
    }
    writeFile(stem + ".metrics.csv", csv);

    std::size_t table_idx = 0;
    for (const Table &t : r.tables()) {
        csv = csvRow(t.header());
        for (const auto &row : t.rows()) {
            if (!Table::isRule(row))
                csv += csvRow(row);
        }
        writeFile(stem + ".table" + std::to_string(++table_idx) + ".csv",
                  csv);
    }

    if (!rec.failed)
        return;
    csv = csvRow({"field", "value"}) + csvRow({"error", rec.error});
    for (const std::string &frame : rec.errorContext)
        csv += csvRow({"context", frame});
    writeFile(stem + ".error.csv", csv);
}

std::size_t
renderAnchorSummary(std::ostream &out,
                    const std::vector<RunRecord> &records)
{
    std::size_t anchors = 0, failed = 0, experiments_failed = 0;
    for (const RunRecord &rec : records) {
        if (rec.failed) {
            ++experiments_failed;
            out << "EXPERIMENT FAILED  " << rec.experiment->name
                << ": " << rec.error << "\n";
            for (const std::string &frame : rec.errorContext)
                out << "    context: " << frame << "\n";
            continue;
        }
        for (const Metric &m : rec.result.metrics()) {
            if (!m.hasAnchor())
                continue;
            ++anchors;
            if (m.pass())
                continue;
            ++failed;
            out << "ANCHOR MISS  " << rec.experiment->name << " / "
                << m.name << ": measured " << formatDouble(m.value)
                << ", paper " << formatDouble(m.anchor) << " (tol "
                << Table::pct(m.relTol) << ")\n";
        }
    }
    out << "anchors: " << anchors - failed << "/" << anchors
        << " within tolerance\n";
    if (experiments_failed > 0)
        out << "experiments failed: " << experiments_failed << "\n";
    return failed + experiments_failed;
}

} // namespace cryo::exp
