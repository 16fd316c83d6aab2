#include "diff.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>

#include "common/math_util.hpp"
#include "obs/json.hpp"

namespace amped {
namespace testing {

namespace {

/** almostEqual extended with the golden NaN-pins-NaN convention. */
bool
valuesAgree(double expected, double actual,
            const DiffOptions &options)
{
    return math::almostEqual(expected, actual, options.absTol,
                             options.relTol);
}

double
relErrorOf(double expected, double actual)
{
    const double scale =
        std::max(std::fabs(expected), std::fabs(actual));
    return scale > 0.0 ? std::fabs(expected - actual) / scale : 0.0;
}

} // namespace

DiffReport
diffRecords(const GoldenRecord &expected, const GoldenRecord &actual,
            const DiffOptions &options)
{
    DiffReport report;
    std::set<std::string> expected_keys;
    for (const auto &entry : expected.entries()) {
        expected_keys.insert(entry.key);
        const double *value = actual.find(entry.key);
        if (value == nullptr) {
            report.entries.push_back(DiffEntry{
                DiffKind::missingKey, entry.key, entry.value, 0.0});
            continue;
        }
        ++report.compared;
        if (!valuesAgree(entry.value, *value, options)) {
            report.entries.push_back(DiffEntry{
                DiffKind::valueMismatch, entry.key, entry.value,
                *value});
        }
    }
    for (const auto &entry : actual.entries()) {
        if (!expected_keys.count(entry.key)) {
            report.entries.push_back(DiffEntry{
                DiffKind::extraKey, entry.key, 0.0, entry.value});
        }
    }
    return report;
}

std::string
DiffReport::render(const std::string &label,
                   const DiffOptions &options) const
{
    std::ostringstream oss;
    oss << "[" << label << "] ";
    if (clean()) {
        oss << "OK: " << compared
            << " metrics within tolerance (abs "
            << obs::formatDouble(options.absTol) << ", rel "
            << obs::formatDouble(options.relTol) << ")\n";
        return oss.str();
    }
    oss << entries.size() << " difference"
        << (entries.size() == 1 ? "" : "s") << " (" << compared
        << " metrics compared, abs tol "
        << obs::formatDouble(options.absTol) << ", rel tol "
        << obs::formatDouble(options.relTol) << ")\n";
    for (const auto &entry : entries) {
        switch (entry.kind) {
        case DiffKind::valueMismatch:
            oss << "  MISMATCH " << entry.key << ": expected "
                << obs::formatDouble(entry.expected) << " actual "
                << obs::formatDouble(entry.actual) << " (abs err "
                << obs::formatDouble(
                       std::fabs(entry.expected - entry.actual))
                << ", rel err "
                << obs::formatDouble(
                       relErrorOf(entry.expected, entry.actual))
                << ")\n";
            break;
        case DiffKind::missingKey:
            oss << "  MISSING  " << entry.key << ": expected "
                << obs::formatDouble(entry.expected)
                << " but the key is absent from the output\n";
            break;
        case DiffKind::extraKey:
            oss << "  EXTRA    " << entry.key << ": output has "
                << obs::formatDouble(entry.actual)
                << " but the golden does not pin this key\n";
            break;
        }
    }
    return oss.str();
}

} // namespace testing
} // namespace amped
