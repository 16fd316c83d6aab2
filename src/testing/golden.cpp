#include "golden.hpp"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/parse_num.hpp"
#include "obs/json.hpp"

namespace amped {
namespace testing {

void
GoldenRecord::add(const std::string &key, double value)
{
    require(!key.empty(), "golden: empty metric key");
    require(key.find('\t') == std::string::npos &&
                key.find('\n') == std::string::npos,
            "golden: key '", key, "' contains a tab or newline");
    require(index_.find(key) == index_.end(),
            "golden: duplicate metric key '", key, "'");
    index_[key] = entries_.size();
    entries_.push_back(GoldenEntry{key, value});
}

const double *
GoldenRecord::find(const std::string &key) const
{
    const auto it = index_.find(key);
    return it == index_.end() ? nullptr
                              : &entries_[it->second].value;
}

void
GoldenRecord::serialize(std::ostream &os) const
{
    os << "# amped-golden v1\n";
    for (const auto &entry : entries_)
        os << entry.key << '\t' << obs::formatDouble(entry.value)
           << '\n';
}

std::string
GoldenRecord::toString() const
{
    std::ostringstream oss;
    serialize(oss);
    return oss.str();
}

GoldenRecord
GoldenRecord::parse(std::istream &is, const std::string &source)
{
    GoldenRecord record;
    std::string line;
    int line_number = 0;
    while (std::getline(is, line)) {
        ++line_number;
        if (line.empty() || line[0] == '#')
            continue;
        const auto tab = line.find('\t');
        require(tab != std::string::npos, source, ":", line_number,
                ": golden line has no tab separator: '", line, "'");
        const std::string key = line.substr(0, tab);
        const std::string text = line.substr(tab + 1);
        require(!key.empty(), source, ":", line_number,
                ": golden line has an empty key");
        double value = 0.0;
        if (text == "nan") {
            value = std::nan("");
        } else if (text == "inf") {
            value = HUGE_VAL;
        } else if (text == "-inf") {
            value = -HUGE_VAL;
        } else {
            require(tryParseDouble(text.c_str(), value), source, ":",
                    line_number, ": value '", text, "' of key '",
                    key, "' is not a number");
        }
        record.add(key, value);
    }
    return record;
}

GoldenRecord
GoldenRecord::fromString(const std::string &text)
{
    std::istringstream iss(text);
    return parse(iss, "<string>");
}

GoldenRecord
GoldenRecord::fromFile(const std::string &path)
{
    std::ifstream file(path);
    require(file.good(), "cannot open golden file '", path, "'");
    return parse(file, path);
}

void
GoldenRecord::writeFile(const std::string &path) const
{
    std::ofstream file(path);
    require(file.good(), "cannot write golden file '", path, "'");
    serialize(file);
    file.flush();
    require(file.good(), "error while writing golden file '", path,
            "'");
}

} // namespace testing
} // namespace amped
