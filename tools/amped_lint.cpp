/**
 * @file
 * amped_lint: the project's multi-rule static-analysis driver.
 *
 * Grown from the single-purpose lint_units checker (PR 5), this tool
 * runs a set of line-based rules over the tree and reports every
 * violation as `file:line: [rule] ...` plus, optionally, a
 * machine-readable JSON findings file.  All rules share the same
 * scanning substrate: comments and string/char literals are stripped
 * (with block-comment state carried across lines) before any regex
 * runs, so prose and format strings never trip a rule.
 *
 * Rules (each with its own allowlist namespace and fixture under
 * tests/lint_fixtures/):
 *
 *  - units-in-headers: no raw `double` (or `std::vector<double>`
 *    column) with a dimension-implying name in public headers — the
 *    quantity layer (src/common/quantity.hpp) owns those dimensions.
 *    Absorbed unchanged from lint_units.
 *
 *  - no-locale-parse: no `strtod` / `strtof` / `strtold` /
 *    `std::stod` / `std::stof` / `std::stold` / `atof` /
 *    `sscanf`-family calls anywhere.  They read the process locale's
 *    radix character, so LC_ALL=de_DE.UTF-8 silently corrupts every
 *    parsed double; the one canonical parser is
 *    common/parse_num.hpp's parseDouble (std::from_chars), and its
 *    own guarded fallback is the single allowlisted use.
 *
 *  - no-nondeterminism: no `std::rand` / `srand` / `time(` /
 *    `std::random_device` / `std::getenv` outside the one documented
 *    environment seam (AMPED_THREADS in common/thread_pool.cpp).
 *    Seeded Rng streams and the Clock abstraction are the sanctioned
 *    sources of randomness and time; ambient process state is how
 *    "byte-identical at any thread count" quietly stops being true.
 *
 *  - no-unordered-iteration-in-output: no range-for over an
 *    `unordered_map` / `unordered_set` in serialization, golden,
 *    report, trace, or protocol translation units.  Hash iteration
 *    order is implementation-defined, so anything it feeds into an
 *    output byte stream breaks the golden contract; iterate a sorted
 *    view (or use std::map) instead.  Heuristic by design: the rule
 *    tracks identifiers declared as unordered containers within the
 *    file and flags range-fors whose range expression names one.
 *
 *  - no-eager-require-message: no `require(cond, ...)` whose message
 *    arguments (everything after the condition) call `toString(`,
 *    `to_string(`, `format...(`, `.str(` or `.dump(`.  require() is
 *    a function, so its arguments are built before the check runs:
 *    such a message is formatted on every passing call, and on the
 *    sweep paths that cost more than the model itself.  Write
 *    `if (!(cond)) fatal(...)` instead, which formats only on
 *    failure.  The statement may span lines: the stripped lines are
 *    joined until its parentheses balance.
 *
 * Allowlist entries are `rule:path-suffix:identifier`, one per line,
 * `#` comments; every entry should say why it is justified.
 *
 * Usage:
 *   amped_lint [--rule NAME]... --root DIR [--root DIR]...
 *              [--allowlist FILE] [--findings-out FILE] [FILE...]
 *
 * `--rule` selects a subset (default: all rules).  Exits 0 when no
 * violations were found, 1 otherwise, 2 on usage or I/O errors.
 */

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <regex>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace fs = std::filesystem;

namespace {

// ---------------------------------------------------------------------
// Shared substrate: allowlist, comment stripping, findings.
// ---------------------------------------------------------------------

/** rule -> file-path suffix -> identifier triples that are
 *  deliberately exempt. */
struct Allowlist
{
    struct Entry
    {
        std::string rule;
        std::string pathSuffix;
        std::string ident;
    };
    std::vector<Entry> entries;

    bool
    allows(const std::string &rule, const std::string &path,
           const std::string &name) const
    {
        for (const auto &entry : entries) {
            if (entry.rule != rule || entry.ident != name)
                continue;
            if (path.size() >= entry.pathSuffix.size() &&
                path.compare(path.size() - entry.pathSuffix.size(),
                             entry.pathSuffix.size(),
                             entry.pathSuffix) == 0)
                return true;
        }
        return false;
    }
};

bool
loadAllowlist(const fs::path &file, Allowlist &out)
{
    std::ifstream in(file);
    if (!in) {
        std::cerr << "amped_lint: cannot read allowlist " << file
                  << "\n";
        return false;
    }
    std::string line;
    while (std::getline(in, line)) {
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        const auto b = line.find_first_not_of(" \t\r");
        if (b == std::string::npos)
            continue;
        const auto e = line.find_last_not_of(" \t\r");
        line = line.substr(b, e - b + 1);
        const auto first = line.find(':');
        const auto last = line.rfind(':');
        if (first == std::string::npos || first == last) {
            std::cerr << "amped_lint: malformed allowlist entry '"
                      << line
                      << "' (want rule:path-suffix:identifier)\n";
            return false;
        }
        out.entries.push_back(
            {line.substr(0, first),
             line.substr(first + 1, last - first - 1),
             line.substr(last + 1)});
    }
    return true;
}

/**
 * Strips line and block comments and string/char literals so rule
 * regexes never match prose or format strings.  @p in_block carries
 * the block-comment state across lines.
 */
std::string
stripCommentsAndStrings(const std::string &line, bool &in_block)
{
    std::string out;
    out.reserve(line.size());
    for (std::size_t i = 0; i < line.size(); ++i) {
        if (in_block) {
            if (line[i] == '*' && i + 1 < line.size() &&
                line[i + 1] == '/') {
                in_block = false;
                ++i;
            }
            continue;
        }
        const char c = line[i];
        if (c == '/' && i + 1 < line.size()) {
            if (line[i + 1] == '/')
                break; // rest of line is a comment
            if (line[i + 1] == '*') {
                in_block = true;
                ++i;
                continue;
            }
        }
        if (c == '"' || c == '\'') {
            const char quote = c;
            ++i;
            while (i < line.size()) {
                if (line[i] == '\\')
                    ++i;
                else if (line[i] == quote)
                    break;
                ++i;
            }
            continue;
        }
        out.push_back(c);
    }
    return out;
}

struct Finding
{
    std::string rule;
    std::string file;
    std::size_t line = 0;
    std::string ident;
    std::string message;
};

/** One scanned file: path + comment/string-stripped code lines. */
struct SourceFile
{
    std::string path;
    std::vector<std::string> code; ///< 0-based; line N is code[N-1].
};

// ---------------------------------------------------------------------
// Rule: units-in-headers (absorbed from lint_units, PR 5).
// ---------------------------------------------------------------------

/** Lowercases and strips underscores: BitsPerSec -> bitspersec. */
std::string
normalized(const std::string &ident)
{
    std::string out;
    out.reserve(ident.size());
    for (char c : ident) {
        if (c == '_')
            continue;
        out.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(c))));
    }
    return out;
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(),
                     suffix) == 0;
}

/** True when the identifier names a dimension the type system owns. */
bool
hasDimensionSuffix(const std::string &ident)
{
    static const char *const kSuffixes[] = {
        "seconds", "persecond", "persec", "bits",  "hz",
        "hertz",   "flops",     "joules", "watts",
    };
    const std::string norm = normalized(ident);
    for (const char *suffix : kSuffixes) {
        if (endsWith(norm, suffix))
            return true;
    }
    return false;
}

bool
isHeader(const std::string &path)
{
    return endsWith(path, ".hpp") || endsWith(path, ".h");
}

void
scanUnitsInHeaders(const SourceFile &file, const Allowlist &allow,
                   std::vector<Finding> &out)
{
    static const std::string kRule = "units-in-headers";
    if (!isHeader(file.path))
        return;
    // `double` immediately followed by an identifier: catches
    // parameters, struct fields, and return types of declarations.
    static const std::regex decl(R"(\bdouble\s+(\w+))");
    // A raw-double column (value, reference or pointer form):
    // `std::vector<double> stageSeconds`, `vector<double> &xSecs`.
    static const std::regex col_decl(
        R"(\bvector\s*<\s*double\s*>\s*[&*]?\s*(\w+))");
    for (std::size_t n = 0; n < file.code.size(); ++n) {
        const std::string &code = file.code[n];
        for (auto it = std::sregex_iterator(code.begin(), code.end(),
                                            decl);
             it != std::sregex_iterator(); ++it) {
            const std::string ident = (*it)[1].str();
            if (!hasDimensionSuffix(ident))
                continue;
            if (allow.allows(kRule, file.path, ident))
                continue;
            out.push_back(
                {kRule, file.path, n + 1, ident,
                 "raw double '" + ident +
                     "' has a dimension-implying name; use a typed "
                     "quantity from common/quantity.hpp or add a "
                     "justified allowlist entry"});
        }
        for (auto it = std::sregex_iterator(code.begin(), code.end(),
                                            col_decl);
             it != std::sregex_iterator(); ++it) {
            const std::string ident = (*it)[1].str();
            if (!hasDimensionSuffix(ident))
                continue;
            if (allow.allows(kRule, file.path, ident))
                continue;
            out.push_back(
                {kRule, file.path, n + 1, ident,
                 "raw double column (std::vector<double>) '" +
                     ident +
                     "' has a dimension-implying name; use a typed "
                     "quantity per element, keep the column internal "
                     "to a .cpp file, or add a justified allowlist "
                     "entry"});
        }
    }
}

// ---------------------------------------------------------------------
// Rule: no-locale-parse.
// ---------------------------------------------------------------------

void
scanNoLocaleParse(const SourceFile &file, const Allowlist &allow,
                  std::vector<Finding> &out)
{
    static const std::string kRule = "no-locale-parse";
    static const std::regex call(
        R"(\b(?:std\s*::\s*)?(strtod|strtof|strtold|stod|stof|stold|atof|sscanf|fscanf|vsscanf|vfscanf|scanf)\s*\()");
    for (std::size_t n = 0; n < file.code.size(); ++n) {
        const std::string &code = file.code[n];
        for (auto it = std::sregex_iterator(code.begin(), code.end(),
                                            call);
             it != std::sregex_iterator(); ++it) {
            const std::string ident = (*it)[1].str();
            if (allow.allows(kRule, file.path, ident))
                continue;
            out.push_back(
                {kRule, file.path, n + 1, ident,
                 "'" + ident +
                     "' parses with the process locale's radix "
                     "character (LC_ALL=de_DE.UTF-8 corrupts it); "
                     "use common/parse_num.hpp parseDouble"});
        }
    }
}

// ---------------------------------------------------------------------
// Rule: no-nondeterminism.
// ---------------------------------------------------------------------

void
scanNoNondeterminism(const SourceFile &file, const Allowlist &allow,
                     std::vector<Finding> &out)
{
    static const std::string kRule = "no-nondeterminism";
    static const std::regex call(
        R"(\b(?:std\s*::\s*)?(rand|srand|time|getenv)\s*\()");
    static const std::regex device(
        R"(\b(?:std\s*::\s*)?(random_device)\b)");
    const auto flag = [&](const std::string &ident, std::size_t n) {
        if (allow.allows(kRule, file.path, ident))
            return;
        out.push_back(
            {kRule, file.path, n + 1, ident,
             "'" + ident +
                 "' injects ambient process state; use a seeded "
                 "common/rng.hpp stream or the Clock abstraction "
                 "(env reads live only behind the one documented "
                 "seam — see the allowlist)"});
    };
    for (std::size_t n = 0; n < file.code.size(); ++n) {
        const std::string &code = file.code[n];
        for (auto it = std::sregex_iterator(code.begin(), code.end(),
                                            call);
             it != std::sregex_iterator(); ++it)
            flag((*it)[1].str(), n);
        for (auto it = std::sregex_iterator(code.begin(), code.end(),
                                            device);
             it != std::sregex_iterator(); ++it)
            flag((*it)[1].str(), n);
    }
}

// ---------------------------------------------------------------------
// Rule: no-unordered-iteration-in-output.
// ---------------------------------------------------------------------

/** True for translation units that build output byte streams. */
bool
isOutputUnit(const std::string &path)
{
    const std::string name =
        normalized(fs::path(path).filename().string());
    static const char *const kMarkers[] = {
        "json", "golden", "report", "trace", "protocol", "export",
        "serial",
    };
    for (const char *marker : kMarkers) {
        if (name.find(marker) != std::string::npos)
            return true;
    }
    return false;
}

void
scanNoUnorderedIterationInOutput(const SourceFile &file,
                                 const Allowlist &allow,
                                 std::vector<Finding> &out)
{
    static const std::string kRule =
        "no-unordered-iteration-in-output";
    if (!isOutputUnit(file.path))
        return;
    // Pass 1: identifiers declared with an unordered container type
    // (greedy `.*>` rides over nested template arguments; the name
    // may be on the same line or implied later — both fixtures and
    // real declarations put it on the declaration line).
    static const std::regex decl(
        R"(\bunordered_(?:map|set)\s*<.*>\s*[&*]?\s*(\w+))");
    std::set<std::string> containers;
    for (const std::string &code : file.code) {
        for (auto it = std::sregex_iterator(code.begin(), code.end(),
                                            decl);
             it != std::sregex_iterator(); ++it)
            containers.insert((*it)[1].str());
    }
    // Pass 2: range-fors whose range expression names an unordered
    // container (declared above or spelled inline).
    static const std::regex range_for(
        R"(\bfor\s*\([^;()]*:\s*([^)]+)\))");
    static const std::regex word(R"(\w+)");
    for (std::size_t n = 0; n < file.code.size(); ++n) {
        const std::string &code = file.code[n];
        for (auto it = std::sregex_iterator(code.begin(), code.end(),
                                            range_for);
             it != std::sregex_iterator(); ++it) {
            const std::string range = (*it)[1].str();
            std::string hit;
            if (range.find("unordered_map") != std::string::npos ||
                range.find("unordered_set") != std::string::npos) {
                hit = "unordered container";
            } else {
                for (auto wit = std::sregex_iterator(
                         range.begin(), range.end(), word);
                     wit != std::sregex_iterator(); ++wit) {
                    if (containers.count(wit->str()) != 0) {
                        hit = wit->str();
                        break;
                    }
                }
            }
            if (hit.empty())
                continue;
            if (allow.allows(kRule, file.path, hit))
                continue;
            out.push_back(
                {kRule, file.path, n + 1, hit,
                 "range-for over unordered container '" + hit +
                     "' in an output translation unit: hash "
                     "iteration order is implementation-defined and "
                     "breaks byte-identical output; iterate a "
                     "sorted view (or use std::map)"});
        }
    }
}

// ---------------------------------------------------------------------
// Rule: no-eager-require-message.
// ---------------------------------------------------------------------

/**
 * The message arguments of the call whose argument list opens at
 * (@p line, @p pos): everything after the first top-level comma,
 * joining lines until the parentheses balance.
 */
std::string
messageArguments(const SourceFile &file, std::size_t line,
                 std::size_t pos)
{
    std::string message;
    bool in_message = false;
    int depth = 1;
    for (; line < file.code.size(); ++line, pos = 0) {
        const std::string &code = file.code[line];
        for (; pos < code.size(); ++pos) {
            const char c = code[pos];
            if (c == '(' || c == '[' || c == '{') {
                ++depth;
            } else if (c == ')' || c == ']' || c == '}') {
                if (--depth == 0)
                    return message;
            } else if (c == ',' && depth == 1 && !in_message) {
                in_message = true;
                continue;
            }
            if (in_message)
                message.push_back(c);
        }
        message.push_back(' ');
    }
    return message;
}

void
scanNoEagerRequireMessage(const SourceFile &file,
                          const Allowlist &allow,
                          std::vector<Finding> &out)
{
    static const std::string kRule = "no-eager-require-message";
    static const std::regex call(R"(\brequire\s*\()");
    static const std::regex formatter(
        R"(\b(toString|to_string|format\w*)\s*\(|\.\s*(str|dump)\s*\()");
    for (std::size_t n = 0; n < file.code.size(); ++n) {
        const std::string &code = file.code[n];
        for (auto it = std::sregex_iterator(code.begin(), code.end(),
                                            call);
             it != std::sregex_iterator(); ++it) {
            const std::string message = messageArguments(
                file, n,
                static_cast<std::size_t>(it->position() +
                                         it->length()));
            std::smatch m;
            if (!std::regex_search(message, m, formatter))
                continue;
            const std::string ident =
                m[1].matched ? m[1].str() : m[2].str();
            if (allow.allows(kRule, file.path, ident))
                continue;
            out.push_back(
                {kRule, file.path, n + 1, ident,
                 "require() message calls '" + m.str() +
                     "', which runs even when the check passes; "
                     "write `if (!(cond)) fatal(...)` so the message "
                     "is formatted only on failure"});
        }
    }
}

// ---------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------

using ScanFn = void (*)(const SourceFile &, const Allowlist &,
                        std::vector<Finding> &);

struct Rule
{
    const char *name;
    ScanFn scan;
};

const Rule kRules[] = {
    {"units-in-headers", scanUnitsInHeaders},
    {"no-locale-parse", scanNoLocaleParse},
    {"no-nondeterminism", scanNoNondeterminism},
    {"no-unordered-iteration-in-output",
     scanNoUnorderedIterationInOutput},
    {"no-eager-require-message", scanNoEagerRequireMessage},
};

bool
isSource(const fs::path &p)
{
    const auto ext = p.extension().string();
    return ext == ".hpp" || ext == ".h" || ext == ".cpp";
}

bool
readSource(const fs::path &path, SourceFile &out)
{
    std::ifstream in(path);
    if (!in) {
        std::cerr << "amped_lint: cannot read " << path << "\n";
        return false;
    }
    out.path = path.generic_string();
    out.code.clear();
    std::string line;
    bool in_block = false;
    while (std::getline(in, line))
        out.code.push_back(stripCommentsAndStrings(line, in_block));
    return true;
}

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default: out.push_back(c);
        }
    }
    return out;
}

bool
writeFindings(const fs::path &path,
              const std::vector<Finding> &findings)
{
    std::ofstream out(path);
    if (!out) {
        std::cerr << "amped_lint: cannot write findings to " << path
                  << "\n";
        return false;
    }
    out << "[\n";
    for (std::size_t i = 0; i < findings.size(); ++i) {
        const Finding &f = findings[i];
        out << "  {\"rule\": \"" << jsonEscape(f.rule)
            << "\", \"file\": \"" << jsonEscape(f.file)
            << "\", \"line\": " << f.line << ", \"ident\": \""
            << jsonEscape(f.ident) << "\", \"message\": \""
            << jsonEscape(f.message) << "\"}"
            << (i + 1 < findings.size() ? "," : "") << "\n";
    }
    out << "]\n";
    return out.good();
}

void
usage(std::ostream &os)
{
    os << "usage: amped_lint [--rule NAME]... --root DIR "
          "[--root DIR]... [--allowlist FILE] "
          "[--findings-out FILE] [FILE...]\n"
          "rules:";
    for (const Rule &rule : kRules)
        os << " " << rule.name;
    os << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<fs::path> roots;
    std::vector<fs::path> files;
    std::vector<std::string> selected;
    fs::path findings_out;
    Allowlist allow;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--root" || arg == "--allowlist" ||
            arg == "--rule" || arg == "--findings-out") {
            if (i + 1 >= argc) {
                std::cerr << "amped_lint: " << arg
                          << " needs a value\n";
                return 2;
            }
            const std::string value = argv[++i];
            if (arg == "--root") {
                roots.emplace_back(value);
            } else if (arg == "--rule") {
                const bool known = std::any_of(
                    std::begin(kRules), std::end(kRules),
                    [&value](const Rule &r) {
                        return value == r.name;
                    });
                if (!known) {
                    std::cerr << "amped_lint: unknown rule '"
                              << value << "'\n";
                    usage(std::cerr);
                    return 2;
                }
                selected.push_back(value);
            } else if (arg == "--findings-out") {
                findings_out = value;
            } else if (!loadAllowlist(value, allow)) {
                return 2;
            }
        } else if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            return 0;
        } else {
            files.emplace_back(arg);
        }
    }
    if (roots.empty() && files.empty()) {
        std::cerr
            << "amped_lint: nothing to scan (pass --root or files)\n";
        return 2;
    }

    for (const auto &root : roots) {
        std::error_code ec;
        auto iter = fs::recursive_directory_iterator(root, ec);
        if (ec) {
            std::cerr << "amped_lint: cannot open root " << root
                      << ": " << ec.message() << "\n";
            return 2;
        }
        for (const auto &entry : iter) {
            if (entry.is_regular_file() && isSource(entry.path()))
                files.push_back(entry.path());
        }
    }
    std::sort(files.begin(), files.end());

    std::vector<Finding> findings;
    std::size_t scanned = 0;
    for (const auto &path : files) {
        SourceFile file;
        if (!readSource(path, file))
            return 2;
        ++scanned;
        for (const Rule &rule : kRules) {
            if (!selected.empty() &&
                std::find(selected.begin(), selected.end(),
                          rule.name) == selected.end())
                continue;
            rule.scan(file, allow, findings);
        }
    }

    for (const Finding &f : findings)
        std::cerr << f.file << ":" << f.line << ": [" << f.rule
                  << "] " << f.message << "\n";
    if (!findings_out.empty() &&
        !writeFindings(findings_out, findings))
        return 2;
    std::cerr << "amped_lint: scanned " << scanned << " file(s), "
              << findings.size() << " finding(s)\n";
    return findings.empty() ? 0 : 1;
}
