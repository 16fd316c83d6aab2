/**
 * @file
 * Golden-file records: the machine-readable output format behind the
 * figure/table regression harness.
 *
 * A GoldenRecord is an ordered list of (key, double) metrics.  The
 * canonical serialization is line-oriented TSV — one `key<TAB>value`
 * per line, '#' comments, values rendered with the shortest
 * representation that round-trips (obs::formatDouble) — so goldens are
 * diffable by humans and stable across platforms up to floating-
 * point noise (which the tolerance-aware diff in diff.hpp absorbs).
 *
 * Infeasible design points are recorded as NaN: a point silently
 * becoming feasible (or infeasible) is a golden mismatch, not a
 * silently dropped row.
 */

#ifndef AMPED_TESTING_GOLDEN_HPP
#define AMPED_TESTING_GOLDEN_HPP

#include <cstddef>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace amped {
namespace testing {

/** One named metric of a golden record. */
struct GoldenEntry
{
    std::string key;    ///< Hierarchical name ("fig4/TP2_PP64/b8192/days").
    double value = 0.0; ///< The pinned number (NaN = infeasible point).
};

/**
 * An ordered, key-unique collection of metrics.
 */
class GoldenRecord
{
  public:
    /**
     * Appends a metric.
     *
     * @throws UserError on duplicate keys or keys containing tabs,
     *         newlines, or nothing at all.
     */
    void add(const std::string &key, double value);

    /** Entries in insertion order. */
    const std::vector<GoldenEntry> &entries() const { return entries_; }

    /** Number of metrics. */
    std::size_t size() const { return entries_.size(); }

    /** Pointer to the value of @p key, or nullptr when absent. */
    const double *find(const std::string &key) const;

    /** Writes the canonical TSV form. */
    void serialize(std::ostream &os) const;

    /** serialize() into a string. */
    std::string toString() const;

    /**
     * Parses the canonical form.
     *
     * @param source Name used in diagnostics (path or "<string>").
     * @throws UserError on malformed lines, with line numbers.
     */
    static GoldenRecord parse(std::istream &is,
                              const std::string &source);

    /** parse() from a string. */
    static GoldenRecord fromString(const std::string &text);

    /** parse() from a file; throws UserError when unreadable. */
    static GoldenRecord fromFile(const std::string &path);

    /** Serializes to a file; throws UserError when unwritable. */
    void writeFile(const std::string &path) const;

  private:
    std::vector<GoldenEntry> entries_;
    std::map<std::string, std::size_t> index_;
};

} // namespace testing
} // namespace amped

#endif // AMPED_TESTING_GOLDEN_HPP
