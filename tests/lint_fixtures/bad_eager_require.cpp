// amped_lint fixture: every require() below formats its message
// before the check runs (require is a function, so its arguments are
// evaluated first), paying for the text on every passing call.  Each
// must be flagged by the no-eager-require-message rule; the lazy
// `if (!(cond)) fatal(...)` forms at the end must not be.  Compiled
// never, scanned always (the WILL_FAIL ctest
// amped_lint_catches_eager_require_message runs the rule over this
// file and asserts a nonzero exit).

#include <sstream>
#include <string>

#include "common/error.hpp"
#include "mapping/parallelism.hpp"
#include "obs/json.hpp"

using namespace amped;

void
checkDegrees(const mapping::ParallelismConfig &p, std::int64_t devices)
{
    require(p.tp() * p.pp() * p.dp() == devices, "mapping ",
            p.toString(), " does not cover ", devices,
            " devices"); // flagged: toString, message on a later line
    require(p.tp() >= 1,
            "tp degree " + std::to_string(p.tp())); // flagged: to_string
}

void
checkValue(const obs::Json &value, double x, std::ostringstream &oss)
{
    require(x >= 0.0, "got ", obs::formatDouble(x)); // flagged: format*
    require(x < 1e9, "got ", oss.str()); // flagged: .str(
    require(value.isObject(),
            "not an object: ",
            value.dump()); // flagged: .dump(
}

void
lazyChecksAreFine(const mapping::ParallelismConfig &p, double x)
{
    // A formatter in the condition runs either way: not flagged.
    require(!p.toString().empty(), "empty mapping name");
    // The message is built only when the check fails: not flagged.
    if (!(x >= 0.0))
        fatal("got ", obs::formatDouble(x), " for ", p.toString());
}
