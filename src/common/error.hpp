/**
 * @file
 * Error-handling machinery for AMPeD.
 *
 * Two failure categories, mirroring the gem5 fatal/panic distinction:
 *
 *  - UserError (fatal): the caller supplied an invalid configuration
 *    (e.g. a parallelism degree that does not divide the device
 *    count).  Thrown as an exception so applications can catch,
 *    report, and continue exploring other configurations.
 *
 *  - AMPED_ASSERT / panic: an internal invariant of the model itself
 *    was violated, i.e. a bug in AMPeD.  Aborts the process.
 */

#ifndef AMPED_COMMON_ERROR_HPP
#define AMPED_COMMON_ERROR_HPP

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

namespace amped {

/**
 * Exception thrown for invalid user-supplied configuration.
 *
 * Corresponds to gem5's fatal(): the simulation/model cannot continue
 * because of a condition that is the user's fault, not a model bug.
 */
class UserError : public std::runtime_error
{
  public:
    explicit UserError(std::string message)
        : std::runtime_error(std::move(message))
    {}
};

namespace detail {

/** Builds a message from stream-formattable parts. */
template <typename... Args>
std::string
concatMessage(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << std::forward<Args>(args));
    return oss.str();
}

/**
 * Aborts with a panic message; never returns.  Inline so that this
 * header needs no compiled code: amped_obs, which amped_common links,
 * asserts through it too.
 */
[[noreturn]] inline void
panicImpl(const char *file, int line, const std::string &message)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", message.c_str(), file,
                 line);
    std::abort();
}

} // namespace detail

/**
 * Throws UserError with a streamed message.
 *
 * @param args Parts of the message, each streamable to std::ostream.
 */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    throw UserError(detail::concatMessage(std::forward<Args>(args)...));
}

/**
 * Throws UserError unless @p condition holds.
 *
 * @param condition Predicate that must be true for valid user input.
 * @param args Message parts used when the check fails.
 */
template <typename... Args>
void
require(bool condition, Args &&...args)
{
    if (!condition)
        fatal(std::forward<Args>(args)...);
}

} // namespace amped

/**
 * Internal-invariant check.  Failure indicates a bug in AMPeD itself
 * (never a user-configuration problem) and aborts the process.
 */
#define AMPED_ASSERT(cond, msg)                                             \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::amped::detail::panicImpl(                                     \
                __FILE__, __LINE__,                                         \
                std::string("assertion '" #cond "' failed: ") + (msg));     \
        }                                                                   \
    } while (false)

#endif // AMPED_COMMON_ERROR_HPP
