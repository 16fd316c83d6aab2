// amped_lint fixture: std::stod is strtod underneath, so it reads the
// process locale's radix character too.  This file holds no other
// banned call, so the WILL_FAIL ctest
// amped_lint_catches_no_locale_parse_stod shows that the rule's
// std::stod pattern alone is caught.  Compiled never, scanned always.

#include <string>

double
parseBatch(const std::string &text)
{
    return std::stod(text); // flagged: stod
}
