/**
 * @file
 * Tests for the golden-file library: canonical serialization (round
 * trips, NaN/inf tokens, shortest representation), parsing with
 * line-numbered diagnostics, and the tolerance-aware diff engine.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "common/error.hpp"
#include "obs/json.hpp"
#include "testing/diff.hpp"
#include "testing/golden.hpp"

namespace amped {
namespace testing {
namespace {

TEST(FormatCanonical, RoundTripsExactly)
{
    for (double value :
         {0.0, 1.0, -1.5, 0.1, 1.0 / 3.0, 1e300, 5e-324,
          60.934108107960846, 3.6e2}) {
        const std::string text = obs::formatDouble(value);
        EXPECT_EQ(std::strtod(text.c_str(), nullptr), value) << text;
    }
}

TEST(FormatCanonical, PrefersShortForms)
{
    EXPECT_EQ(obs::formatDouble(0.0), "0");
    EXPECT_EQ(obs::formatDouble(1.0), "1");
    EXPECT_EQ(obs::formatDouble(0.5), "0.5");
}

TEST(FormatCanonical, SpecialValues)
{
    EXPECT_EQ(obs::formatDouble(std::nan("")), "nan");
    EXPECT_EQ(obs::formatDouble(
                  std::numeric_limits<double>::infinity()),
              "inf");
    EXPECT_EQ(obs::formatDouble(
                  -std::numeric_limits<double>::infinity()),
              "-inf");
}

TEST(GoldenRecord, SerializeParseRoundTrip)
{
    GoldenRecord record;
    record.add("fig/a", 1.0 / 3.0);
    record.add("fig/b", -2.5e-17);
    record.add("fig/infeasible", std::nan(""));
    record.add("fig/inf", std::numeric_limits<double>::infinity());

    const auto reparsed = GoldenRecord::fromString(record.toString());
    ASSERT_EQ(reparsed.size(), record.size());
    for (std::size_t i = 0; i < record.size(); ++i) {
        EXPECT_EQ(reparsed.entries()[i].key, record.entries()[i].key);
        const double a = record.entries()[i].value;
        const double b = reparsed.entries()[i].value;
        if (std::isnan(a))
            EXPECT_TRUE(std::isnan(b));
        else
            EXPECT_EQ(a, b);
    }
}

TEST(GoldenRecord, ParseSkipsCommentsAndBlankLines)
{
    const auto record = GoldenRecord::fromString(
        "# amped-golden v1\n"
        "\n"
        "# a comment\n"
        "key/one\t1.5\n");
    ASSERT_EQ(record.size(), 1u);
    EXPECT_EQ(record.entries()[0].key, "key/one");
    EXPECT_EQ(record.entries()[0].value, 1.5);
}

TEST(GoldenRecord, FindLocatesKeys)
{
    GoldenRecord record;
    record.add("x", 2.0);
    ASSERT_NE(record.find("x"), nullptr);
    EXPECT_EQ(*record.find("x"), 2.0);
    EXPECT_EQ(record.find("y"), nullptr);
}

TEST(GoldenRecord, RejectsBadKeys)
{
    GoldenRecord record;
    record.add("ok", 1.0);
    EXPECT_THROW(record.add("ok", 2.0), UserError);   // duplicate
    EXPECT_THROW(record.add("", 1.0), UserError);     // empty
    EXPECT_THROW(record.add("a\tb", 1.0), UserError); // tab
    EXPECT_THROW(record.add("a\nb", 1.0), UserError); // newline
}

TEST(GoldenRecord, ParseDiagnosticsNameSourceAndLine)
{
    try {
        GoldenRecord::fromString("key-without-value\n");
        FAIL() << "expected UserError";
    } catch (const UserError &error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("<string>"), std::string::npos) << what;
        EXPECT_NE(what.find("1"), std::string::npos) << what;
    }
    std::istringstream is("a\t1\nb\tnot-a-number\n");
    try {
        GoldenRecord::parse(is, "some.golden");
        FAIL() << "expected UserError";
    } catch (const UserError &error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("some.golden"), std::string::npos) << what;
        EXPECT_NE(what.find("2"), std::string::npos) << what;
    }
}

TEST(GoldenRecord, FromFileReportsMissingPath)
{
    EXPECT_THROW(GoldenRecord::fromFile("/nonexistent/nope.golden"),
                 UserError);
}

GoldenRecord
makeRecord(std::initializer_list<std::pair<const char *, double>> kv)
{
    GoldenRecord record;
    for (const auto &[key, value] : kv)
        record.add(key, value);
    return record;
}

TEST(DiffRecords, CleanWithinTolerance)
{
    const auto expected = makeRecord({{"a", 1.0}, {"b", 100.0}});
    const auto actual =
        makeRecord({{"a", 1.0 + 1e-10}, {"b", 100.0 + 1e-5}});
    const auto report = diffRecords(expected, actual);
    EXPECT_TRUE(report.clean());
    EXPECT_EQ(report.compared, 2u);
}

TEST(DiffRecords, FlagsValueMismatch)
{
    const auto expected = makeRecord({{"a", 1.0}});
    const auto actual = makeRecord({{"a", 1.01}});
    const auto report = diffRecords(expected, actual);
    ASSERT_EQ(report.entries.size(), 1u);
    EXPECT_EQ(report.entries[0].kind, DiffKind::valueMismatch);
    EXPECT_EQ(report.entries[0].key, "a");
    // A loose tolerance absorbs it.
    EXPECT_TRUE(
        diffRecords(expected, actual, {1e-9, 0.05}).clean());
}

TEST(DiffRecords, FlagsMissingAndExtraKeys)
{
    const auto expected = makeRecord({{"gone", 1.0}, {"kept", 2.0}});
    const auto actual = makeRecord({{"kept", 2.0}, {"new", 3.0}});
    const auto report = diffRecords(expected, actual);
    ASSERT_EQ(report.entries.size(), 2u);
    EXPECT_EQ(report.entries[0].kind, DiffKind::missingKey);
    EXPECT_EQ(report.entries[0].key, "gone");
    EXPECT_EQ(report.entries[1].kind, DiffKind::extraKey);
    EXPECT_EQ(report.entries[1].key, "new");
    EXPECT_EQ(report.compared, 1u);
}

TEST(DiffRecords, NanPinsInfeasiblePoints)
{
    const auto nan_expected = makeRecord({{"p", std::nan("")}});
    EXPECT_TRUE(
        diffRecords(nan_expected, makeRecord({{"p", std::nan("")}}))
            .clean());
    // Feasibility changes (NaN <-> number) are mismatches.
    EXPECT_FALSE(
        diffRecords(nan_expected, makeRecord({{"p", 1.0}})).clean());
    EXPECT_FALSE(
        diffRecords(makeRecord({{"p", 1.0}}), nan_expected).clean());
}

TEST(DiffRecords, RenderMentionsEverything)
{
    const auto expected =
        makeRecord({{"bad", 1.0}, {"gone", 2.0}});
    const auto actual = makeRecord({{"bad", 2.0}, {"new", 3.0}});
    const DiffOptions options;
    const auto report = diffRecords(expected, actual, options);
    const auto text = report.render("label", options);
    EXPECT_NE(text.find("label"), std::string::npos);
    EXPECT_NE(text.find("MISMATCH bad"), std::string::npos);
    EXPECT_NE(text.find("MISSING"), std::string::npos);
    EXPECT_NE(text.find("EXTRA"), std::string::npos);

    const auto clean_text =
        diffRecords(expected, expected, options)
            .render("label", options);
    EXPECT_NE(clean_text.find("OK"), std::string::npos);
}

} // namespace
} // namespace testing
} // namespace amped
