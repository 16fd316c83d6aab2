/**
 * @file
 * Tests for the obs JSON value type: construction, serialization,
 * parsing, and the round-trip guarantees the trace/report exporters
 * rely on.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "obs/json.hpp"

namespace amped {
namespace obs {
namespace {

TEST(ObsJsonTest, ScalarKindsAndAccessors)
{
    EXPECT_TRUE(Json().isNull());
    EXPECT_TRUE(Json(nullptr).isNull());
    EXPECT_TRUE(Json(true).asBool());
    EXPECT_FALSE(Json(false).asBool());
    EXPECT_DOUBLE_EQ(Json(1.5).asDouble(), 1.5);
    EXPECT_EQ(Json(std::int64_t{-7}).asInt(), -7);
    EXPECT_EQ(Json(42).asInt(), 42);
    EXPECT_EQ(Json("hi").asString(), "hi");
    // Integers are readable through the double accessor too.
    EXPECT_DOUBLE_EQ(Json(3).asDouble(), 3.0);
    // Kind mismatches throw instead of coercing.
    EXPECT_THROW(Json("hi").asDouble(), UserError);
    EXPECT_THROW(Json(1.0).asString(), UserError);
}

TEST(ObsJsonTest, ObjectPreservesInsertionOrder)
{
    Json obj = Json::object();
    obj.set("zulu", 1).set("alpha", 2).set("mike", 3);
    ASSERT_EQ(obj.members().size(), 3u);
    EXPECT_EQ(obj.members()[0].first, "zulu");
    EXPECT_EQ(obj.members()[1].first, "alpha");
    EXPECT_EQ(obj.members()[2].first, "mike");
    EXPECT_TRUE(obj.contains("alpha"));
    EXPECT_FALSE(obj.contains("tango"));
    EXPECT_EQ(obj.at("mike").asInt(), 3);
    EXPECT_THROW(obj.at("tango"), UserError);
}

TEST(ObsJsonTest, DuplicateObjectKeysThrow)
{
    Json obj = Json::object();
    obj.set("key", 1);
    EXPECT_THROW(obj.set("key", 2), UserError);
}

TEST(ObsJsonTest, ArrayPushAndAccess)
{
    Json arr = Json::array();
    arr.push(1).push("two").push(3.0);
    EXPECT_EQ(arr.size(), 3u);
    EXPECT_EQ(arr.at(std::size_t{0}).asInt(), 1);
    EXPECT_EQ(arr.at(std::size_t{1}).asString(), "two");
    EXPECT_THROW(arr.at(std::size_t{3}), UserError);
    // Array ops on non-arrays throw.
    EXPECT_THROW(Json(1).push(2), UserError);
    // Object ops on non-objects throw.
    EXPECT_THROW(Json(1).set("k", 2), UserError);
}

TEST(ObsJsonTest, EmptyMirrorsSize)
{
    EXPECT_TRUE(Json::array().empty());
    EXPECT_TRUE(Json::object().empty());
    Json arr = Json::array();
    arr.push(1);
    EXPECT_FALSE(arr.empty());
    Json obj = Json::object();
    obj.set("k", 1);
    EXPECT_FALSE(obj.empty());
    // Scalars have no emptiness, matching size().
    EXPECT_THROW(Json(1).empty(), UserError);
}

TEST(ObsJsonTest, DumpCompactAndPretty)
{
    Json obj = Json::object();
    obj.set("a", 1);
    obj.set("b", Json::array().push(true).push(nullptr));
    EXPECT_EQ(obj.dump(), "{\"a\":1,\"b\":[true,null]}");
    EXPECT_EQ(obj.dump(2),
              "{\n  \"a\": 1,\n  \"b\": [\n    true,\n    null\n  ]\n}");
    EXPECT_EQ(Json::object().dump(2), "{}");
    EXPECT_EQ(Json::array().dump(2), "[]");
}

TEST(ObsJsonTest, NonFiniteDoublesSerializeAsNull)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_EQ(Json(nan).dump(), "null");
    EXPECT_EQ(Json(inf).dump(), "null");
    EXPECT_EQ(Json(-inf).dump(), "null");
}

TEST(ObsJsonTest, NumberFormattingRoundTrips)
{
    // Shortest representation that survives strtod, same policy as
    // testing/golden: integers-as-doubles stay exact, and irrational
    // doubles keep every bit.
    for (const double value :
         {0.0, 1.0, -2.5, 1.0 / 3.0, 6.02214076e23, 1e-300,
          0.5311205102369209}) {
        const std::string text = formatDouble(value);
        EXPECT_EQ(std::strtod(text.c_str(), nullptr), value)
            << "formatDouble(" << value << ") = " << text;
    }
}

TEST(ObsJsonTest, StringEscapes)
{
    EXPECT_EQ(quoteJsonString("a\"b\\c\n\t"),
              "\"a\\\"b\\\\c\\n\\t\"");
    // Control characters below 0x20 become \u00XX.
    EXPECT_EQ(quoteJsonString(std::string(1, '\x01')), "\"\\u0001\"");
    const Json parsed = Json::parse("\"a\\\"b\\\\c\\n\\t\\u0041\"");
    EXPECT_EQ(parsed.asString(), "a\"b\\c\n\tA");
}

TEST(ObsJsonTest, ParseRoundTrip)
{
    const std::string text =
        "{\"schema_version\": 1, \"values\": [1.5, -2, true, null], "
        "\"nested\": {\"label\": \"dp8\"}}";
    const Json parsed = Json::parse(text);
    EXPECT_EQ(parsed.at("schema_version").asInt(), 1);
    EXPECT_EQ(parsed.at("values").size(), 4u);
    EXPECT_EQ(parsed.at("nested").at("label").asString(), "dp8");
    // dump -> parse -> dump is a fixpoint.
    const std::string once = parsed.dump(2);
    EXPECT_EQ(Json::parse(once).dump(2), once);
}

TEST(ObsJsonTest, ParseRejectsMalformedInput)
{
    EXPECT_THROW(Json::parse(""), UserError);
    EXPECT_THROW(Json::parse("{"), UserError);
    EXPECT_THROW(Json::parse("[1,]"), UserError);
    EXPECT_THROW(Json::parse("{\"a\":1 \"b\":2}"), UserError);
    EXPECT_THROW(Json::parse("nul"), UserError);
    EXPECT_THROW(Json::parse("1 2"), UserError);       // trailing junk
    EXPECT_THROW(Json::parse("'single'"), UserError);
    EXPECT_THROW(Json::parse("{\"a\":1,\"a\":2}"), UserError);
}

TEST(ObsJsonTest, AsIntOnAFractionNamesTheNumber)
{
    try {
        (void)Json(1.5).asInt();
        ADD_FAILURE() << "no UserError thrown";
    } catch (const UserError &error) {
        EXPECT_STREQ(error.what(), "json: number 1.5 is not an integer");
    }
}

TEST(ObsJsonTest, LargeUnsignedDegradesToDouble)
{
    // Values above int64 max cannot be represented exactly; the
    // constructor documents the degrade-to-double behavior.
    const std::uint64_t big =
        static_cast<std::uint64_t>(
            std::numeric_limits<std::int64_t>::max()) + 2u;
    const Json json(big);
    EXPECT_DOUBLE_EQ(json.asDouble(),
                     static_cast<double>(big));
    const Json small(std::uint64_t{17});
    EXPECT_EQ(small.asInt(), 17);
}

} // namespace
} // namespace obs
} // namespace amped
