/**
 * @file
 * The request path both front ends share (serve/request.hpp): table
 * defaults, the CLI's flags and serve's JSON reading into the same
 * request, and the `--batches` list parser.  Range and kind
 * diagnostics are rows of test_serve_protocol.cpp's kBadInputs and
 * CLI exit-code ctests.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/arg_parser.hpp"
#include "common/error.hpp"
#include "obs/json.hpp"
#include "serve/request.hpp"

namespace amped {
namespace {

using serve::FieldId;

/** The message of the UserError @p run throws ("" if none). */
template <typename Run>
std::string
userErrorOf(Run run)
{
    try {
        run();
    } catch (const UserError &error) {
        return error.what();
    }
    return "";
}

/** The params object a command line gives through the table. */
obs::Json
flagParams(serve::FieldSet fields, const std::vector<std::string> &args)
{
    ArgParser parser;
    serve::addFieldOptions(parser, fields);
    parser.parse(args);
    return serve::paramsFromFlags(parser, fields);
}

TEST(ServeRequestTest, DefaultsComeFromTheTable)
{
    const obs::Json empty = obs::Json::object();
    const serve::Params explore(empty, serve::kExploreFields,
                                "--");
    EXPECT_EQ(explore.text(FieldId::model), "145b");
    EXPECT_EQ(explore.integer(FieldId::nodes), 128);
    EXPECT_EQ(explore.number(FieldId::tokens), 300e9);
    EXPECT_EQ(explore.number(FieldId::microbatch), 0.0);
    EXPECT_EQ(explore.integer(FieldId::sweepTop), 10);
    EXPECT_FALSE(explore.flag(FieldId::sweepMemoryCheck));
    EXPECT_FALSE(explore.has(FieldId::batches));

    const serve::Params optimize(empty, serve::kOptimizeFields,
                                 "--");
    EXPECT_EQ(optimize.integer(FieldId::optimizeTop), 5);
    EXPECT_EQ(serve::batchesFrom(optimize), std::vector<double>{8192.0});
}

TEST(ServeRequestTest, FlagsAndJsonGiveTheSameRequest)
{
    const obs::Json from_flags = flagParams(
        serve::kOptimizeFields,
        {"--model", "tiny", "--accel", "tiny", "--nodes", "2",
         "--per-node", "4", "--batches", "64, 128", "--top", "3",
         "--memory-check"});
    const obs::Json from_json = obs::Json::parse(
        "{\"model\":\"tiny\",\"accel\":\"tiny\",\"nodes\":2,"
        "\"per-node\":4,\"batches\":[64,128],\"top\":3,"
        "\"memory-check\":true}");

    const serve::Params cli(from_flags, serve::kOptimizeFields,
                            "--");
    const serve::Params json(from_json,
                             serve::methodFields(serve::Method::optimize),
                             "params.");
    EXPECT_EQ(serve::batchesFrom(cli), serve::batchesFrom(json));

    const auto a = serve::runOptimize(cli, {}, 1, {}, 0);
    const auto b = serve::runOptimize(json, {}, 1, {}, 0);
    ASSERT_EQ(a.topK.size(), 3u);
    ASSERT_EQ(a.topK.size(), b.topK.size());
    for (std::size_t i = 0; i < a.topK.size(); ++i) {
        EXPECT_EQ(a.topK[i].mapping.toString(),
                  b.topK[i].mapping.toString());
        EXPECT_EQ(a.topK[i].result.totalTime,
                  b.topK[i].result.totalTime);
    }
}

TEST(ServeRequestTest, BatchListKeepsItsMessages)
{
    for (const char *list : {"64,abc", "64,", "1e999", "-64", "nan"}) {
        SCOPED_TRACE(list);
        const std::string message = userErrorOf([&] {
            flagParams(serve::kOptimizeFields, {"--batches", list});
        });
        EXPECT_NE(message.find("--batches entry '"), std::string::npos)
            << message;
        EXPECT_NE(message.find("' is not a positive number"),
                  std::string::npos)
            << message;
    }
    // An empty list means "just --batch", as before.
    EXPECT_FALSE(flagParams(serve::kOptimizeFields, {"--batches", ""})
                     .contains("batches"));
}

} // namespace
} // namespace amped
