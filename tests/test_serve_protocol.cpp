/**
 * @file
 * serve protocol + server tests: the table-driven bad-input matrix
 * (malformed JSON, duplicate keys, unknown methods, oversized
 * bodies, expired deadlines — every one must produce a structured
 * error response and leave the server alive), the pipelined-burst
 * admission semantics, the shared LRU cache, cancellation flushing
 * partial results, the TCP transport, and the byte-identical
 * transcript determinism contract the load-generator golden pins.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/keyval.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace amped {
namespace {

/** Server + private registry pair (the registry must outlive it). */
struct Harness
{
    explicit Harness(serve::ServerOptions options = {})
        : server((options.registry = &registry, options))
    {}

    obs::Json
    one(const std::string &line)
    {
        const std::string out = server.handleLine(line);
        EXPECT_EQ(out.find('\n'), std::string::npos) << out;
        return obs::Json::parse(out);
    }

    obs::MetricsRegistry registry;
    serve::Server server;
};

std::string
tinyEvalRequest(int id)
{
    return "{\"id\":" + std::to_string(id) +
           ",\"method\":\"eval\",\"params\":{\"model\":\"145b\","
           "\"nodes\":2,\"per-node\":2,\"batch\":512,"
           "\"tp-intra\":2,\"dp-inter\":2}}";
}

std::string
tinySweepRequest(int id, int top = 3)
{
    return "{\"id\":" + std::to_string(id) +
           ",\"method\":\"sweep\",\"params\":{\"model\":\"145b\","
           "\"nodes\":2,\"per-node\":2,\"batch\":512,\"top\":" +
           std::to_string(top) + "}}";
}

/** The result a fresh server gives for @p line. */
std::string
freshResult(const std::string &line)
{
    Harness fresh;
    const obs::Json response = fresh.one(line);
    EXPECT_FALSE(response.at("cached").asBool());
    return response.at("result").dump();
}

/** Entries in the whole ranking of a completed sweep result. */
std::int64_t
rankingLength(const obs::Json &result)
{
    return result.at("visited_points").asInt() -
           result.at("skipped").asInt() -
           result.at("memory_skipped").asInt();
}

// ---------------------------------------------------------------
// Table-driven bad input: every row must produce one structured
// response with the expected status and a diagnostic containing the
// expected fragment — and the server must still answer a ping
// afterwards (checked once after the whole table).

struct BadInputCase
{
    const char *name;
    const char *line;
    const char *status;   ///< Expected response status.
    const char *fragment; ///< Substring of error.message.
    bool idIsNull;        ///< True when the id cannot be echoed.
};

#define TINY_CLUSTER \
    "\"model\":\"tiny\",\"accel\":\"tiny\",\"nodes\":2,\"per-node\":4"

const BadInputCase kBadInputs[] = {
    {"malformed-json", "{\"id\":1,\"method\":", "error",
     "json", true},
    {"not-json-at-all", "hello there", "error", "json", true},
    {"duplicate-keys",
     "{\"id\":1,\"id\":2,\"method\":\"ping\"}", "error",
     "duplicate", true},
    {"duplicate-params-keys",
     "{\"id\":4,\"method\":\"ping\",\"params\":{\"a\":1,\"a\":2}}",
     "error", "duplicate", true},
    {"unknown-method", "{\"id\":9,\"method\":\"frobnicate\"}",
     "error", "unknown method 'frobnicate'", false},
    {"missing-method", "{\"id\":9}", "error", "missing 'method'",
     false},
    {"missing-id", "{\"method\":\"ping\"}", "error",
     "missing 'id'", true},
    {"negative-id", "{\"id\":-3,\"method\":\"ping\"}", "error",
     "'id' must be >= 0", true},
    {"negative-deadline",
     "{\"id\":5,\"method\":\"ping\",\"deadline_ms\":-1}", "error",
     "'deadline_ms' must be >= 0", false},
    {"unknown-envelope-key",
     "{\"id\":5,\"method\":\"ping\",\"extra\":1}", "error",
     "unknown request key 'extra'", false},
    {"unknown-params-key",
     "{\"id\":6,\"method\":\"eval\",\"params\":{\"warp\":9}}",
     "error", "unknown params key 'warp'", false},
    {"params-wrong-kind",
     "{\"id\":6,\"method\":\"eval\",\"params\":{\"nodes\":\"x\"}}",
     "error", "params.nodes must be an integer", false},
    {"params-not-object",
     "{\"id\":6,\"method\":\"eval\",\"params\":7}", "error",
     "'params' must be a JSON object", false},
    {"empty-burst", "[]", "error", "burst array must not be empty",
     true},
    {"burst-of-scalars", "[1,2]", "error", "not a JSON object",
     true},
    {"expired-deadline",
     "{\"id\":7,\"method\":\"sweep\",\"deadline_ms\":0}", "expired",
     "deadline expired before the request ran", false},
    // Range column of the field table: each value is a request error
    // naming the field, not an abort, a whole ranking or an answer
    // with every point skipped.
    {"sweep-top-minus-2",
     "{\"id\":8,\"method\":\"sweep\",\"params\":{" TINY_CLUSTER
     ",\"batch\":64,\"top\":-2}}",
     "error", "params.top must be >= 1, got -2", false},
    {"sweep-top-0",
     "{\"id\":8,\"method\":\"sweep\",\"params\":{" TINY_CLUSTER
     ",\"batch\":64,\"top\":0}}",
     "error", "params.top must be >= 1, got 0", false},
    {"sweep-top-minus-1",
     "{\"id\":8,\"method\":\"sweep\",\"params\":{" TINY_CLUSTER
     ",\"batch\":64,\"top\":-1}}",
     "error", "params.top must be >= 1, got -1", false},
    {"sweep-tokens-minus-1",
     "{\"id\":8,\"method\":\"sweep\",\"params\":{" TINY_CLUSTER
     ",\"batch\":64,\"tokens\":-1}}",
     "error", "params.tokens must be > 0, got -1", false},
    {"sweep-batch-minus-64",
     "{\"id\":8,\"method\":\"sweep\",\"params\":{" TINY_CLUSTER
     ",\"batch\":-64}}",
     "error", "params.batch must be > 0, got -64", false},
    {"sweep-microbatch-minus-3",
     "{\"id\":8,\"method\":\"sweep\",\"params\":{" TINY_CLUSTER
     ",\"batch\":64,\"microbatch\":-3}}",
     "error", "params.microbatch must be >= 0, got -3", false},
    {"optimize-top-minus-2",
     "{\"id\":8,\"method\":\"optimize\",\"params\":{" TINY_CLUSTER
     ",\"batch\":64,\"top\":-2}}",
     "error", "params.top must be >= 1, got -2", false},
    {"optimize-top-0",
     "{\"id\":8,\"method\":\"optimize\",\"params\":{" TINY_CLUSTER
     ",\"batch\":64,\"top\":0}}",
     "error", "params.top must be >= 1, got 0", false},
    {"optimize-top-minus-1",
     "{\"id\":8,\"method\":\"optimize\",\"params\":{" TINY_CLUSTER
     ",\"batch\":64,\"top\":-1}}",
     "error", "params.top must be >= 1, got -1", false},
    {"optimize-tokens-minus-1",
     "{\"id\":8,\"method\":\"optimize\",\"params\":{" TINY_CLUSTER
     ",\"batch\":64,\"tokens\":-1}}",
     "error", "params.tokens must be > 0, got -1", false},
    {"optimize-batch-minus-64",
     "{\"id\":8,\"method\":\"optimize\",\"params\":{" TINY_CLUSTER
     ",\"batch\":-64}}",
     "error", "params.batch must be > 0, got -64", false},
    {"optimize-microbatch-minus-3",
     "{\"id\":8,\"method\":\"optimize\",\"params\":{" TINY_CLUSTER
     ",\"batch\":64,\"microbatch\":-3}}",
     "error", "params.microbatch must be >= 0, got -3", false},
    // A bad cluster size names the request field, not the model's
    // numNodes, and nics < 0 no longer reads as "one per device".
    {"eval-nics-minus-5",
     "{\"id\":8,\"method\":\"eval\",\"params\":{" TINY_CLUSTER
     ",\"batch\":64,\"tp-intra\":4,\"dp-inter\":2,\"nics\":-5}}",
     "error", "params.nics must be >= 0, got -5", false},
    {"eval-nodes-0",
     "{\"id\":8,\"method\":\"eval\",\"params\":{\"model\":\"tiny\","
     "\"accel\":\"tiny\",\"nodes\":0,\"per-node\":4,\"batch\":64}}",
     "error", "params.nodes must be >= 1, got 0", false},
    {"eval-per-node-0",
     "{\"id\":8,\"method\":\"eval\",\"params\":{\"model\":\"tiny\","
     "\"accel\":\"tiny\",\"nodes\":2,\"per-node\":0,\"batch\":64}}",
     "error", "params.per-node must be >= 1, got 0", false},
    {"sweep-nics-minus-5",
     "{\"id\":8,\"method\":\"sweep\",\"params\":{" TINY_CLUSTER
     ",\"batch\":64,\"nics\":-5}}",
     "error", "params.nics must be >= 0, got -5", false},
    {"sweep-nodes-0",
     "{\"id\":8,\"method\":\"sweep\",\"params\":{\"model\":\"tiny\","
     "\"accel\":\"tiny\",\"nodes\":0,\"per-node\":4,\"batch\":64}}",
     "error", "params.nodes must be >= 1, got 0", false},
    {"sweep-per-node-0",
     "{\"id\":8,\"method\":\"sweep\",\"params\":{\"model\":\"tiny\","
     "\"accel\":\"tiny\",\"nodes\":2,\"per-node\":0,\"batch\":64}}",
     "error", "params.per-node must be >= 1, got 0", false},
};

#undef TINY_CLUSTER

TEST(ServeProtocolTest, BadInputsReturnStructuredErrors)
{
    Harness harness;
    for (const auto &row : kBadInputs) {
        SCOPED_TRACE(row.name);
        const obs::Json response = harness.one(row.line);
        EXPECT_EQ(response.at("schema_version").asInt(),
                  serve::kServeSchemaVersion);
        EXPECT_EQ(response.at("status").asString(), row.status);
        if (row.idIsNull) {
            EXPECT_EQ(response.at("id").kind(),
                      obs::Json::Kind::null);
        } else {
            EXPECT_NE(response.at("id").kind(),
                      obs::Json::Kind::null);
        }
        const std::string message =
            response.at("error").at("message").asString();
        EXPECT_NE(message.find(row.fragment), std::string::npos)
            << "message was: " << message;
    }
    // The server survived the whole table.
    const obs::Json pong = harness.one("{\"id\":99,\"method\":"
                                       "\"ping\"}");
    EXPECT_EQ(pong.at("status").asString(), "ok");
    EXPECT_TRUE(
        pong.at("result").at("pong").asBool());
}

TEST(ServeProtocolTest, OversizedBodyRejectedWithoutDying)
{
    serve::ServerOptions options;
    options.maxRequestBytes = 128;
    Harness harness(options);

    std::string big = "{\"id\":1,\"method\":\"ping\",\"params\":{"
                      "\"model\":\"";
    big.append(200, 'x');
    big += "\"}}";
    const obs::Json response = harness.one(big);
    EXPECT_EQ(response.at("status").asString(), "error");
    const std::string message =
        response.at("error").at("message").asString();
    EXPECT_NE(message.find("exceeding the 128-byte limit"),
              std::string::npos)
        << message;

    EXPECT_EQ(harness.one("{\"id\":2,\"method\":\"ping\"}")
                  .at("status")
                  .asString(),
              "ok");
}

TEST(ServeProtocolTest, FieldNamedDiagnosticsFromConfigIo)
{
    Harness harness;
    const obs::Json response = harness.one(
        "{\"id\":1,\"method\":\"eval\",\"params\":{\"system\":"
        "{\"nodes\":2,\"per-node\":2,\"warp\":9}}}");
    EXPECT_EQ(response.at("status").asString(), "error");
    const std::string message =
        response.at("error").at("message").asString();
    EXPECT_NE(message.find("params.system"), std::string::npos)
        << message;
    EXPECT_NE(message.find("warp"), std::string::npos) << message;
}

TEST(ServeProtocolTest, BlankLinesProduceNoResponse)
{
    Harness harness;
    EXPECT_EQ(harness.server.handleLine(""), "");
    EXPECT_EQ(harness.server.handleLine("   \t "), "");
}

// ---------------------------------------------------------------
// Bursts and admission control.

TEST(ServeProtocolTest, BurstAnswersInOrderWithEchoedIds)
{
    Harness harness;
    const std::string out = harness.server.handleLine(
        "[{\"id\":3,\"method\":\"ping\"},"
        "{\"id\":1,\"method\":\"ping\"},"
        "{\"id\":2,\"method\":\"frobnicate\"}]");
    std::istringstream lines(out);
    std::string line;
    std::vector<obs::Json> responses;
    while (std::getline(lines, line))
        responses.push_back(obs::Json::parse(line));
    ASSERT_EQ(responses.size(), 3u);
    EXPECT_EQ(responses[0].at("id").asInt(), 3);
    EXPECT_EQ(responses[0].at("status").asString(), "ok");
    EXPECT_EQ(responses[1].at("id").asInt(), 1);
    EXPECT_EQ(responses[1].at("status").asString(), "ok");
    EXPECT_EQ(responses[2].at("id").asInt(), 2);
    EXPECT_EQ(responses[2].at("status").asString(), "error");
}

TEST(ServeProtocolTest, BurstBeyondCapacityIsRejectedDeterministically)
{
    serve::ServerOptions options;
    options.queueCapacity = 2;
    Harness harness(options);

    const std::string out = harness.server.handleLine(
        "[{\"id\":0,\"method\":\"ping\"},"
        "{\"id\":1,\"method\":\"ping\"},"
        "{\"id\":2,\"method\":\"ping\"},"
        "{\"id\":3,\"method\":\"ping\"}]");
    std::istringstream lines(out);
    std::string line;
    std::vector<std::string> statuses;
    while (std::getline(lines, line))
        statuses.push_back(
            obs::Json::parse(line).at("status").asString());
    ASSERT_EQ(statuses.size(), 4u);
    EXPECT_EQ(statuses[0], "ok");
    EXPECT_EQ(statuses[1], "ok");
    EXPECT_EQ(statuses[2], "rejected");
    EXPECT_EQ(statuses[3], "rejected");
}

TEST(ServeProtocolTest, ShedOldestDropsTheEarliestQueuedRequest)
{
    serve::ServerOptions options;
    options.queueCapacity = 2;
    options.overloadPolicy = OverloadPolicy::shedOldest;
    Harness harness(options);

    const std::string out = harness.server.handleLine(
        "[{\"id\":0,\"method\":\"ping\"},"
        "{\"id\":1,\"method\":\"ping\"},"
        "{\"id\":2,\"method\":\"ping\"}]");
    std::istringstream lines(out);
    std::string line;
    std::vector<obs::Json> responses;
    while (std::getline(lines, line))
        responses.push_back(obs::Json::parse(line));
    ASSERT_EQ(responses.size(), 3u);
    EXPECT_EQ(responses[0].at("status").asString(), "shed");
    EXPECT_EQ(responses[1].at("status").asString(), "ok");
    EXPECT_EQ(responses[2].at("status").asString(), "ok");
}

// ---------------------------------------------------------------
// Evaluation, cache, and cancellation.

TEST(ServeProtocolTest, SweepRepeatHitsTheSharedCache)
{
    Harness harness;
    const obs::Json first = harness.one(tinySweepRequest(1));
    ASSERT_EQ(first.at("status").asString(), "ok");
    EXPECT_FALSE(first.at("cached").asBool());

    const obs::Json second = harness.one(tinySweepRequest(2));
    ASSERT_EQ(second.at("status").asString(), "ok");
    EXPECT_TRUE(second.at("cached").asBool());

    // Identical results either way, and the counters agree.
    EXPECT_EQ(first.at("result").dump(), second.at("result").dump());
    EXPECT_EQ(harness.registry.counter("serve.cache.hits").value(),
              1u);
    EXPECT_EQ(
        harness.registry.counter("serve.cache.misses").value(), 1u);
    EXPECT_EQ(harness.server.cache().size(), 1u);
}

TEST(ServeProtocolTest, SmallerTopIsServedFromACachedLargerOne)
{
    Harness harness;
    const obs::Json first = harness.one(tinySweepRequest(1, 3));
    ASSERT_EQ(first.at("status").asString(), "ok");
    // The top 3 is a cut of a longer ranking.
    ASSERT_GT(rankingLength(first.at("result")), 3);

    const obs::Json smaller = harness.one(tinySweepRequest(2, 2));
    ASSERT_EQ(smaller.at("status").asString(), "ok");
    EXPECT_TRUE(smaller.at("cached").asBool());
    EXPECT_EQ(smaller.at("result").at("entries").size(), 2u);
    EXPECT_EQ(smaller.at("result").dump(),
              freshResult(tinySweepRequest(2, 2)));
    EXPECT_EQ(harness.registry.counter("serve.cache.hits").value(),
              1u);
    EXPECT_EQ(
        harness.registry.counter("serve.cache.misses").value(), 1u);
}

TEST(ServeProtocolTest, LargerTopMissesAndReplacesTheCachedCut)
{
    Harness harness;
    ASSERT_EQ(harness.one(tinySweepRequest(1, 2)).at("status")
                  .asString(),
              "ok");

    // A top-2 cut cannot answer a top 3: a miss, evaluated afresh.
    const obs::Json larger = harness.one(tinySweepRequest(2, 3));
    ASSERT_EQ(larger.at("status").asString(), "ok");
    EXPECT_FALSE(larger.at("cached").asBool());
    EXPECT_EQ(larger.at("result").dump(),
              freshResult(tinySweepRequest(2, 3)));
    EXPECT_EQ(harness.registry.counter("serve.cache.hits").value(),
              0u);
    EXPECT_EQ(
        harness.registry.counter("serve.cache.misses").value(), 2u);

    // The top-3 answer replaced the top-2 one and answers both.
    EXPECT_EQ(harness.server.cache().size(), 1u);
    EXPECT_TRUE(
        harness.one(tinySweepRequest(3, 2)).at("cached").asBool());
    EXPECT_TRUE(
        harness.one(tinySweepRequest(4, 3)).at("cached").asBool());
}

TEST(ServeProtocolTest, WholeRankingAnswersAnyLargerTop)
{
    Harness harness;
    const obs::Json first = harness.one(tinySweepRequest(1, 50));
    ASSERT_EQ(first.at("status").asString(), "ok");
    const obs::Json &result = first.at("result");
    // The grid ranks fewer than 50 points, so this is all of them.
    ASSERT_LT(rankingLength(result), 50);
    ASSERT_EQ(static_cast<std::int64_t>(result.at("entries").size()),
              rankingLength(result));

    const obs::Json larger = harness.one(tinySweepRequest(2, 1000));
    ASSERT_EQ(larger.at("status").asString(), "ok");
    EXPECT_TRUE(larger.at("cached").asBool());
    EXPECT_EQ(larger.at("result").dump(), result.dump());
    EXPECT_EQ(larger.at("result").dump(),
              freshResult(tinySweepRequest(2, 1000)));
}

TEST(ServeProtocolTest, NegativeDeadlineMessageNamesTheValue)
{
    Harness harness;
    const obs::Json response = harness.one(
        "{\"id\":5,\"method\":\"ping\",\"deadline_ms\":-2.5}");
    EXPECT_EQ(response.at("status").asString(), "error");
    EXPECT_EQ(response.at("error").at("message").asString(),
              "'deadline_ms' must be >= 0, got -2.5");
}

TEST(ServeProtocolTest, EvalMatchesDirectModelPrediction)
{
    Harness harness;
    const obs::Json response = harness.one(tinyEvalRequest(11));
    ASSERT_EQ(response.at("status").asString(), "ok");
    EXPECT_EQ(response.at("run_status").asString(), "completed");
    const auto &analytical =
        response.at("result").at("analytical");
    EXPECT_GT(analytical.at("time_per_batch_seconds").asDouble(),
              0.0);
    EXPECT_GT(analytical.at("tokens_per_second").asDouble(), 0.0);
}

TEST(ServeProtocolTest, CancelledSweepFlushesPartialResult)
{
    Harness harness;
    CancelToken root = CancelToken::make();
    harness.server.setCancelToken(root);
    root.cancel();

    // The root token is already cancelled, so the sweep stops at
    // its first checkpoint.
    const obs::Json response = harness.one(
        "{\"id\":21,\"method\":\"sweep\",\"params\":{\"model\":"
        "\"145b\",\"nodes\":2,\"per-node\":2,\"batch\":640,"
        "\"top\":3}}");
    ASSERT_EQ(response.at("status").asString(), "ok");
    EXPECT_EQ(response.at("run_status").asString(), "cancelled");
    // A cancelled sweep is never cached: repeating it after the
    // token recovers must re-evaluate (miss), not replay the stub.
    EXPECT_EQ(harness.server.cache().size(), 0u);
}

TEST(ServeProtocolTest, ReportCarriesSchemaV3AndServeMetrics)
{
    Harness harness;
    (void)harness.one(tinyEvalRequest(1));
    const obs::Json response = harness.one(
        "{\"id\":2,\"method\":\"report\",\"params\":{\"model\":"
        "\"145b\",\"nodes\":2,\"per-node\":2,\"batch\":512,"
        "\"tp-intra\":2,\"dp-inter\":2}}");
    ASSERT_EQ(response.at("status").asString(), "ok");
    const auto &report = response.at("result").at("report");
    EXPECT_EQ(report.at("schema_version").asInt(), 3);
    const auto &metrics = report.at("metrics");
    EXPECT_TRUE(metrics.contains("serve.cache.hits"));
    EXPECT_TRUE(metrics.contains("serve.cache.misses"));
    EXPECT_TRUE(metrics.contains("serve.cache.evicted_bytes"));
    EXPECT_TRUE(metrics.contains(
        "serve.request.latency_seconds.count"));
    // The eval + this report were both measured by the latency
    // histogram before the snapshot was taken... the report itself
    // is still in flight, so exactly one completed request counts.
    EXPECT_EQ(metrics.at("serve.request.latency_seconds.count")
                  .asInt(),
              1);
}

// ---------------------------------------------------------------
// serveStream and determinism.

TEST(ServeProtocolTest, ServeStreamEchoesOneLinePerRequest)
{
    Harness harness;
    std::istringstream in("{\"id\":1,\"method\":\"ping\"}\n"
                          "\n"
                          "{\"id\":2,\"method\":\"ping\"}\n");
    std::ostringstream out;
    EXPECT_EQ(harness.server.serveStream(in, out),
              RunStatus::Completed);
    std::istringstream lines(out.str());
    std::string line;
    int count = 0;
    while (std::getline(lines, line)) {
        const obs::Json response = obs::Json::parse(line);
        EXPECT_EQ(response.at("status").asString(), "ok");
        ++count;
    }
    EXPECT_EQ(count, 2);
}

TEST(ServeProtocolTest, ServeStreamStopsWhenTokenTrips)
{
    Harness harness;
    CancelToken root = CancelToken::make();
    harness.server.setCancelToken(root);
    root.cancel();
    std::istringstream in("{\"id\":1,\"method\":\"ping\"}\n");
    std::ostringstream out;
    EXPECT_EQ(harness.server.serveStream(in, out),
              RunStatus::Cancelled);
    EXPECT_TRUE(out.str().empty());
}

TEST(ServeProtocolTest, TranscriptIsByteIdenticalAcrossServers)
{
    const std::vector<std::string> traffic = {
        "{\"id\":1,\"method\":\"ping\"}",
        tinySweepRequest(2),
        tinyEvalRequest(3),
        tinySweepRequest(4), // cache hit
        "{\"id\":5,\"method\":\"frobnicate\"}",
    };
    auto run = [&traffic](unsigned threads) {
        obs::MetricsRegistry registry;
        serve::ServerOptions options;
        options.threads = threads;
        options.registry = &registry;
        serve::Server server(options);
        std::string transcript;
        for (const auto &line : traffic) {
            transcript += server.handleLine(line);
            transcript += '\n';
        }
        return transcript;
    };
    const std::string serial = run(1);
    const std::string parallel = run(4);
    EXPECT_EQ(serial, parallel);
}

// ---------------------------------------------------------------
// Options parsing.

TEST(ServeProtocolTest, OptionsFromConfigParsesEveryKey)
{
    const auto config = KeyValueConfig::fromString(
        "threads = 2\n"
        "queue-capacity = 4\n"
        "overload-policy = shed-oldest\n"
        "max-attempts = 3\n"
        "default-deadline-ms = 250\n"
        "max-request-bytes = 4096\n"
        "cache-budget-bytes = 65536\n"
        "max-grid-points = 1000\n"
        "report-dir = /tmp/reports\n");
    const auto options = serve::optionsFromConfig(config);
    EXPECT_EQ(options.threads, 2u);
    EXPECT_EQ(options.queueCapacity, 4u);
    EXPECT_EQ(options.overloadPolicy, OverloadPolicy::shedOldest);
    EXPECT_EQ(options.maxAttempts, 3u);
    EXPECT_DOUBLE_EQ(options.defaultDeadlineMs, 250.0);
    EXPECT_EQ(options.maxRequestBytes, 4096u);
    EXPECT_EQ(options.cacheBudgetBytes, 65536u);
    EXPECT_EQ(options.maxGridPoints, 1000u);
    EXPECT_EQ(options.reportDir, "/tmp/reports");
}

TEST(ServeProtocolTest, OptionsFromConfigRejectsBadValues)
{
    EXPECT_THROW(serve::optionsFromConfig(
                     KeyValueConfig::fromString("typo-key = 1\n")),
                 UserError);
    EXPECT_THROW(
        serve::optionsFromConfig(KeyValueConfig::fromString(
            "overload-policy = drop-everything\n")),
        UserError);
    EXPECT_THROW(serve::optionsFromConfig(KeyValueConfig::fromString(
                     "queue-capacity = 0\n")),
                 UserError);
}

// ---------------------------------------------------------------
// SweepCacheLru unit behavior.

TEST(ServeProtocolTest, SweepCacheEvictsLeastRecentlyUsedByBytes)
{
    obs::MetricsRegistry registry;
    serve::SweepCacheLru cache(/*budget_bytes=*/48, &registry);

    cache.put("a", std::string(20, 'x')); // 21 bytes
    cache.put("b", std::string(20, 'y')); // 21 bytes
    EXPECT_EQ(cache.size(), 2u);

    // Refresh "a" so "b" is the LRU victim when "c" arrives.
    EXPECT_TRUE(cache.get("a").has_value());
    cache.put("c", std::string(20, 'z'));
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_TRUE(cache.get("a").has_value());
    EXPECT_FALSE(cache.get("b").has_value());
    EXPECT_TRUE(cache.get("c").has_value());

    EXPECT_EQ(registry.counter("serve.cache.evictions").value(),
              1u);
    EXPECT_EQ(
        registry.counter("serve.cache.evicted_bytes").value(), 21u);
    EXPECT_LE(cache.bytes(), cache.budgetBytes());

    // An entry larger than the whole budget is a no-op.
    cache.put("huge", std::string(100, 'h'));
    EXPECT_FALSE(cache.get("huge").has_value());
}

// ---------------------------------------------------------------
// TCP transport.

TEST(ServeProtocolTest, TcpRoundTripAndShutdown)
{
    Harness harness;
    CancelToken root = CancelToken::make();
    harness.server.setCancelToken(root);

    std::thread service([&] {
        harness.server.serveTcp(/*port=*/0);
    });
    std::uint16_t port = 0;
    for (int i = 0; i < 200 && port == 0; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        port = harness.server.boundPort();
    }
    ASSERT_NE(port, 0) << "server never bound";

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    const std::string request = "{\"id\":1,\"method\":\"ping\"}\n";
    ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
              static_cast<ssize_t>(request.size()));
    std::string response;
    char chunk[512];
    while (response.find('\n') == std::string::npos) {
        const ssize_t got = ::read(fd, chunk, sizeof(chunk));
        ASSERT_GT(got, 0);
        response.append(chunk, static_cast<std::size_t>(got));
    }
    ::close(fd);

    const obs::Json parsed =
        obs::Json::parse(response.substr(0, response.find('\n')));
    EXPECT_EQ(parsed.at("status").asString(), "ok");
    EXPECT_TRUE(parsed.at("result").at("pong").asBool());

    root.cancel();
    service.join();
    EXPECT_EQ(harness.server.boundPort(), 0);
}

} // namespace
} // namespace amped
