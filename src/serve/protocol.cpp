#include "serve/protocol.hpp"

#include <cmath>

#include "common/error.hpp"

namespace amped {
namespace serve {

const char *
toString(Method method)
{
    switch (method) {
      case Method::ping:
        return "ping";
      case Method::eval:
        return "eval";
      case Method::sweep:
        return "sweep";
      case Method::optimize:
        return "optimize";
      case Method::report:
        return "report";
    }
    return "unknown";
}

namespace {

Method
methodFromName(const std::string &name)
{
    if (name == "ping")
        return Method::ping;
    if (name == "eval")
        return Method::eval;
    if (name == "sweep")
        return Method::sweep;
    if (name == "optimize")
        return Method::optimize;
    if (name == "report")
        return Method::report;
    throw UserError("unknown method '" + name +
                    "' (supported: ping, eval, sweep, optimize, "
                    "report)");
}

} // namespace

obs::Json
parseBody(const std::string &line, std::size_t max_bytes)
{
    require(line.size() <= max_bytes, "request body is ",
            line.size(), " bytes, exceeding the ", max_bytes,
            "-byte limit");
    const obs::Json body = obs::Json::parse(line);
    if (body.isObject())
        return body;
    require(body.isArray(),
            "request must be a JSON object (or an array of objects "
            "for a pipelined burst)");
    require(!body.items().empty(), "burst array must not be empty");
    for (std::size_t i = 0; i < body.items().size(); ++i)
        require(body.at(i).isObject(), "burst element ", i,
                " is not a JSON object");
    return body;
}

Request
requestFromJson(const obs::Json &doc)
{
    require(doc.isObject(), "request must be a JSON object");
    for (const auto &[key, value] : doc.members()) {
        require(key == "id" || key == "method" ||
                    key == "deadline_ms" || key == "params",
                "unknown request key '", key,
                "' (supported: id, method, deadline_ms, params)");
    }

    Request request;
    require(doc.contains("id"), "request is missing 'id'");
    require(doc.at("id").kind() == obs::Json::Kind::integer,
            "'id' must be an integer");
    request.id = doc.at("id").asInt();
    require(request.id >= 0, "'id' must be >= 0, got ", request.id);

    require(doc.contains("method"), "request is missing 'method'");
    require(doc.at("method").kind() == obs::Json::Kind::string,
            "'method' must be a string");
    request.method = methodFromName(doc.at("method").asString());

    if (doc.contains("deadline_ms")) {
        const auto &deadline = doc.at("deadline_ms");
        require(deadline.kind() == obs::Json::Kind::number ||
                    deadline.kind() == obs::Json::Kind::integer,
                "'deadline_ms' must be a number");
        const double ms = deadline.asDouble();
        if (!(std::isfinite(ms) && ms >= 0.0))
            fatal("'deadline_ms' must be >= 0, got ", deadline.dump());
        request.deadlineMs = ms;
    }

    if (doc.contains("params")) {
        require(doc.at("params").isObject(),
                "'params' must be a JSON object");
        request.params = doc.at("params");
    }
    return request;
}

std::optional<std::int64_t>
tryExtractId(const obs::Json &doc)
{
    if (!doc.isObject() || !doc.contains("id"))
        return std::nullopt;
    const auto &id = doc.at("id");
    if (id.kind() != obs::Json::Kind::integer || id.asInt() < 0)
        return std::nullopt;
    return id.asInt();
}

obs::Json
okResponse(std::int64_t id, RunStatus run_status, bool cached,
           obs::Json result)
{
    obs::Json response = obs::Json::object();
    response.set("schema_version", kServeSchemaVersion);
    response.set("id", id);
    response.set("status", "ok");
    response.set("run_status", toString(run_status));
    response.set("cached", cached);
    response.set("result", std::move(result));
    return response;
}

obs::Json
errorResponse(std::optional<std::int64_t> id,
              const std::string &status, const std::string &message)
{
    obs::Json response = obs::Json::object();
    response.set("schema_version", kServeSchemaVersion);
    response.set("id", id ? obs::Json(*id) : obs::Json(nullptr));
    response.set("status", status);
    obs::Json error = obs::Json::object();
    error.set("message", message);
    response.set("error", std::move(error));
    return response;
}

} // namespace serve
} // namespace amped
