#include "serve/server.hpp"

#include <algorithm>
#include <cctype>
#include <istream>
#include <ostream>
#include <vector>

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/error.hpp"
#include "common/log.hpp"
#include "obs/run_report.hpp"
#include "serve/request.hpp"

namespace amped {
namespace serve {

namespace {

obs::Json
entryJson(const explore::SweepEntry &entry)
{
    const auto &r = entry.result;
    obs::Json out = obs::Json::object();
    out.set("mapping", entry.mapping.toString());
    out.set("tp", entry.mapping.tp());
    out.set("pp", entry.mapping.pp());
    out.set("dp", entry.mapping.dp());
    out.set("batch", entry.batchSize);
    out.set("microbatch", r.microbatchSize);
    out.set("efficiency", r.efficiency);
    out.set("seconds_per_batch", r.timePerBatch);
    out.set("total_seconds", r.totalTime);
    out.set("training_days", r.trainingDays());
    return out;
}

obs::Json
entriesJson(const std::vector<explore::SweepEntry> &entries)
{
    obs::Json out = obs::Json::array();
    for (const auto &entry : entries)
        out.push(entryJson(entry));
    return out;
}

/**
 * Canonical serialization for cache keys: object members sorted by
 * key at every level, so two logically identical params objects with
 * different insertion orders share one cache entry.  The top-level
 * member named @p skip (if any) is left out.
 */
void
canonicalDumpTo(const obs::Json &value, std::string &out,
                const char *skip = nullptr)
{
    if (value.isObject()) {
        std::vector<const std::pair<std::string, obs::Json> *> members;
        for (const auto &member : value.members())
            if (skip == nullptr || member.first != skip)
                members.push_back(&member);
        std::sort(members.begin(), members.end(),
                  [](const auto *a, const auto *b) {
                      return a->first < b->first;
                  });
        out.push_back('{');
        for (std::size_t i = 0; i < members.size(); ++i) {
            if (i != 0)
                out.push_back(',');
            out += obs::Json(members[i]->first).dump();
            out.push_back(':');
            canonicalDumpTo(members[i]->second, out);
        }
        out.push_back('}');
        return;
    }
    if (value.isArray()) {
        out.push_back('[');
        for (std::size_t i = 0; i < value.items().size(); ++i) {
            if (i != 0)
                out.push_back(',');
            canonicalDumpTo(value.at(i), out);
        }
        out.push_back(']');
        return;
    }
    out += value.dump();
}

/** The cache key of (method, params), without params member @p skip. */
std::string
cacheKey(Method method, const obs::Json &params,
         const char *skip = nullptr)
{
    std::string key = toString(method);
    key.push_back('|');
    canonicalDumpTo(params, key, skip);
    return key;
}

/**
 * A cached sweep result cut to its first @p top entries; the result
 * itself when it holds no more than that.
 */
obs::Json
firstEntries(obs::Json cached, std::size_t top)
{
    if (cached.at("entries").size() <= top)
        return cached;
    obs::Json out = obs::Json::object();
    for (const auto &[name, value] : cached.members()) {
        if (name != "entries") {
            out.set(name, value);
            continue;
        }
        obs::Json kept = obs::Json::array();
        for (std::size_t i = 0; i < top; ++i)
            kept.push(value.at(i));
        out.set(name, std::move(kept));
    }
    return out;
}

bool
isBlank(const std::string &line)
{
    return std::all_of(line.begin(), line.end(), [](char c) {
        return std::isspace(static_cast<unsigned char>(c)) != 0;
    });
}

} // namespace

ServerOptions
optionsFromConfig(const KeyValueConfig &config)
{
    config.requireOnly({"threads", "queue-capacity",
                        "overload-policy", "max-attempts",
                        "default-deadline-ms", "max-request-bytes",
                        "cache-budget-bytes", "max-grid-points",
                        "report-dir"});
    ServerOptions options;
    const std::int64_t threads = config.getInt("threads", 0);
    require(threads >= 0, "threads must be >= 0, got ", threads);
    options.threads = static_cast<unsigned>(threads);

    const std::int64_t capacity =
        config.getInt("queue-capacity",
                      static_cast<std::int64_t>(
                          options.queueCapacity));
    require(capacity >= 1, "queue-capacity must be >= 1, got ",
            capacity);
    options.queueCapacity = static_cast<std::size_t>(capacity);

    const std::string policy =
        config.getString("overload-policy", "reject-newest");
    if (policy == "reject-newest") {
        options.overloadPolicy = OverloadPolicy::rejectNewest;
    } else if (policy == "shed-oldest") {
        options.overloadPolicy = OverloadPolicy::shedOldest;
    } else {
        throw UserError("overload-policy must be reject-newest or "
                        "shed-oldest, got '" + policy + "'");
    }

    const std::int64_t attempts = config.getInt("max-attempts", 1);
    require(attempts >= 1, "max-attempts must be >= 1, got ",
            attempts);
    options.maxAttempts = static_cast<unsigned>(attempts);

    options.defaultDeadlineMs =
        config.getDouble("default-deadline-ms", 0.0);
    require(options.defaultDeadlineMs >= 0.0,
            "default-deadline-ms must be >= 0, got ",
            options.defaultDeadlineMs);

    const std::int64_t max_bytes =
        config.getInt("max-request-bytes",
                      static_cast<std::int64_t>(
                          options.maxRequestBytes));
    require(max_bytes >= 1, "max-request-bytes must be >= 1, got ",
            max_bytes);
    options.maxRequestBytes = static_cast<std::size_t>(max_bytes);

    const std::int64_t cache_bytes =
        config.getInt("cache-budget-bytes",
                      static_cast<std::int64_t>(
                          options.cacheBudgetBytes));
    require(cache_bytes >= 0,
            "cache-budget-bytes must be >= 0, got ", cache_bytes);
    options.cacheBudgetBytes =
        static_cast<std::size_t>(cache_bytes);

    const std::int64_t grid_points =
        config.getInt("max-grid-points",
                      static_cast<std::int64_t>(
                          options.maxGridPoints));
    require(grid_points >= 0,
            "max-grid-points must be >= 0, got ", grid_points);
    options.maxGridPoints = static_cast<std::size_t>(grid_points);

    options.reportDir = config.getString("report-dir", "");
    return options;
}

namespace {

WorkQueueOptions
queueOptionsFrom(const ServerOptions &options)
{
    WorkQueueOptions queue;
    queue.capacity = options.queueCapacity;
    queue.policy = options.overloadPolicy;
    queue.maxAttempts = options.maxAttempts;
    queue.registry = options.registry;
    return queue;
}

obs::MetricsRegistry &
registryFrom(const ServerOptions &options)
{
    return options.registry != nullptr
               ? *options.registry
               : obs::MetricsRegistry::global();
}

} // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      registry_(registryFrom(options_)),
      queue_(queueOptionsFrom(options_)),
      cache_(options_.cacheBudgetBytes, &registry_),
      requestsCounter_(registry_.counter("serve.requests")),
      okCounter_(registry_.counter("serve.responses.ok")),
      errorCounter_(registry_.counter("serve.responses.error")),
      droppedCounter_(registry_.counter("serve.responses.dropped")),
      latencyHistogram_(registry_.histogram(
          "serve.request.latency_seconds", /*timing=*/true))
{
    obs::registerServeMetrics(registry_);
}

void
Server::setCancelToken(CancelToken token)
{
    SerialSection section(serial_);
    rootToken_ = std::move(token);
}

Deadline
Server::deadlineFor(const Request &request) const
{
    if (request.deadlineMs >= 0.0)
        return Deadline::after(request.deadlineMs / 1000.0);
    if (options_.defaultDeadlineMs > 0.0)
        return Deadline::after(options_.defaultDeadlineMs / 1000.0);
    return Deadline::never();
}

obs::Json
Server::runRequest(const Request &request, const CancelToken &token)
{
    const Params params(request.params, methodFields(request.method),
                        "params.");
    switch (request.method) {
      case Method::ping: {
        obs::Json result = obs::Json::object();
        result.set("pong", true);
        return okResponse(request.id, RunStatus::Completed,
                          /*cached=*/false, std::move(result));
      }

      case Method::eval: {
        const auto model = modelFrom(params);
        const auto job = jobFrom(params);
        const auto mapping = mappingFrom(params);
        const auto evaluation = model.evaluate(mapping, job);
        obs::Json result = obs::Json::object();
        result.set("mapping", mapping.toString());
        result.set("analytical", obs::analyticalJson(evaluation));
        return okResponse(request.id, RunStatus::Completed,
                          /*cached=*/false, std::move(result));
      }

      case Method::sweep: {
        const auto top = static_cast<std::size_t>(
            params.integer(FieldId::sweepTop));
        // Keyed without "top": one cached ranking answers every top
        // it covers (SweepCacheLru), cut to the first `top` entries.
        const std::string key =
            cacheKey(request.method, request.params, "top");
        if (const auto hit = cache_.get(key, top)) {
            return okResponse(request.id, RunStatus::Completed,
                              /*cached=*/true,
                              firstEntries(obs::Json::parse(*hit),
                                           top));
        }
        const auto ranked = runSweep(params, {}, options_.threads,
                                     token, options_.maxGridPoints);
        const auto &sweep = ranked.sweep;

        obs::Json result = obs::Json::object();
        result.set("entries", entriesJson(sweep.entries));
        result.set("skipped",
                   static_cast<std::int64_t>(sweep.skipped));
        result.set("memory_skipped",
                   static_cast<std::int64_t>(sweep.memorySkipped));
        result.set("failed",
                   static_cast<std::int64_t>(sweep.failed));
        result.set("visited_points",
                   static_cast<std::int64_t>(sweep.visitedPoints));
        result.set("cancelled_unvisited",
                   static_cast<std::int64_t>(
                       sweep.cancelledUnvisited));
        if (sweep.status == RunStatus::Completed)
            cache_.put(key, result.dump(),
                       ranked.cut() ? top : SweepCacheLru::kAnyTop);
        return okResponse(request.id, sweep.status,
                          /*cached=*/false, std::move(result));
      }

      case Method::optimize: {
        const std::string key = cacheKey(request.method,
                                         request.params);
        if (const auto hit = cache_.get(key)) {
            return okResponse(request.id, RunStatus::Completed,
                              /*cached=*/true,
                              obs::Json::parse(*hit));
        }
        const auto outcome = runOptimize(params, {}, options_.threads,
                                         token, options_.maxGridPoints);

        const auto &c = outcome.counters;
        obs::Json counters = obs::Json::object();
        counters.set("points",
                     static_cast<std::int64_t>(c.points));
        counters.set("evaluated",
                     static_cast<std::int64_t>(c.evaluated));
        counters.set("pruned_by_bound",
                     static_cast<std::int64_t>(c.prunedByBound));
        counters.set("pruned_by_memory",
                     static_cast<std::int64_t>(c.prunedByMemory));
        counters.set("skipped_infeasible",
                     static_cast<std::int64_t>(
                         c.skippedInfeasible));
        counters.set("cancelled_unvisited",
                     static_cast<std::int64_t>(
                         c.cancelledUnvisited));

        obs::Json result = obs::Json::object();
        result.set("top_k", entriesJson(outcome.topK));
        result.set("counters", std::move(counters));
        if (outcome.status == RunStatus::Completed)
            cache_.put(key, result.dump());
        return okResponse(request.id, outcome.status,
                          /*cached=*/false, std::move(result));
      }

      case Method::report: {
        const auto model = modelFrom(params);
        const auto job = jobFrom(params);
        const auto evaluation =
            model.evaluate(mappingFrom(params), job);

        obs::Json config_echo = obs::Json::object();
        config_echo.set("method", toString(request.method));
        config_echo.set("params", request.params);

        obs::RunReportBuilder report;
        report.setConfig(std::move(config_echo))
            .setAnalytical(evaluation)
            .setMetrics(registry_);

        obs::Json result = obs::Json::object();
        if (params.has(FieldId::artifact)) {
            const std::string name = params.text(FieldId::artifact);
            require(!options_.reportDir.empty(),
                    "params.artifact: the server has no report-dir "
                    "configured");
            require(!name.empty() &&
                        std::all_of(name.begin(), name.end(),
                                    [](char c) {
                                        return std::isalnum(
                                                   static_cast<
                                                       unsigned char>(
                                                       c)) != 0 ||
                                               c == '-' || c == '_';
                                    }),
                    "params.artifact must be a non-empty "
                    "[A-Za-z0-9_-] name, got '", name, "'");
            const std::string path =
                options_.reportDir + "/" + name + ".json";
            report.writeFile(path);
            result.set("artifact_path", path);
        }
        result.set("report", report.build());
        return okResponse(request.id, RunStatus::Completed,
                          /*cached=*/false, std::move(result));
      }
    }
    throw UserError("unhandled method");
}

/** Bookkeeping for one element of a (possibly burst) request line. */
struct Server::Slot
{
    std::optional<Request> request;
    std::uint64_t queueId = 0;
    bool admitted = false;
    obs::Json response;
    bool hasResponse = false;
};

std::string
Server::handleLine(const std::string &line)
{
    SerialSection section(serial_);
    if (isBlank(line))
        return "";

    obs::Json body;
    try {
        body = parseBody(line, options_.maxRequestBytes);
    } catch (const UserError &error) {
        requestsCounter_.add(1);
        errorCounter_.add(1);
        return errorResponse(std::nullopt, "error", error.what())
            .dump();
    }

    std::vector<const obs::Json *> elements;
    if (body.isObject()) {
        elements.push_back(&body);
    } else {
        for (const auto &item : body.items())
            elements.push_back(&item);
    }
    requestsCounter_.add(elements.size());

    std::vector<Slot> slots(elements.size());

    // Phase 1: validate envelopes.
    for (std::size_t i = 0; i < elements.size(); ++i) {
        try {
            slots[i].request = requestFromJson(*elements[i]);
        } catch (const UserError &error) {
            slots[i].response =
                errorResponse(tryExtractId(*elements[i]), "error",
                              error.what());
            slots[i].hasResponse = true;
        }
    }

    // Phase 2: admit every valid request before any runs, so queue
    // capacity and the overload policy apply across the burst.
    for (auto &slot : slots) {
        if (!slot.request)
            continue;
        const Request &request = *slot.request;
        const Deadline deadline = deadlineFor(request);
        const CancelToken token = rootToken_.child(deadline);
        auto task = [this, &slot, &request, token]() {
            // This closure only ever runs inside queue_.drainReady()
            // below — i.e. on the same service loop that already
            // holds the gate; the analysis cannot follow it through
            // std::function, so assert instead of re-entering.
            serial_.assertEntered();
            obs::ScopedTimer timer(latencyHistogram_);
            slot.response = runRequest(request, token);
            slot.hasResponse = true;
        };
        const auto admission =
            queue_.submit(std::move(task), deadline);
        slot.admitted = admission.accepted;
        slot.queueId = admission.id;
        if (!admission.accepted) {
            slot.response = errorResponse(
                request.id, "rejected",
                "admission queue is full (capacity " +
                    std::to_string(options_.queueCapacity) + ")");
            slot.hasResponse = true;
        }
        if (admission.shedItem) {
            for (auto &other : slots) {
                if (other.admitted &&
                    other.queueId == admission.shedItem->id) {
                    other.response = errorResponse(
                        other.request->id, "shed",
                        "shed by a newer request under overload");
                    other.hasResponse = true;
                    other.admitted = false;
                }
            }
        }
    }

    // Phase 3: run what is runnable and map terminal outcomes back.
    for (const auto &result : queue_.drainReady()) {
        for (auto &slot : slots) {
            if (!slot.admitted || slot.queueId != result.id)
                continue;
            switch (result.outcome) {
              case ItemOutcome::completed:
                // The task already stored the response.
                break;
              case ItemOutcome::expired:
                slot.response = errorResponse(
                    slot.request->id, "expired",
                    "deadline expired before the request ran");
                slot.hasResponse = true;
                break;
              case ItemOutcome::shed:
                slot.response = errorResponse(
                    slot.request->id, "shed",
                    "shed by a newer request under overload");
                slot.hasResponse = true;
                break;
              case ItemOutcome::failed:
                slot.response = errorResponse(slot.request->id,
                                              "error",
                                              result.error);
                slot.hasResponse = true;
                break;
            }
        }
    }

    // Phase 4: emit one line per element, in element order.
    std::string out;
    for (auto &slot : slots) {
        if (!slot.hasResponse) {
            // Defensive: an admitted item the drain never resolved
            // (cannot happen with a synchronous drain; answer
            // structurally rather than crash).
            slot.response = errorResponse(
                slot.request ? std::optional<std::int64_t>(
                                   slot.request->id)
                             : std::nullopt,
                "error", "request was not resolved");
        }
        const std::string status =
            slot.response.at("status").asString();
        if (status == "ok")
            okCounter_.add(1);
        else if (status == "error")
            errorCounter_.add(1);
        else
            droppedCounter_.add(1);
        if (!out.empty())
            out.push_back('\n');
        out += slot.response.dump();
    }
    return out;
}

RunStatus
Server::serveStream(std::istream &in, std::ostream &out)
{
    SerialSection section(serial_);
    std::string line;
    while (true) {
        if (rootToken_.status() != RunStatus::Completed)
            return rootToken_.status();
        if (!std::getline(in, line))
            break;
        const std::string response = handleLine(line);
        if (!response.empty())
            out << response << '\n';
        out.flush();
        if (rootToken_.status() != RunStatus::Completed)
            return rootToken_.status();
    }
    return RunStatus::Completed;
}

RunStatus
Server::serveTcp(std::uint16_t port)
{
    SerialSection section(serial_);
    const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    require(listen_fd >= 0, "serve: cannot create socket");
    const int one = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(listen_fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        ::close(listen_fd);
        throw UserError("serve: cannot bind loopback port " +
                        std::to_string(port));
    }
    if (::listen(listen_fd, 8) != 0) {
        ::close(listen_fd);
        throw UserError("serve: listen failed");
    }
    socklen_t addr_len = sizeof(addr);
    ::getsockname(listen_fd, reinterpret_cast<sockaddr *>(&addr),
                  &addr_len);
    boundPort_.store(ntohs(addr.sin_port),
                     std::memory_order_release);
    log::inform("serve: listening on 127.0.0.1:",
                ntohs(addr.sin_port));

    // Iterative accept loop (one client at a time): the WorkQueue is
    // single-loop by design; concurrency lives in the sweep threads.
    while (rootToken_.status() == RunStatus::Completed) {
        pollfd listener{listen_fd, POLLIN, 0};
        const int ready = ::poll(&listener, 1, /*timeout_ms=*/100);
        if (ready <= 0)
            continue; // Timeout or EINTR: re-check the token.
        const int client_fd = ::accept(listen_fd, nullptr, nullptr);
        if (client_fd < 0)
            continue;

        std::string buffer;
        char chunk[4096];
        bool open = true;
        while (open &&
               rootToken_.status() == RunStatus::Completed) {
            pollfd client{client_fd, POLLIN, 0};
            const int client_ready =
                ::poll(&client, 1, /*timeout_ms=*/100);
            if (client_ready <= 0)
                continue;
            const ssize_t got =
                ::read(client_fd, chunk, sizeof(chunk));
            if (got <= 0)
                break; // EOF or error: next client.
            buffer.append(chunk, static_cast<std::size_t>(got));
            std::size_t newline;
            while ((newline = buffer.find('\n')) !=
                   std::string::npos) {
                const std::string request_line =
                    buffer.substr(0, newline);
                buffer.erase(0, newline + 1);
                std::string response = handleLine(request_line);
                if (response.empty())
                    continue;
                response.push_back('\n');
                std::size_t sent = 0;
                while (sent < response.size()) {
                    const ssize_t wrote = ::send(
                        client_fd, response.data() + sent,
                        response.size() - sent, MSG_NOSIGNAL);
                    if (wrote <= 0) {
                        open = false;
                        break;
                    }
                    sent += static_cast<std::size_t>(wrote);
                }
                if (!open)
                    break;
            }
        }
        ::close(client_fd);
    }
    ::close(listen_fd);
    boundPort_.store(0, std::memory_order_release);
    return rootToken_.status();
}

} // namespace serve
} // namespace amped
