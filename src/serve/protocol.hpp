/**
 * @file
 * The `amped serve` wire protocol: newline-delimited JSON requests
 * and schema-versioned JSON responses.
 *
 * Request (one JSON object per line):
 *
 *     {"id": 7, "method": "sweep", "deadline_ms": 60000,
 *      "params": { ... method-specific inputs ... }}
 *
 *   id           required non-negative integer, echoed verbatim.
 *   method       required: ping | eval | sweep | optimize | report.
 *   deadline_ms  optional wall-clock budget in milliseconds.  Absent
 *                means the server default; 0 is an *already expired*
 *                deadline (the item finishes as "expired" without
 *                running — Deadline::after's zero-budget semantics,
 *                useful for deterministic admission tests); negative
 *                values are rejected.
 *   params       optional object (default empty).  Its keys, their
 *                kinds, defaults and ranges, and which method reads
 *                which key come from the field table in
 *                serve/request.cpp (the CLI's options use the same
 *                table); an unknown key is rejected by name.
 *
 * A top-level JSON *array* of request objects is a pipelined burst:
 * every element is submitted to the admission queue before any runs,
 * so queue capacity and the overload policy apply across the burst,
 * and one response line per element comes back in element order.
 *
 * Response (one JSON object per line, always schema-versioned):
 *
 *     {"schema_version": 1, "id": 7, "status": "ok",
 *      "run_status": "completed", "cached": false, "result": {...}}
 *     {"schema_version": 1, "id": 7, "status": "error",
 *      "error": {"message": "params.batch must be > 0, got -1"}}
 *
 *   status     ok | error | expired | rejected | shed.  `expired`
 *              means the deadline passed while the request was
 *              queued (it never ran); `rejected` / `shed` are the
 *              admission queue's overload dispositions.
 *   run_status ok only: completed | cancelled | deadline-exceeded
 *              (common::RunStatus).  A non-completed run_status
 *              marks a *partial* result — a sweep stopped at a block
 *              checkpoint returns the deterministic prefix it
 *              evaluated, exactly like the CLI.
 *   cached     ok only: the result was replayed from the shared
 *              SweepCacheLru instead of re-evaluated.
 *   error      error/expired/rejected/shed only: {"message": ...}
 *              with field-named diagnostics (`params.system.nodes
 *              must be >= 1`, ...).
 *
 * Malformed input (bad JSON, duplicate keys, oversized body) yields
 * a status=error response with "id": null — the request id cannot be
 * trusted when the body does not parse.
 */

#ifndef AMPED_SERVE_PROTOCOL_HPP
#define AMPED_SERVE_PROTOCOL_HPP

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "common/cancel.hpp"
#include "obs/json.hpp"

namespace amped {
namespace serve {

/** Current serve protocol schema version. */
constexpr int kServeSchemaVersion = 1;

/** Default cap on one request line's byte length. */
constexpr std::size_t kDefaultMaxRequestBytes = 1u << 20;

/** The dispatchable request methods. */
enum class Method : unsigned char
{
    ping,     ///< Liveness probe; echoes {"pong": true}.
    eval,     ///< One (mapping, batch) prediction.
    sweep,    ///< Ranked sweep of the full mapping space.
    optimize, ///< Branch-and-bound strategy search.
    report,   ///< Structured run report (obs schema).
};

/** Stable lowercase method name. */
const char *toString(Method method);

/** One validated request. */
struct Request
{
    std::int64_t id = 0;
    Method method = Method::ping;

    /** Wall-clock budget in milliseconds; negative = absent (use
     *  the server default), 0 = already expired. */
    double deadlineMs = -1.0;

    /** Method parameters (always an object; read, with defaults,
     *  through serve::Params). */
    obs::Json params = obs::Json::object();
};

/**
 * Parses one request line into a JSON body: enforces the byte cap,
 * RFC 8259 syntax (duplicate keys rejected), and that the top level
 * is an object or a non-empty array of objects.
 *
 * @throws UserError naming the defect.
 */
obs::Json parseBody(const std::string &line, std::size_t max_bytes);

/**
 * Validates one request object (envelope keys only; params contents
 * are validated by the dispatcher).
 *
 * @throws UserError naming the offending field.
 */
Request requestFromJson(const obs::Json &doc);

/**
 * Best-effort id extraction from an arbitrary body, for error
 * responses about requests that fail requestFromJson: a well-formed
 * non-negative integer "id" member, else nullopt.
 */
std::optional<std::int64_t> tryExtractId(const obs::Json &doc);

/** A status=ok response (result may be partial; see run_status). */
obs::Json okResponse(std::int64_t id, RunStatus run_status,
                     bool cached, obs::Json result);

/**
 * A non-ok response.  @p status is "error", "expired", "rejected" or
 * "shed"; @p id is echoed when known, null otherwise.
 */
obs::Json errorResponse(std::optional<std::int64_t> id,
                        const std::string &status,
                        const std::string &message);

} // namespace serve
} // namespace amped

#endif // AMPED_SERVE_PROTOCOL_HPP
