/**
 * @file
 * The `amped serve` evaluation service: a long-lived front end that
 * answers serve::protocol requests over stdin/stdout pipes or a
 * loopback TCP socket.
 *
 * Architecture (DESIGN.md Sec. 9): admission -> cancel -> cache ->
 * response.
 *
 *  - Admission.  Every request is submitted to a bounded
 *    common::WorkQueue before it runs; queue capacity and the
 *    overload policy apply across a pipelined burst, a request's
 *    deadline_ms expires it while queued without running, and the
 *    `common.queue.*` counters account every disposition.  The loop
 *    is caller-driven and synchronous — the queue owns no threads;
 *    evaluation work parallelizes on the shared ThreadPool
 *    underneath.
 *  - Cancel.  Each admitted request runs under a child of the
 *    server's root CancelToken carrying the request deadline, so a
 *    SIGTERM (CLI) or an expiring budget stops a sweep at its next
 *    block checkpoint and the *partial* result is still flushed as a
 *    valid response with run_status = cancelled / deadline-exceeded.
 *  - Cache.  Completed sweep and optimize results are memoized in a
 *    shared byte-budgeted SweepCacheLru keyed by a canonical
 *    (method, params) string; hits replay the serialized result
 *    without re-evaluating and are marked "cached": true.  A sweep
 *    key leaves out `top`: a cached ranking answers any top it
 *    covers, cut to its first `top` entries.
 *  - Response.  Schema-versioned JSON, one line per request (see
 *    serve/protocol.hpp).  A request that fails validation or
 *    evaluation produces a structured error response; the server
 *    itself never dies on bad input.
 *
 * Determinism: responses contain no wall-clock-derived values (the
 * latency histogram renders deterministically as a count), so a
 * fixed request sequence produces a byte-identical response
 * transcript at any worker thread count — the property
 * bench/serve_loadgen pins as a golden.
 *
 * Thread safety: one Server instance is driven by one service loop
 * thread (the WorkQueue it owns is not thread-safe); the SweepCache
 * and metrics it touches are thread-safe and may be shared.  The
 * single-loop contract is machine-checked with a phantom SerialGate
 * capability (common/thread_annotations.hpp): the queue and root
 * token are AMPED_GUARDED_BY(serial_), every entry point enters the
 * gate, and the dispatch path requires it — so new code reaching the
 * dispatch state outside a serialized entry point fails
 * `-Werror=thread-safety`.  boundPort_ stays an atomic because tests
 * legitimately poll it from another thread while serveTcp runs.
 */

#ifndef AMPED_SERVE_SERVER_HPP
#define AMPED_SERVE_SERVER_HPP

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "common/cancel.hpp"
#include "common/keyval.hpp"
#include "common/thread_annotations.hpp"
#include "common/work_queue.hpp"
#include "obs/metrics.hpp"
#include "serve/protocol.hpp"
#include "serve/sweep_cache.hpp"

namespace amped {
namespace serve {

/** Service sizing and policy knobs. */
struct ServerOptions
{
    /** Sweep/optimize worker threads (0 = AMPED_THREADS or all
     *  cores, 1 = serial).  Results are identical at any setting. */
    unsigned threads = 0;

    /** Admission queue capacity (>= 1). */
    std::size_t queueCapacity = 16;

    /** What to do with new work when the queue is full. */
    OverloadPolicy overloadPolicy = OverloadPolicy::rejectNewest;

    /** Total runs of one admitted item (>= 1; retries beyond the
     *  first apply only to TransientError throws). */
    unsigned maxAttempts = 1;

    /** Deadline applied to requests that carry none (milliseconds;
     *  0 = unbounded). */
    double defaultDeadlineMs = 0.0;

    /** Reject request lines longer than this many bytes. */
    std::size_t maxRequestBytes = kDefaultMaxRequestBytes;

    /** SweepCacheLru byte budget (keys + serialized results). */
    std::size_t cacheBudgetBytes = 8u << 20;

    /** Reject sweeps/optimizes whose mapping x batch grid exceeds
     *  this many points (0 = unlimited) — the service-side overload
     *  guard mirroring the CLI's --max-grid-points. */
    std::size_t maxGridPoints = 4000000;

    /** Directory for per-request run-report artifacts (report
     *  requests carrying an "artifact" name); empty disables. */
    std::string reportDir;

    /** Metrics destination (nullptr = the global registry). */
    obs::MetricsRegistry *registry = nullptr;
};

/**
 * Builds ServerOptions from a key = value config document
 * (examples/configs/serve_default.cfg).  Keys:
 *
 *   threads, queue-capacity, overload-policy (reject-newest |
 *   shed-oldest), max-attempts, default-deadline-ms,
 *   max-request-bytes, cache-budget-bytes, max-grid-points,
 *   report-dir
 *
 * @throws UserError naming the offending key on invalid values.
 */
ServerOptions optionsFromConfig(const KeyValueConfig &config);

/** The evaluation service. */
class Server
{
  public:
    explicit Server(ServerOptions options = {});

    /**
     * Installs the root cancellation token (e.g. the CLI's
     * signal-tripped token).  Every request token is a child of it.
     */
    void setCancelToken(CancelToken token);

    /**
     * Handles one request line (a single object or a burst array)
     * and returns the newline-joined response lines — "" for blank
     * input.  Never throws on bad request input; protocol and
     * evaluation failures come back as structured error responses.
     */
    std::string handleLine(const std::string &line);

    /**
     * Serves newline-delimited requests from @p in to @p out until
     * EOF or until the root token stops.  Responses are flushed per
     * line, so cancellation mid-request still delivers the partial
     * response before the loop exits.
     *
     * @return Completed on EOF; Cancelled / DeadlineExceeded when
     *         the root token stopped the loop.
     */
    RunStatus serveStream(std::istream &in, std::ostream &out);

    /**
     * Serves one-client-at-a-time newline-delimited requests on a
     * loopback TCP socket until the root token stops.  @p port 0
     * binds an ephemeral port; boundPort() exposes the choice once
     * listening.
     *
     * @throws UserError when the socket cannot be created or bound.
     */
    RunStatus serveTcp(std::uint16_t port);

    /** The port serveTcp is listening on (0 until it binds). */
    std::uint16_t boundPort() const
    {
        return boundPort_.load(std::memory_order_acquire);
    }

    const ServerOptions &options() const { return options_; }

    /** The shared response cache (tests inspect budget/occupancy). */
    SweepCacheLru &cache() { return cache_; }

  private:
    struct Slot;

    /** Request deadline: explicit deadline_ms, else the default. */
    Deadline deadlineFor(const Request &request) const;

    /** Runs one admitted request; returns the full ok response.
     *  Part of the serialized dispatch path: admitted tasks assert
     *  the gate before calling in (see handleLine). */
    obs::Json runRequest(const Request &request,
                         const CancelToken &token)
        AMPED_REQUIRES(serial_);

    /** Phantom capability: "the one service loop driving me". */
    SerialGate serial_;

    ServerOptions options_;
    obs::MetricsRegistry &registry_;
    WorkQueue queue_ AMPED_GUARDED_BY(serial_);
    SweepCacheLru cache_; ///< Self-locked; shareable across threads.
    CancelToken rootToken_ AMPED_GUARDED_BY(serial_);
    std::atomic<std::uint16_t> boundPort_{0};

    obs::Counter &requestsCounter_;
    obs::Counter &okCounter_;
    obs::Counter &errorCounter_;
    obs::Counter &droppedCounter_;
    obs::Histogram &latencyHistogram_;
};

} // namespace serve
} // namespace amped

#endif // AMPED_SERVE_SERVER_HPP
