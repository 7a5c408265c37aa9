// Solve-as-a-service: the request-serving layer on the serve:: spine.
//
// SolveServer is the serve layer's one Listener (a dependency-free POSIX
// HTTP front door, declared below) plus the solve routes.  The
// economics mirror Ginkgo's LinOp design (generate once, apply many): a
// matrix uploaded once is parsed and factored once, then solved thousands
// of times against different right-hand sides.
//
//   POST /v1/operators   matrix payload -> cached operator handle.
//                        Body is JSON carrying either
//                          {"mtx": "<Matrix Market text>"}          or
//                          {"triplet": {"rows": R, "cols": C,
//                                       "entries": [[r, c, v], ...]}}
//                        Response: {"operator": "op-1", "rows", "cols",
//                        "nnz", "bytes"}.
//   POST /v1/solve       config JSON + operator handle or inline matrix.
//                        Body: {"config": {...config_solver schema...},
//                               "operator": "op-1" | "mtx"/"triplet": ...,
//                               "b": [...], "x0": [...]}   (b defaults to
//                        all ones, x0 to zeros).  The (operator, config)
//                        pair selects a cached generated solver — a cache
//                        hit skips parsing, conversion, and
//                        factorization.  Response: {"x": [...],
//                        "iterations", "converged", "residual_norm",
//                        "stop_reason", "cache": "hit"|"miss"|"inline",
//                        "operator"}.
//   GET  /v1/stats       live counters: requests by outcome, cache
//                        hits/misses/evictions and resident bytes, queue
//                        high-water mark, rejected (429) count.
//   GET  /v1/requests    bounded ring of recent per-request summaries:
//                        trace id, route, status, wall time, and the cost
//                        attributed to each request (flops, bytes, pool
//                        alloc bytes, kernel launches).  Filters:
//                        ?limit=N keeps the N most recent entries
//                        (1..256), ?trace_id=<16-or-32 hex> keeps one
//                        request's entries; malformed values answer the
//                        same typed JSON 400 as /trace.json.
//
// Request-scoped tracing (DESIGN.md §17): every request adopts the trace
// id and sampled flag of a valid W3C `traceparent` header (malformed
// headers are ignored and a fresh context minted — never a 400), mints a
// context otherwise (sampled per MGKO_TRACE_SAMPLE / "trace_sample"), and
// echoes the context as a `traceparent` response header.  While the
// request is in flight its context scopes the worker thread, so
// FlightRecorder records carry its trace id (filterable via
// /trace.json?trace_id= on this port or the telemetry one), metric
// observations leave OpenMetrics exemplars, and sampled /v1/solve
// responses gain a "cost" block with a per-kernel breakdown.
//   GET  /metrics        Prometheus text: the telemetry /metrics series
//                        (shared MetricsRegistry, mgko_flight_*, measured
//                        tier) plus the server's own mgko_solve_* series.
//   GET  /readyz         readiness probe: 200 {"state": "accepting"} only
//                        while new connections are admitted; 503 with
//                        "draining" (stop() running, queued work still
//                        being served) or "stopped" (drain complete) —
//                        the signal a load balancer needs to pull the
//                        instance before /healthz ever flips.
//   every other path     the telemetry routes (serve/telemetry.hpp):
//                        /healthz (200 while the process serves, including
//                        during drain), /trace.json, /profile.json, ...
//
// Concurrency (the Listener's): one acceptor thread feeds a bounded queue
// drained by a worker pool.  Admission control is explicit backpressure —
// when the queue is full the acceptor answers 429 with a Retry-After header
// immediately instead of queueing unboundedly (clients see latency honestly
// instead of through a growing queue).  Cached solvers hold persistent
// workspaces, so each one is applied under its own mutex; different
// operators (and different configs on one operator) solve concurrently.
// stop() is graceful: it stops accepting, then drains queued and
// in-flight requests before joining the workers.
//
// Workers share the machine's cores instead of multiplying them: each
// request is handled inside a kernels::ThreadBudgetScope, so a lone
// request's kernels get every OpenMP thread and k concurrent requests get
// max(1, threads / k) each (DESIGN.md, "Thread budget and small-work
// cutoff").
//
// Observability rides the existing spine: every request lands in the
// shared MetricsRegistry (mgko_solve_latency_ns and mgko_solve_team_threads
// histograms per route, outcome counters) and opens a FlightRecorder span
// ("serve.solve", ...), so /metrics, /v1/stats, the telemetry endpoints,
// and the crash black box all see solve traffic with no extra wiring.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/types.hpp"
#include "serve/http.hpp"

namespace mgko::serve {


struct SolveServerOptions {
    /// TCP port; 0 binds an ephemeral port (see SolveServer::port()).
    int port{0};
    /// Worker threads draining the request queue.
    size_type num_workers{4};
    /// Accepted-but-unserviced connections held before the acceptor
    /// answers 429 + Retry-After instead of queueing further.
    size_type queue_capacity{64};
    /// Approximate byte budget for cached operators and their generated
    /// solvers; least-recently-used operators are evicted beyond it.
    size_type cache_capacity_bytes{size_type{64} << 20};
    /// Per-request body bound (413 beyond it) — matrix uploads dominate.
    size_type max_body_bytes{size_type{8} << 20};
    /// Wall-clock bound on reading one request (408) and writing its
    /// response.
    int request_deadline_ms{5000};
    /// Test-only: called by each worker after dequeuing a connection and
    /// before serving it; lets tests stall the pool deterministically to
    /// exercise backpressure.  Leave empty in production.
    std::function<void()> worker_test_hook{};
};


/// The serve layer's one HTTP listener: an acceptor thread feeds a bounded
/// queue (429 + Retry-After when it is full) drained by a worker pool;
/// each worker reads one request with read_http_request, answers it with
/// the handler (or with 408/413/400 when the read fails), and closes the
/// connection.  SolveServer runs its routes on one; telemetry_start runs
/// the telemetry routes on one with a single worker.  Reads every
/// SolveServerOptions field except cache_capacity_bytes.
class Listener {
public:
    /// One parsed request in, one full HTTP response out.  Called
    /// concurrently from every worker.
    using Handler = std::function<std::string(const HttpRequest&)>;

    /// Binds 0.0.0.0:`options.port` (0 picks an ephemeral port) and starts
    /// the acceptor and the workers.  Throws mgko::Error when the socket
    /// cannot be bound.
    static std::unique_ptr<Listener> start(const SolveServerOptions& options,
                                           Handler handler);

    ~Listener();

    Listener(const Listener&) = delete;
    Listener& operator=(const Listener&) = delete;

    /// The bound port (the concrete one when started with port 0).
    int port() const { return port_; }

    /// True until stop() begins.
    bool accepting() const
    {
        return accepting_.load(std::memory_order_acquire);
    }

    /// True once stop() has drained the queue and joined the workers.
    bool drained() const { return drained_.load(std::memory_order_acquire); }

    /// Connections the listener answered without the handler, and its
    /// own send and queue statistics.
    struct Counters {
        std::uint64_t rejected{0};     ///< 429 backpressure answers
        std::uint64_t read_errors{0};  ///< 408 / 413 / 400 answers
        std::uint64_t send_failures{0};
        std::uint64_t queue_peak{0};
    };
    Counters counters() const;

    /// Graceful shutdown: stop accepting, serve everything queued and in
    /// flight, join the workers.  Idempotent; the destructor calls it.
    void stop();

private:
    Listener() = default;

    void accept_loop();
    void worker_loop();
    void serve_connection(int fd);

    /// One accepted connection awaiting a worker.  The acceptor captures
    /// its trace context at enqueue time and the worker re-enters it
    /// before serving, so request-scoped attribution survives the
    /// accept -> queue -> worker-pool thread hop explicitly instead of
    /// leaking whatever context the worker last held.
    struct pending {
        int fd{-1};
        log::TraceContext ambient{};
    };

    SolveServerOptions options_;
    Handler handler_;
    int listen_fd_{-1};
    int port_{0};
    std::atomic<bool> accepting_{false};
    std::atomic<bool> stopped_{false};
    std::atomic<bool> drained_{false};

    std::mutex queue_mutex_;
    std::condition_variable queue_cv_;
    std::deque<pending> queue_;
    bool draining_{false};

    // Relaxed: each is independently monotone.
    std::atomic<std::uint64_t> rejected_{0};
    std::atomic<std::uint64_t> read_errors_{0};
    std::atomic<std::uint64_t> send_failures_{0};
    std::atomic<std::uint64_t> queue_peak_{0};

    // Last: the threads use every member above.
    std::thread acceptor_;
    std::vector<std::thread> workers_;
};


class SolveServer {
public:
    /// Binds and starts the acceptor + worker pool.  Throws mgko::Error
    /// when the socket cannot be bound.
    static std::unique_ptr<SolveServer> start(SolveServerOptions options = {});

    ~SolveServer();

    SolveServer(const SolveServer&) = delete;
    SolveServer& operator=(const SolveServer&) = delete;

    /// The bound port (the concrete one when constructed with port 0).
    int port() const { return listener_->port(); }

    /// Graceful shutdown: stop accepting, serve everything queued and
    /// in flight, join the pool.  Idempotent; the destructor calls it.
    void stop();

    /// Point-in-time counters (also exported as /v1/stats and /metrics).
    struct Stats {
        std::uint64_t requests_total{0};
        std::uint64_t ok{0};
        std::uint64_t client_errors{0};  ///< 4xx other than 429
        std::uint64_t server_errors{0};  ///< 5xx
        std::uint64_t rejected{0};       ///< 429 backpressure answers
        std::uint64_t send_failures{0};  ///< responses we could not write
        std::uint64_t uploads{0};
        std::uint64_t solves{0};
        std::uint64_t cache_hits{0};
        std::uint64_t cache_misses{0};
        std::uint64_t cache_evictions{0};
        std::uint64_t solver_generations{0};
        size_type cache_operators{0};
        size_type cache_bytes{0};
        size_type queue_capacity{0};
        std::uint64_t queue_peak{0};
        /// OpenMP team granted to the most recent /v1/solve request (0
        /// before the first).
        int team_threads{0};
    };
    Stats stats() const;
    /// Stats as a JSON object (the /v1/stats body).
    std::string stats_json() const;
    /// The bounded recent-request ring as JSON (the /v1/requests body).
    /// `limit` keeps only the most recent N entries (0 means all);
    /// `trace_filter` (the low 64 bits of a trace id, 0 meaning no
    /// filter) keeps only entries whose trace id ends in that word.
    std::string requests_json(std::size_t limit = 0,
                              std::uint64_t trace_filter = 0) const;

    /// Routes one parsed request to a full HTTP response; exposed so unit
    /// tests can exercise routing, parsing, and the cache without
    /// sockets.  Thread-safe.
    std::string handle(const HttpRequest& request);

private:
    SolveServer() = default;

    std::string handle_upload(const HttpRequest& request);
    std::string handle_solve(const HttpRequest& request);
    std::string metrics_text() const;

    struct Impl;
    std::unique_ptr<Impl> impl_;

    SolveServerOptions options_;
    /// Declared last so it is destroyed first: its workers call handle().
    std::unique_ptr<Listener> listener_;
};


// --- process-wide servers --------------------------------------------------
//
// One holder serves both: a mutex, a server slot each for telemetry and
// solve traffic, and the bound port (0 while a slot is empty).  Starting
// a slot that is already running with port 0 ("any port") or its own
// port reports the running server; a different explicit port throws
// BadParameter — a second explicit port is a conflicting configuration,
// not a request the running server can satisfy.

/// Starts the process-wide telemetry server (the telemetry routes of
/// serve/telemetry.hpp on a one-worker Listener) if none is running;
/// returns the bound port.  While it runs, log::metrics_from_env() hands
/// the shared metrics logger to every new executor, so /metrics has
/// executor-level series to serve.
int telemetry_start(int port);

/// Stops and discards the process-wide telemetry server; no-op when none
/// runs.
void telemetry_stop();

/// True while the process-wide telemetry server is running.
bool telemetry_active();

/// The process-wide telemetry server's port, 0 when inactive.
int telemetry_port();

/// The listener telemetry_start runs: the telemetry routes on one worker
/// with a one-second request deadline.  Each call binds a new listener.
std::unique_ptr<Listener> start_telemetry_listener(int port);

/// Starts the process-wide solve server if none is running; returns the
/// bound port.
int solve_server_start(int port);

/// Graceful stop + discard of the process-wide server; no-op when none.
void solve_server_stop();

/// True while the process-wide server is running.
bool solve_server_active();

/// The process-wide server's port, 0 when inactive.
int solve_server_port();

/// The process-wide server's /v1/stats JSON; "{}" when inactive.
std::string solve_server_stats_json();

/// Once per process: telemetry_start($MGKO_TELEMETRY_PORT), then
/// solve_server_start($MGKO_SOLVE_PORT), for each variable that holds a
/// port number.  The only reader of the two variables; called by
/// bind::ensure_bindings_registered() and by the binaries that document
/// them.  Bind failures are reported on stderr rather than thrown (an
/// embedded library must not kill its host over an occupied port).
void start_from_env();


}  // namespace mgko::serve
