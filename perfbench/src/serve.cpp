// serve_hit and serve_churn: closed loops of nproc clients, each waiting
// for its reply before sending the next request, against a SolveServer in
// its default configuration over loopback sockets.
//
//   serve_hit    POST /v1/solve against four pre-uploaded ~1k-row 2D
//                Poisson operators (CG + Jacobi): every timed request is a
//                cache hit, so the request path and per-kernel dispatch on
//                short vectors do the work.
//   serve_churn  each client cycle uploads a fresh 16384-row (128x128)
//                operator, solves it once under a rotating Jacobi/ILU/AMG
//                preconditioner (a miss: generation), twice more (hits),
//                and solves one small inline matrix.  The uploads outgrow
//                the 64 MiB cache budget, so evictions are steady.  The
//                operation timed is the whole cycle.
//
// Every reply is checked: status 200, a complete body, "converged", and
// the true residual of the returned x against the known operator and RHS.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "config/config_solver.hpp"
#include "config/json.hpp"
#include "core/executor.hpp"
#include "core/mtx_io.hpp"
#include "http_client.hpp"
#include "probes.hpp"
#include "serve/solve_server.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using mgko::config::Json;


struct Grid {
    std::int64_t nx;
    std::int64_t ny;
    std::int64_t rows() const { return nx * ny; }
};


/// Matrix Market text of the 2D Poisson operator in symmetric storage
/// (lower triangle only), as a client would upload it.
std::string poisson_mtx(const Grid& grid)
{
    std::int64_t lower = 0;
    std::string lines;
    char buffer[64];
    for (std::int64_t i = 0; i < grid.nx; ++i) {
        for (std::int64_t j = 0; j < grid.ny; ++j) {
            const auto row = i * grid.ny + j + 1;
            if (i > 0) {
                std::snprintf(buffer, sizeof(buffer), "%lld %lld -1\n",
                              static_cast<long long>(row),
                              static_cast<long long>(row - grid.ny));
                lines += buffer;
                ++lower;
            }
            if (j > 0) {
                std::snprintf(buffer, sizeof(buffer), "%lld %lld -1\n",
                              static_cast<long long>(row),
                              static_cast<long long>(row - 1));
                lines += buffer;
                ++lower;
            }
            std::snprintf(buffer, sizeof(buffer), "%lld %lld 4\n",
                          static_cast<long long>(row),
                          static_cast<long long>(row));
            lines += buffer;
            ++lower;
        }
    }
    std::snprintf(buffer, sizeof(buffer), "%lld %lld %lld\n",
                  static_cast<long long>(grid.rows()),
                  static_cast<long long>(grid.rows()),
                  static_cast<long long>(lower));
    return "%%MatrixMarket matrix coordinate real symmetric\n" +
           std::string{buffer} + lines;
}


/// The mtx text as a JSON string member ("mtx": "..."); the text holds no
/// quotes or backslashes, only newlines to escape.
std::string mtx_member(const std::string& mtx)
{
    std::string out = "\"mtx\": \"";
    out.reserve(mtx.size() + mtx.size() / 8 + 16);
    for (const char c : mtx) {
        if (c == '\n') {
            out += "\\n";
        } else {
            out += c;
        }
    }
    return out + "\"";
}


std::string solver_config(const char* preconditioner, double reduction)
{
    char buffer[256];
    std::snprintf(buffer, sizeof(buffer),
                  "{\"type\": \"solver::Cg\", \"max_iters\": 5000, "
                  "\"reduction_factor\": %g, \"preconditioner\": {\"type\": "
                  "\"%s\"}}",
                  reduction, preconditioner);
    return buffer;
}


std::vector<double> random_vector(std::int64_t n, std::mt19937_64& engine)
{
    std::uniform_real_distribution<double> dist{-1.0, 1.0};
    std::vector<double> v(static_cast<std::size_t>(n));
    for (auto& value : v) {
        value = dist(engine);
    }
    return v;
}


std::string number_array(const std::vector<double>& values)
{
    std::string out = "[";
    char buffer[32];
    for (std::size_t i = 0; i < values.size(); ++i) {
        std::snprintf(buffer, sizeof(buffer), i ? ",%.17g" : "%.17g",
                      values[i]);
        out += buffer;
    }
    return out + "]";
}


/// What the benchmark reads back from a /v1/solve reply, with its own
/// scanner rather than the library's JSON parser.
struct SolveReply {
    std::vector<double> x;
    bool converged{false};
    /// Summed per-kernel wall time from the reply's cost block.
    double kernel_wall_us{0.0};
};

/// The number following `"key":` at or after `from`; NaN when absent.
double number_after(const std::string& body, const char* key,
                    std::size_t from = 0, std::size_t* end = nullptr)
{
    const std::string quoted = std::string{"\""} + key + "\"";
    const auto at = body.find(quoted, from);
    if (at == std::string::npos) {
        return NAN;
    }
    const auto colon = body.find(':', at + quoted.size());
    if (colon == std::string::npos) {
        return NAN;
    }
    char* stop = nullptr;
    const double value = std::strtod(body.c_str() + colon + 1, &stop);
    if (end) {
        *end = static_cast<std::size_t>(stop - body.c_str());
    }
    return stop == body.c_str() + colon + 1 ? NAN : value;
}

SolveReply scan_solve_reply(const std::string& body)
{
    SolveReply reply;
    const auto x_at = body.find("\"x\"");
    const auto open = x_at == std::string::npos ? x_at : body.find('[', x_at);
    if (open != std::string::npos) {
        const char* cursor = body.c_str() + open + 1;
        while (*cursor != ']' && *cursor != '\0') {
            char* stop = nullptr;
            const double value = std::strtod(cursor, &stop);
            if (stop == cursor) {
                break;
            }
            reply.x.push_back(value);
            cursor = stop;
            while (*cursor == ',' || *cursor == ' ') {
                ++cursor;
            }
        }
    }
    const auto converged = body.find("\"converged\"");
    if (converged != std::string::npos) {
        const auto value =
            body.find_first_not_of(' ', body.find(':', converged) + 1);
        reply.converged = body.compare(value, 4, "true") == 0;
    }
    // The cost block of a sampled request (every request is sampled by
    // default): per-kernel wall times up to its "measured" sibling.
    const auto per_kernel = body.find("\"per_kernel\"");
    const auto measured = body.find("\"measured\"");
    if (per_kernel != std::string::npos && measured != std::string::npos) {
        std::size_t cursor = per_kernel;
        while (true) {
            std::size_t end = 0;
            const double wall = number_after(body, "wall_ns", cursor, &end);
            if (std::isnan(wall) || end > measured) {
                break;
            }
            reply.kernel_wall_us += wall * 1e-3;
            cursor = end;
        }
    }
    return reply;
}


bool residual_ok(const Grid& grid, const std::vector<double>& b,
                 const std::vector<double>& x, double reduction)
{
    if (static_cast<std::int64_t>(x.size()) != grid.rows()) {
        return false;
    }
    std::vector<double> ax(x.size());
    poisson2d_apply(grid.nx, grid.ny, x.data(), ax.data());
    return relative_residual(b, ax) <= reduction * 1.05;
}


std::string upload_handle(const HttpReply& reply)
{
    const auto at = reply.body.find("\"operator\"");
    if (reply.status != 200 || !reply.complete || at == std::string::npos) {
        return {};
    }
    const auto open = reply.body.find('"', reply.body.find(':', at) + 1);
    const auto close = reply.body.find('"', open + 1);
    return reply.body.substr(open + 1, close - open - 1);
}


/// The phases of a run.  Timed runs are all `plain`.  A traced run spends
/// half its time plain (the reference latency), a quarter sending the same
/// traffic traced, and an eighth each on the in-process phases, with the
/// same number of concurrent callers so every phase sees the same load.
enum class Mode {
    plain,       ///< requests over sockets, timed only
    traced,      ///< requests over sockets with spans
    in_process,  ///< the same requests through SolveServer::handle()
    pipeline,    ///< the handler's public calls replayed on a private executor
};


/// One closed-loop client per CPU.
unsigned client_count()
{
    return std::max<unsigned>(std::thread::hardware_concurrency(), 1u);
}


/// Samples one client collects; merged after the clients are joined.
struct ClientLog {
    LatencyLog plain;               ///< untraced requests
    LatencyLog cycles;              ///< untraced serve_churn cycles
    std::vector<double> traced_us;  ///< traced request latencies
    std::uint64_t attempted{0};
    std::uint64_t failed{0};
    /// Wall time of the client's traced phase, read around the whole
    /// phase rather than from the spans, which the breakdown must match.
    double traced_phase_us{0.0};
    Tracer tracer;
    // Per-layer samples.
    std::vector<double> handle_us, parse_us, parse_mbps, dump_us, apply_ms,
        iter_us, read_mtx_ms, read_mtx_mbps, iterations;
    std::map<std::string, std::vector<double>> generate_ms;
    CounterTotals counters;
};


/// Runs `body(client, log, mode, deadline)` on nproc client threads for
/// each phase; returns the logs and the plain phase's start and end.
template <typename Body>
std::vector<std::unique_ptr<ClientLog>> run_clients(const Options& options,
                                                    Body body,
                                                    double* plain_start_us,
                                                    double* plain_end_us)
{
    const auto clients = client_count();
    std::vector<std::unique_ptr<ClientLog>> logs;
    for (unsigned c = 0; c < clients; ++c) {
        logs.push_back(std::make_unique<ClientLog>());
    }
    const auto phase = [&](Mode mode, double seconds,
                           std::vector<std::unique_ptr<ClientLog>>& into) {
        const double start = now_us();
        const double deadline = start + seconds * 1e6;
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < clients; ++c) {
            threads.emplace_back([&, c] {
                // An exception ends this client's phase as one failed
                // operation instead of terminating the process.
                try {
                    const double client_start = now_us();
                    body(c, *into[c], mode, deadline);
                    if (mode == Mode::traced) {
                        into[c]->traced_phase_us += now_us() - client_start;
                    }
                } catch (const std::exception& error) {
                    std::fprintf(stderr, "perfbench: client %u: %s\n", c,
                                 error.what());
                    ++into[c]->attempted;
                    ++into[c]->failed;
                }
            });
        }
        for (auto& thread : threads) {
            thread.join();
        }
        return start;
    };
    // Warm-up, discarded: every server worker and client executor starts
    // its OpenMP team and fills its pool before anything is timed.
    {
        std::vector<std::unique_ptr<ClientLog>> discard;
        for (unsigned c = 0; c < clients; ++c) {
            discard.push_back(std::make_unique<ClientLog>());
        }
        phase(Mode::plain, 1.0, discard);
    }
    const auto share = [&](double part) { return options.seconds * part; };
    *plain_start_us = phase(Mode::plain, share(options.trace ? 0.5 : 1.0), logs);
    *plain_end_us = now_us();
    if (options.trace) {
        phase(Mode::traced, share(0.25), logs);
        phase(Mode::in_process, share(0.125), logs);
        phase(Mode::pipeline, share(0.125), logs);
    }
    return logs;
}


/// Merges the clients' samples into the report.
void report_clients(const Options& options, Report& report,
                    const std::vector<std::unique_ptr<ClientLog>>& logs,
                    double plain_start_us, double plain_end_us)
{
    ClientLog all;
    std::vector<const Tracer*> tracers;
    const auto append = [](std::vector<double>& to,
                           const std::vector<double>& from) {
        to.insert(to.end(), from.begin(), from.end());
    };
    for (const auto& log : logs) {
        for (auto member :
             {&ClientLog::traced_us,
              &ClientLog::handle_us, &ClientLog::parse_us,
              &ClientLog::parse_mbps, &ClientLog::dump_us,
              &ClientLog::apply_ms, &ClientLog::iter_us,
              &ClientLog::read_mtx_ms, &ClientLog::read_mtx_mbps,
              &ClientLog::iterations}) {
            append(all.*member, (*log).*member);
        }
        for (const auto& [kind, samples] : log->generate_ms) {
            append(all.generate_ms[kind], samples);
        }
        all.plain.append(log->plain);
        all.cycles.append(log->cycles);
        all.traced_phase_us += log->traced_phase_us;
        all.counters.merge(log->counters);
        tracers.push_back(&log->tracer);
        report.count(log->attempted, log->failed);
    }
    // serve_churn's operation is a whole cycle; serve_hit's is one request.
    report_latency(report, all.cycles.ok.empty() ? all.plain : all.cycles,
                   plain_start_us, plain_end_us);
    report.meta("clients", static_cast<double>(logs.size()));
    if (!options.trace) {
        return;
    }
    const double roundtrip = median(all.traced_us);
    const double handle = median(all.handle_us);
    report.metric("serve.roundtrip_us", roundtrip, "us");
    report.metric("serve.handle_us", handle, "us");
    report.metric("serve.transport_us", roundtrip - handle, "us");
    report.metric("config.json_parse_us", median(all.parse_us), "us");
    report.metric("config.json_parse_mbps", median(all.parse_mbps), "MB/s");
    report.metric("config.json_dump_us", median(all.dump_us), "us");
    for (const auto& [kind, samples] : all.generate_ms) {
        report.metric("config.generate_solver_ms." + kind, median(samples),
                      "ms");
    }
    report.metric("config.apply_solver_ms", median(all.apply_ms), "ms");
    report.metric("core.read_mtx_ms", median(all.read_mtx_ms), "ms");
    report.metric("core.read_mtx_mbps", median(all.read_mtx_mbps), "MB/s");
    report.metric("solver.iterations", median(all.iterations), "count");
    report.metric("solver.us_per_iter", median(all.iter_us), "us");
    report_core(report, all.counters);
    report_breakdown(report, breakdown(tracers), all.traced_phase_us);
    report_trace_overhead(report, all.plain.latency_us, all.traced_us);
    write_spans(options, tracers);
}


void report_stats(Report& report, const mgko::serve::SolveServer::Stats& a,
                  const mgko::serve::SolveServer::Stats& b)
{
    const auto delta = [](std::uint64_t after, std::uint64_t before) {
        return static_cast<double>(after - before);
    };
    const double hits = delta(b.cache_hits, a.cache_hits);
    const double misses = delta(b.cache_misses, a.cache_misses);
    report.metric("serve.cache_hits", hits, "count");
    report.metric("serve.cache_misses", misses, "count");
    report.metric("serve.cache_hit_ratio",
                  hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
    report.metric("serve.evictions",
                  delta(b.cache_evictions, a.cache_evictions), "count");
    report.metric("serve.solver_generations",
                  delta(b.solver_generations, a.solver_generations), "count");
    report.metric("serve.rejected_429", delta(b.rejected, a.rejected),
                  "count");
    report.metric("serve.queue_peak", static_cast<double>(b.queue_peak),
                  "count");
}


/// Sends one request in the plain, traced or in-process mode, checks the
/// reply with `check`, and logs the latency and outcome; `ok` receives the
/// outcome.  A traced request
/// is an op of its own: its root, the socket roundtrip, the kernel time the
/// server reports for it (a derived span), and the benchmark's check.
template <typename Check>
HttpReply exchange(Mode mode, ClientLog& log, mgko::serve::SolveServer& server,
                   const char* target, const std::string& body, Check check,
                   bool* ok_out = nullptr)
{
    HttpReply reply;
    bool ok = false;
    const double start = now_us();
    if (mode == Mode::in_process) {
        mgko::serve::HttpRequest request;
        request.method = "POST";
        request.target = target;
        request.version = "HTTP/1.1";
        request.body = body;
        reply = parse_http_response(server.handle(request));
        log.handle_us.push_back(now_us() - start);
        ok = check(reply);
    } else if (mode == Mode::traced) {
        const int root = log.tracer.begin_op(
            "op.request", static_cast<std::int64_t>(log.traced_us.size()));
        {
            Scoped span{&log.tracer, "serve.roundtrip"};
            reply = http_post(server.port(), target, body);
            log.traced_us.push_back(now_us() - start);
            log.tracer.derived(span.index(), "core.kernels",
                               scan_solve_reply(reply.body).kernel_wall_us);
        }
        {
            Scoped span{&log.tracer, "bench.check"};
            ok = check(reply);
        }
        log.tracer.end(root);
    } else {
        reply = http_post(server.port(), target, body);
        const double end = now_us();
        ok = check(reply);
        log.plain.add(start, end, ok);
    }
    ++log.attempted;
    log.failed += ok ? 0 : 1;
    if (ok_out) {
        *ok_out = ok;
    }
    return reply;
}


/// In-process replay of a solve through the config layer on the client's
/// own executor and generated solver: JSON parse of the request body, the
/// solve, and the dump of a reply-shaped document.
void replay_pipeline(ClientLog& log, const std::string& body,
                     const Json& config,
                     const std::shared_ptr<mgko::Executor>& exec,
                     mgko::LinOp* solver, const std::vector<double>& rhs)
{
    double start = now_us();
    Json::parse(body);
    const double parse_us = now_us() - start;
    log.parse_us.push_back(parse_us);
    log.parse_mbps.push_back(static_cast<double>(body.size()) / parse_us);

    const auto before = snapshot(*exec);
    const auto report = mgko::config::apply_solver(config, exec, solver, rhs);
    const auto after = snapshot(*exec);
    log.counters.add(before, after);
    const double apply_us = after.wall_us - before.wall_us;
    log.apply_ms.push_back(apply_us * 1e-3);
    log.iterations.push_back(static_cast<double>(report.iterations));
    log.iter_us.push_back(
        apply_us / std::max<double>(static_cast<double>(report.iterations),
                                    1.0));

    Json reply = Json::make_object();
    Json x = Json::make_array();
    for (const double v : report.solution) {
        x.push_back(Json{v});
    }
    reply["x"] = std::move(x);
    reply["iterations"] = Json{static_cast<std::int64_t>(report.iterations)};
    reply["converged"] = Json{report.converged};
    start = now_us();
    reply.dump();
    log.dump_us.push_back(now_us() - start);
}


mgko::matrix_data<double, mgko::int64> timed_read_mtx(ClientLog& log,
                                                      const std::string& mtx)
{
    std::istringstream stream{mtx};
    const double start = now_us();
    auto data = mgko::read_mtx(stream);
    const double us = now_us() - start;
    log.read_mtx_ms.push_back(us * 1e-3);
    log.read_mtx_mbps.push_back(static_cast<double>(mtx.size()) / us);
    return data;
}


std::unique_ptr<mgko::LinOp> timed_generate(
    ClientLog& log, const char* kind, const Json& config,
    const std::shared_ptr<mgko::Executor>& exec,
    const mgko::matrix_data<double, mgko::int64>& data)
{
    const double start = now_us();
    auto solver = mgko::config::generate_solver(config, exec, data);
    log.generate_ms[kind].push_back((now_us() - start) * 1e-3);
    return solver;
}


/// Checks a /v1/solve reply against the operator and RHS it was asked to
/// solve; `corrupt` perturbs the solution first (self-test).
bool solve_ok(const HttpReply& reply, const Grid& grid,
              const std::vector<double>& b, double reduction, bool corrupt)
{
    if (reply.status != 200 || !reply.complete) {
        return false;
    }
    auto solved = scan_solve_reply(reply.body);
    if (corrupt && !solved.x.empty()) {
        solved.x[0] += 1.0;
    }
    return solved.converged && residual_ok(grid, b, solved.x, reduction);
}


/// Probes the operator layers on one of the workload's operators.
void probe_operator(Report& report, const std::string& mtx)
{
    const auto dev = mgko::bind::device("omp");
    std::istringstream stream{mtx};
    const auto data = mgko::read_mtx(stream);
    probe_operator_layers(report, dev, mgko::bind::matrix_from_data(dev, data),
                          1.0);
}


}  // namespace


// --- serve_hit -----------------------------------------------------------

void run_serve_hit(const Options& options, Report& report)
{
    constexpr double reduction = 1e-6;
    constexpr int rhs_per_operator = 8;
    std::vector<Grid> grids{{32, 32}, {30, 34}, {34, 30}, {28, 36}};
    std::mt19937_64 engine{options.seed};
    std::shuffle(grids.begin(), grids.end(), engine);  // upload order
    const auto config_text =
        solver_config("preconditioner::Jacobi", reduction);
    const auto config = Json::parse(config_text);

    std::vector<std::string> mtx, uploads;
    for (const auto& grid : grids) {
        mtx.push_back(poisson_mtx(grid));
        uploads.push_back("{" + mtx_member(mtx.back()) + "}");
    }
    struct Request {
        std::size_t op;
        std::vector<double> b;
        std::string body;
    };
    std::vector<Request> requests;

    std::unique_ptr<mgko::serve::SolveServer> server;
    std::vector<double> setup_s;
    for (int rep = 0; rep < 31; ++rep) {
        server.reset();
        requests.clear();
        const double start = now_us();
        server = mgko::serve::SolveServer::start();
        for (std::size_t op = 0; op < grids.size(); ++op) {
            const auto handle = upload_handle(
                http_post(server->port(), "/v1/operators", uploads[op]));
            for (int r = 0; r < rhs_per_operator; ++r) {
                Request request{op, random_vector(grids[op].rows(), engine),
                                {}};
                request.body = "{\"config\": " + config_text +
                               ", \"operator\": \"" + handle +
                               "\", \"b\": " + number_array(request.b) + "}";
                requests.push_back(std::move(request));
            }
            // The first solve generates the solver: the one miss.
            const auto& first = requests.back();
            if (!solve_ok(http_post(server->port(), "/v1/solve", first.body),
                          grids[op], first.b, reduction, false)) {
                throw std::runtime_error("serve_hit setup failed");
            }
        }
        setup_s.push_back((now_us() - start) * 1e-6);
    }
    report.metric("setup_s", minimum(setup_s), "s");
    std::shuffle(requests.begin(), requests.end(), engine);

    const auto stats_before = server->stats();
    double plain_start_us = 0.0;
    double plain_end_us = 0.0;
    auto logs = run_clients(
        options,
        [&](unsigned client, ClientLog& log, Mode mode, double deadline) {
            std::size_t next = client * requests.size() / client_count();
            if (mode != Mode::pipeline) {
                while (now_us() < deadline) {
                    const auto& request = requests[next++ % requests.size()];
                    const bool corrupt = options.corrupt && next % 7 == 0;
                    exchange(mode, log, *server, "/v1/solve", request.body,
                             [&](const HttpReply& reply) {
                                 return solve_ok(reply, grids[request.op],
                                                 request.b, reduction,
                                                 corrupt);
                             });
                }
                return;
            }
            std::shared_ptr<mgko::Executor> exec = mgko::OmpExecutor::create();
            std::vector<std::unique_ptr<mgko::LinOp>> solvers;
            for (const auto& text : mtx) {
                solvers.push_back(timed_generate(log, "jacobi", config, exec,
                                                 timed_read_mtx(log, text)));
            }
            while (now_us() < deadline) {
                const auto& request = requests[next++ % requests.size()];
                replay_pipeline(log, request.body, config, exec,
                                solvers[request.op].get(), request.b);
            }
        },
        &plain_start_us, &plain_end_us);
    report_stats(report, stats_before, server->stats());
    report_clients(options, report, logs, plain_start_us, plain_end_us);
    if (options.trace) {
        probe_operator(report, mtx.front());
    }
    server->stop();
}


// --- serve_churn ---------------------------------------------------------

void run_serve_churn(const Options& options, Report& report)
{
    constexpr double reduction = 1e-2;
    constexpr int hits_per_upload = 2;
    // Every upload is a fresh operator to the server, though the text is
    // the same: one size keeps the cycles alike, so a 12-second run holds
    // enough of them for a steady median.
    const Grid grid{128, 128};
    const Grid inline_grid{40, 40};
    const char* const kinds[] = {"jacobi", "ilu", "amg"};
    std::vector<std::string> configs;
    for (const auto* p : {"preconditioner::Jacobi", "preconditioner::Ilu",
                          "preconditioner::Amg"}) {
        configs.push_back(solver_config(p, reduction));
    }

    const auto mtx = poisson_mtx(grid);
    const auto upload = "{" + mtx_member(mtx) + "}";
    const auto inline_member = mtx_member(poisson_mtx(inline_grid));

    std::unique_ptr<mgko::serve::SolveServer> server;
    std::vector<double> setup_s;
    for (int rep = 0; rep < 31; ++rep) {
        server.reset();
        const double start = now_us();
        server = mgko::serve::SolveServer::start();
        // Ready when the smallest operator uploads and solves.
        const auto handle =
            upload_handle(http_post(server->port(), "/v1/operators", upload));
        const std::vector<double> ones(static_cast<std::size_t>(grid.rows()),
                                       1.0);
        if (!solve_ok(http_post(server->port(), "/v1/solve",
                                "{\"config\": " + configs.front() +
                                    ", \"operator\": \"" + handle + "\"}"),
                      grid, ones, reduction, false)) {
            throw std::runtime_error("serve_churn setup failed");
        }
        setup_s.push_back((now_us() - start) * 1e-6);
    }
    report.metric("setup_s", minimum(setup_s), "s");

    // Each client's right-hand sides, made before timing so the clients
    // spend the run sending, waiting and checking.
    struct Rhs {
        std::vector<double> b;
        std::string member;  ///< "b": [...]
    };
    constexpr std::size_t rhs_per_client = 6;
    const auto make_rhs = [](const Grid& g, std::mt19937_64& engine) {
        auto b = random_vector(g.rows(), engine);
        auto member = "\"b\": " + number_array(b);
        return Rhs{std::move(b), std::move(member)};
    };
    std::vector<std::vector<Rhs>> rhs(client_count());
    std::vector<std::vector<Rhs>> inline_rhs(client_count());
    for (unsigned client = 0; client < client_count(); ++client) {
        std::mt19937_64 engine{options.seed * 7919 + client * 31};
        for (std::size_t i = 0; i < rhs_per_client; ++i) {
            rhs[client].push_back(make_rhs(grid, engine));
            inline_rhs[client].push_back(make_rhs(inline_grid, engine));
        }
    }

    const auto stats_before = server->stats();
    double plain_start_us = 0.0;
    double plain_end_us = 0.0;
    auto logs = run_clients(
        options,
        [&](unsigned client, ClientLog& log, Mode mode, double deadline) {
            const auto& own = rhs[client];
            const auto& own_inline = inline_rhs[client];
            std::shared_ptr<mgko::Executor> exec = mgko::OmpExecutor::create();
            // The preconditioner rotates per client, so every client and
            // every seed runs the same mix.
            for (std::size_t cycle = client; now_us() < deadline; ++cycle) {
                const auto kind = cycle % 3;
                if (mode == Mode::pipeline) {
                    const auto config = Json::parse(configs[kind]);
                    auto solver = timed_generate(log, kinds[kind], config,
                                                 exec,
                                                 timed_read_mtx(log, mtx));
                    const auto& r = own[cycle % own.size()];
                    replay_pipeline(log,
                                    "{\"config\": " + configs[kind] + ", " +
                                        r.member + "}",
                                    config, exec, solver.get(), r.b);
                    continue;
                }
                const double cycle_start = now_us();
                bool cycle_ok = true;
                bool ok = false;
                const auto handle = upload_handle(exchange(
                    mode, log, *server, "/v1/operators", upload,
                    [](const HttpReply& r) {
                        return !upload_handle(r).empty();
                    },
                    &ok));
                cycle_ok = cycle_ok && ok;
                // One miss (generation), then hits, then an inline solve.
                for (int solve = 0; !handle.empty() && solve <= hits_per_upload;
                     ++solve) {
                    const auto& r =
                        own[(cycle * (hits_per_upload + 1) + solve) % own.size()];
                    const bool corrupt =
                        options.corrupt && (cycle + solve) % 7 == 0;
                    exchange(mode, log, *server, "/v1/solve",
                             "{\"config\": " + configs[kind] +
                                 ", \"operator\": \"" + handle + "\", " +
                                 r.member + "}",
                             [&](const HttpReply& reply) {
                                 return solve_ok(reply, grid, r.b, reduction,
                                                 corrupt);
                             },
                             &ok);
                    cycle_ok = cycle_ok && ok;
                }
                const auto& r = own_inline[cycle % own_inline.size()];
                exchange(mode, log, *server, "/v1/solve",
                         "{\"config\": " + configs[0] + ", " + inline_member +
                             ", " + r.member + "}",
                         [&](const HttpReply& reply) {
                             return solve_ok(reply, inline_grid, r.b,
                                             reduction, false);
                         },
                         &ok);
                cycle_ok = cycle_ok && ok;
                if (mode == Mode::plain) {
                    log.cycles.add(cycle_start, now_us(), cycle_ok);
                }
            }
        },
        &plain_start_us, &plain_end_us);
    report_stats(report, stats_before, server->stats());
    report_clients(options, report, logs, plain_start_us, plain_end_us);
    if (options.trace) {
        probe_operator(report, mtx);
    }
    server->stop();
}


}  // namespace perfbench
