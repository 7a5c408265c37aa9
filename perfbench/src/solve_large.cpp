// solve_large: one calling thread solves a 3D 7-point Poisson system that
// does not fit in the last-level cache, through bind::config_solver +
// Solver::apply with CG + scalar Jacobi to a fixed residual reduction.  The
// SpMV and BLAS-1 kernels run at memory bandwidth on all threads; serving,
// config and binding work is negligible.  It guards large-matrix thread
// scaling, which a change aimed at small requests must not cost.

#include <cmath>
#include <cstdio>
#include <random>

#include "bindings/api.hpp"
#include "config/json.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace bind = mgko::bind;

namespace {

/// 136^3 = 2.5M rows: CSR plus the seven CG + Jacobi vectors come to about
/// 345 MiB, above a 300 MiB last-level cache.
constexpr std::int64_t grid = 136;
constexpr double reduction = 1e-2;


/// The 3D Poisson operator, generated directly in row-major order.
mgko::matrix_data<double, mgko::int64> make_operator()
{
    const std::int64_t n = grid * grid * grid;
    mgko::matrix_data<double, mgko::int64> data{mgko::dim2{n, n}};
    data.entries.reserve(static_cast<std::size_t>(7 * n));
    const std::int64_t plane = grid * grid;
    for (std::int64_t i = 0; i < grid; ++i) {
        for (std::int64_t j = 0; j < grid; ++j) {
            for (std::int64_t k = 0; k < grid; ++k) {
                const auto row = (i * grid + j) * grid + k;
                if (i > 0) data.add(row, row - plane, -1.0);
                if (j > 0) data.add(row, row - grid, -1.0);
                if (k > 0) data.add(row, row - 1, -1.0);
                data.add(row, row, 6.0);
                if (k + 1 < grid) data.add(row, row + 1, -1.0);
                if (j + 1 < grid) data.add(row, row + grid, -1.0);
                if (i + 1 < grid) data.add(row, row + plane, -1.0);
            }
        }
    }
    return data;
}

}  // namespace


void run_solve_large(const Options& options, Report& report)
{
    const std::int64_t n = grid * grid * grid;
    std::vector<double> rhs(static_cast<std::size_t>(n));
    {
        std::mt19937_64 engine{options.seed};
        std::uniform_real_distribution<double> dist{-1.0, 1.0};
        for (auto& v : rhs) {
            v = dist(engine);
        }
    }
    char config_text[160];
    std::snprintf(config_text, sizeof(config_text),
                  R"({"type": "solver::Cg", "max_iters": 2000, )"
                  R"("reduction_factor": %g, "preconditioner": )"
                  R"({"type": "preconditioner::Jacobi"}})",
                  reduction);
    const auto config = mgko::config::Json::parse(config_text);

    bind::Device dev;
    bind::Matrix mtx;
    bind::Solver solver;
    bind::Tensor b;
    double nnz = 0.0;
    {
        const auto data = make_operator();
        nnz = static_cast<double>(data.num_stored());
        std::vector<double> setup_s, generate_ms;
        for (int rep = 0; rep < 3; ++rep) {
            solver = {};
            mtx = {};
            b = {};
            const double start = now_us();
            dev = bind::device("omp");
            mtx = bind::matrix_from_data(dev, data, "double", "Csr", "int32");
            const double generate_start = now_us();
            solver = bind::config_solver(dev, mtx, config);
            generate_ms.push_back((now_us() - generate_start) * 1e-3);
            b = bind::as_tensor(dev, rhs, mgko::dim2{n, 1}, "double");
            setup_s.push_back((now_us() - start) * 1e-6);
        }
        report.metric("setup_s", minimum(setup_s), "s");
        report.metric("config.generate_solver_ms.jacobi",
                      median(generate_ms), "ms");
    }
    const double csr_bytes = nnz * 12.0 + static_cast<double>(n + 1) * 4.0;
    const double vector_bytes = 7.0 * static_cast<double>(n) * 8.0;
    report.meta("rows", static_cast<double>(n));
    report.meta("nnz", nnz);
    report.meta("working_set_mib",
                (csr_bytes + vector_bytes) / (1024.0 * 1024.0));
    report.meta("reduction_factor", reduction);

    std::vector<double> ax(static_cast<std::size_t>(n));
    std::int64_t solves = 0;
    double iterations = 0.0;
    CounterTotals counters;
    // One solve from a zero start vector; the op is the allocation of x
    // and the bound solve, the check is outside the latency.
    const auto solve = [&](Tracer* tracer, double* solve_us, bool corrupt) {
        const auto& exec = *dev.executor();
        const auto before = snapshot(exec);
        auto x = bind::as_tensor(dev, mgko::dim2{n, 1}, "double", 0.0);
        bind::Logger logger;
        {
            Scoped span{tracer, "solver.apply"};
            const auto at_apply = snapshot(exec);
            logger = solver.apply(b, x).first;
            const auto after = snapshot(exec);
            if (tracer) {
                tracer->derived(span.index(), "core.kernels",
                                after.kernel_us - at_apply.kernel_us);
                counters.add(at_apply, after);
            }
            *solve_us = after.wall_us - before.wall_us;
        }
        ++solves;
        iterations = static_cast<double>(logger.num_iterations());
        Scoped span{tracer, "bench.check"};
        auto host = x.to_host();
        if (corrupt) {
            host[static_cast<std::size_t>(n / 2)] += 1.0;
        }
        poisson3d_apply(grid, grid, grid, host.data(), ax.data());
        const double residual = relative_residual(rhs, ax);
        return logger.converged() && residual <= reduction * 1.05;
    };

    double warm_us = 0.0;
    solve(nullptr, &warm_us, false);
    report.meta("warmup_solve_ms", warm_us * 1e-3);
    report.meta("iterations", iterations);

    LatencyLog plain;
    std::vector<double> traced_us;
    const double start = now_us();
    const double plain_end =
        start + options.seconds * 1e6 * (options.trace ? 0.5 : 1.0);
    // At least two samples per half, so the median is never one solve.
    while (plain.ok.size() < 2 || now_us() < plain_end) {
        double solve_us = 0.0;
        const double op_start = now_us();
        const bool corrupt = options.corrupt && plain.ok.size() % 3 == 0;
        const bool ok = solve(nullptr, &solve_us, corrupt);
        plain.add(op_start, op_start + solve_us, ok);
        report.count(ok);
    }
    report_latency(report, plain, start, now_us());
    if (!options.trace) {
        return;
    }

    Tracer tracer;
    // The traced loop's own wall time, which the breakdown must match.
    double traced_wall_us = 0.0;
    double calls = 0.0;
    {
        BindingCallCounter bound;
        const double traced_start = now_us();
        const double end = traced_start + options.seconds * 0.5e6;
        while (traced_us.size() < 2 || now_us() < end) {
            const int root =
                tracer.begin_op("op.solve", static_cast<std::int64_t>(solves));
            const double calls_before = bound.calls();
            double solve_us = 0.0;
            const bool ok = solve(&tracer, &solve_us, false);
            calls += bound.calls() - calls_before;
            tracer.end(root);
            report.count(ok);
            traced_us.push_back(solve_us);
        }
        traced_wall_us = now_us() - traced_start;
    }
    const double ops = static_cast<double>(traced_us.size());
    report.metric("solver.iterations", iterations, "count");
    report.metric("solver.us_per_iter", median(plain.latency_us) / iterations, "us");
    report.metric("bindings.calls_per_op", calls / ops, "count");
    report_core(report, counters);
    report_breakdown(report, breakdown({&tracer}), traced_wall_us);
    report_trace_overhead(report, plain.latency_us, traced_us);

    // The configuration is the JSON this workload hands the config layer.
    const std::string text = config.dump();
    const auto parse_us = median(
        time_calls([&] { mgko::config::Json::parse(text); }, 0.05));
    report.metric("config.json_parse_us", parse_us, "us");
    report.metric("config.json_parse_mbps",
                  static_cast<double>(text.size()) / parse_us, "MB/s");
    report.metric("config.json_dump_us",
                  median(time_calls([&] { config.dump(); }, 0.05)), "us");
    probe_operator_layers(report, dev, mtx, 2.0);
    write_spans(options, {&tracer});
}


}  // namespace perfbench
