// bind_small: Rayleigh-Ritz subspace iteration written against the
// binding layer (pyside::rayleigh_ritz), for a fixed iteration count, on a
// 1024-row operator.  Each eigen-run makes over a thousand bound calls
// whose kernels take microseconds, so boxing, name lookup, the GIL and
// per-call allocation dominate: the paper's Fig. 5b/5c cost.  The serving
// path never enters the binding layer, so this is the workload that
// measures it.

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>

#include "bindings/api.hpp"
#include "probes.hpp"
#include "pyside/rayleigh_ritz.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace bind = mgko::bind;

namespace {

constexpr mgko::size_type rows = 1024;
constexpr mgko::size_type subspace = 4;
constexpr mgko::size_type iterations = 100;
/// The dominant eigenvalues; the rest of the spectrum lies in [0.5, 2.5),
/// so the subspace error contracts by 2.5/5 per iteration and 100
/// iterations leave the Ritz values exact to rounding.
constexpr double dominant[subspace] = {8.0, 7.0, 6.0, 5.0};


/// A symmetric operator with a closed-form spectrum: rows j and
/// j + rows/2 form a 2x2 block Q diag(a, b) Q^T with a rotation angle that
/// differs per block, so the eigenvalues are exactly the chosen a and b
/// while the eigenvectors mix the two rows.  The dominant values are
/// scattered over the blocks by a fixed shuffle.
mgko::matrix_data<double, mgko::int64> make_operator()
{
    std::vector<double> spectrum;
    const auto rest = rows - subspace;
    for (mgko::size_type i = 0; i < rest; ++i) {
        spectrum.push_back(0.5 + 2.0 * static_cast<double>(i) /
                                     static_cast<double>(rest));
    }
    spectrum.insert(spectrum.end(), std::begin(dominant), std::end(dominant));
    std::mt19937_64 shuffle{7};
    std::shuffle(spectrum.begin(), spectrum.end(), shuffle);

    mgko::matrix_data<double, mgko::int64> data{mgko::dim2{rows, rows}};
    const auto half = rows / 2;
    for (mgko::size_type j = 0; j < half; ++j) {
        const double a = spectrum[static_cast<std::size_t>(2 * j)];
        const double b = spectrum[static_cast<std::size_t>(2 * j + 1)];
        const double angle = 0.3 + 1.1 * static_cast<double>(j);
        const double c = std::cos(angle);
        const double s = std::sin(angle);
        data.add(j, j, a * c * c + b * s * s);
        data.add(j, j + half, (a - b) * c * s);
        data.add(j + half, j, (a - b) * c * s);
        data.add(j + half, j + half, a * s * s + b * c * c);
    }
    data.sort_row_major();
    return data;
}


bool check(const mgko::pyside::eig_result& result)
{
    if (result.eigenvalues.size() != subspace ||
        result.iterations != iterations) {
        return false;
    }
    for (mgko::size_type i = 0; i < subspace; ++i) {
        const double error =
            std::abs(result.eigenvalues[static_cast<std::size_t>(i)] -
                     dominant[i]);
        if (!(error <= 1e-9 * dominant[0])) {
            return false;
        }
    }
    return true;
}


/// A one-iteration run cannot have converged, but its Ritz values must lie
/// within the operator's spectrum [0.5, 8].
bool within_spectrum(const mgko::pyside::eig_result& result)
{
    if (result.eigenvalues.size() != subspace) {
        return false;
    }
    for (const double value : result.eigenvalues) {
        if (!(value >= 0.5 * (1.0 - 1e-12) &&
              value <= dominant[0] * (1.0 + 1e-12))) {
            return false;
        }
    }
    return true;
}

}  // namespace


void run_bind_small(const Options& options, Report& report)
{
    const auto data = make_operator();
    bind::Device dev;
    bind::Matrix a;
    std::uint64_t run = 0;
    const auto eigen_run = [&] {
        return mgko::pyside::rayleigh_ritz(dev, a, subspace, iterations, 0.0,
                                           options.seed * 1000003 + run++);
    };
    // Set-up is the device, the operator upload and a first, one-iteration
    // eigen-run, which fills the new executor's pool.  Each takes well
    // under a millisecond, so the fastest of a thousand is reported: they
    // span a quarter second, which a short stall of a shared host does not
    // cover.
    std::vector<double> setup_s;
    for (int rep = 0; rep < 1001; ++rep) {
        const double start = now_us();
        dev = bind::device("omp");
        a = bind::matrix_from_data(dev, data, "double", "Csr", "int32");
        if (!within_spectrum(mgko::pyside::rayleigh_ritz(
                dev, a, subspace, 1, 0.0, options.seed + rep))) {
            throw std::runtime_error("bind_small set-up run is wrong");
        }
        setup_s.push_back((now_us() - start) * 1e-6);
    }
    report.metric("setup_s", minimum(setup_s), "s");
    // The first full eigen-run is not timed.
    if (!check(eigen_run())) {
        throw std::runtime_error("bind_small warm-up run is wrong");
    }
    report.meta("rows", static_cast<double>(rows));
    report.meta("subspace", static_cast<double>(subspace));
    report.meta("eigen_iterations", static_cast<double>(iterations));

    const auto& exec = *dev.executor();
    Tracer tracer;
    CounterTotals counters;
    double calls = 0.0;
    LatencyLog plain;
    std::vector<double> traced_us;
    const double start = now_us();
    const double plain_end =
        start + options.seconds * 1e6 * (options.trace ? 0.5 : 1.0);
    const double end = start + options.seconds * 1e6;

    // Untraced loop (the whole run, or its first half when tracing).
    while (now_us() < plain_end) {
        const double op_start = now_us();
        auto result = eigen_run();
        const double op_end = now_us();
        if (options.corrupt && run % 7 == 0) {
            result.eigenvalues[0] += 1e-3;
        }
        const bool ok = check(result);
        report.count(ok);
        plain.add(op_start, op_end, ok);
    }
    const double plain_end_us = now_us();

    // The traced loop's own wall time, which the breakdown must match.
    double traced_wall_us = 0.0;
    if (options.trace) {
        BindingCallCounter bound;
        const double traced_start = now_us();
        while (now_us() < end) {
            const int root =
                tracer.begin_op("op.eigen", static_cast<std::int64_t>(run));
            const auto before = snapshot(exec);
            const double calls_before = bound.calls();
            const double bound_before = bound.wall_us();
            mgko::pyside::eig_result result;
            {
                Scoped span{&tracer, "pyside.rayleigh_ritz"};
                result = eigen_run();
                const auto after = snapshot(exec);
                traced_us.push_back(after.wall_us - before.wall_us);
                const int calls_span = tracer.derived(
                    span.index(), "bindings.calls",
                    bound.wall_us() - bound_before);
                tracer.derived(calls_span, "core.kernels",
                               after.kernel_us - before.kernel_us);
                counters.add(before, after);
                calls += bound.calls() - calls_before;
            }
            bool ok = false;
            {
                Scoped span{&tracer, "bench.check"};
                ok = check(result);
            }
            tracer.end(root);
            report.count(ok);
        }
        traced_wall_us = now_us() - traced_start;
    }
    report_latency(report, plain, start, plain_end_us);

    if (options.trace) {
        const auto ops = static_cast<double>(std::max<std::size_t>(
            traced_us.size(), 1));
        report.metric("pyside.ms_per_iter",
                      median(plain.latency_us) * 1e-3 / iterations, "ms");
        report.metric("solver.iterations", static_cast<double>(iterations),
                      "count");
        report.metric("solver.us_per_iter", median(plain.latency_us) / iterations,
                      "us");
        report.metric("bindings.calls_per_op", calls / ops, "count");
        report_core(report, counters);
        report_breakdown(report, breakdown({&tracer}), traced_wall_us);
        report_trace_overhead(report, plain.latency_us, traced_us);
        probe_operator_layers(report, dev, a, 1.0);
        write_spans(options, {&tracer});
    }
}


}  // namespace perfbench
