#include "common.hpp"

#include <omp.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "core/executor.hpp"

namespace perfbench {


double now_us()
{
    static const auto epoch = bench_clock::now();
    return std::chrono::duration<double, std::micro>(bench_clock::now() -
                                                     epoch)
        .count();
}


double quantile(std::vector<double> values, double q)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const double position = q * static_cast<double>(values.size() - 1);
    const auto lower = static_cast<std::size_t>(std::floor(position));
    const auto upper = std::min(lower + 1, values.size() - 1);
    const double frac = position - static_cast<double>(lower);
    return values[lower] + frac * (values[upper] - values[lower]);
}


// --- report --------------------------------------------------------------

const std::vector<MetricSpec>& end_to_end_specs()
{
    static const std::vector<MetricSpec> specs{
        {"ops_per_s", "1/s"},     {"p50_ms", "ms"},  {"p90_ms", "ms"},
        {"success_rate", "ratio"}, {"setup_s", "s"}, {"peak_rss_mb", "MiB"}};
    return specs;
}

const std::vector<MetricSpec>& per_layer_specs()
{
    static const std::vector<MetricSpec> specs{
        {"serve.roundtrip_us", "us"},
        {"serve.handle_us", "us"},
        {"serve.transport_us", "us"},
        {"serve.cache_hit_ratio", "ratio"},
        {"serve.cache_hits", "count"},
        {"serve.cache_misses", "count"},
        {"serve.evictions", "count"},
        {"serve.solver_generations", "count"},
        {"serve.rejected_429", "count"},
        {"serve.queue_peak", "count"},
        {"config.json_parse_us", "us"},
        {"config.json_parse_mbps", "MB/s"},
        {"config.json_dump_us", "us"},
        {"config.generate_solver_ms.jacobi", "ms"},
        {"config.generate_solver_ms.ilu", "ms"},
        {"config.generate_solver_ms.amg", "ms"},
        {"config.apply_solver_ms", "ms"},
        {"core.read_mtx_ms", "ms"},
        {"core.read_mtx_mbps", "MB/s"},
        {"core.kernel_launches_per_op", "count"},
        {"core.dispatch_us_per_launch", "us"},
        {"core.kernel_share", "ratio"},
        {"core.sys_allocs_per_op", "count"},
        {"core.pool_hit_ratio", "ratio"},
        {"solver.iterations", "count"},
        {"solver.us_per_iter", "us"},
        {"matrix.spmv_us", "us"},
        {"matrix.spmv_gflops", "GFLOP/s"},
        {"matrix.spmv_gbps_computed", "GB/s"},
        {"matrix.spmv_gbps_computed_1t", "GB/s"},
        {"matrix.spmv_thread_speedup", "ratio"},
        {"preconditioner.apply_us", "us"},
        {"bindings.call_us", "us"},
        {"bindings.overhead_us", "us"},
        {"bindings.calls_per_op", "count"},
        {"pyside.ms_per_iter", "ms"},
        {"self_us.serve", "us"},
        {"self_us.core", "us"},
        {"self_us.bindings", "us"},
        {"self_us.pyside", "us"},
        {"self_us.bench", "us"},
        {"unattributed_us", "us"},
        {"traced_op_us", "us"},
        {"trace_closure_pct", "%"},
        {"trace_overhead_pct", "%"}};
    return specs;
}


Report::Report()
{
    for (const auto& spec : per_layer_specs()) {
        metrics_[spec.name] = Value{0.0, spec.unit, false};
    }
}


void Report::metric(const std::string& name, double value,
                    const std::string& unit)
{
    metrics_[name] = Value{value, unit};
}

void Report::meta(const std::string& key, const std::string& value)
{
    std::string quoted = "\"";
    for (const char c : value) {
        if (c == '"' || c == '\\') {
            quoted += '\\';
        }
        quoted += c;
    }
    meta_.emplace_back(key, quoted + "\"");
}

void Report::meta(const std::string& key, double value)
{
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.10g", value);
    meta_.emplace_back(key, buffer);
}


void Report::print(bool trace) const
{
    std::string line = "{";
    for (std::size_t i = 0; i < meta_.size(); ++i) {
        line += (i ? ", \"" : "\"") + meta_[i].first + "\": " +
                meta_[i].second;
    }
    std::printf("meta %s}\n", line.c_str());
    const double error_rate =
        attempted_ ? static_cast<double>(failed_) /
                         static_cast<double>(attempted_)
                   : 1.0;
    std::printf("metric %-34s %.6g %s\n", "error_rate", error_rate, "ratio");
    std::string idle;
    for (const auto& [name, value] : metrics_) {
        if (value.measured) {
            std::printf("metric %-34s %.6g %s\n", name.c_str(), value.value,
                        value.unit.c_str());
        } else if (trace) {
            idle += " " + name;
        }
    }
    if (!idle.empty()) {
        std::printf("not exercised by this workload (reported as 0):%s\n",
                    idle.c_str());
    }
    const auto& specs = trace ? per_layer_specs() : end_to_end_specs();
    bool complete = true;
    std::string result = "{\"correct\": ";
    std::string body;
    for (const auto& spec : specs) {
        const auto& name = spec.name;
        auto found = metrics_.find(name);
        if (found == metrics_.end()) {
            std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                         name.c_str());
            complete = false;
            continue;
        }
        char buffer[96];
        std::snprintf(buffer, sizeof(buffer), "%.17g",
                      std::isfinite(found->second.value) ? found->second.value
                                                         : 0.0);
        body += (body.empty() ? "\"" : ", \"") + name +
                "\": {\"value\": " + buffer + ", \"unit\": \"" +
                found->second.unit + "\"}";
    }
    const bool correct = complete && failed_ == 0 && attempted_ > 0;
    result += correct ? "true" : "false";
    result += ", \"attempted\": " + std::to_string(attempted_) +
              ", \"failed\": " + std::to_string(failed_) +
              ", \"metrics\": {" + body + "}}";
    std::printf("%s\n", result.c_str());
    std::fflush(stdout);
}


// --- run metadata --------------------------------------------------------

namespace {

std::string load_average()
{
    std::ifstream in{"/proc/loadavg"};
    std::string one, five, fifteen;
    in >> one >> five >> fifteen;
    return one + " " + five + " " + fifteen;
}

/// Total and stolen CPU ticks from the first line of /proc/stat; steal is
/// time a virtual CPU waited for the host while this guest wanted to run.
std::pair<double, double> cpu_ticks()
{
    std::ifstream in{"/proc/stat"};
    std::string label;
    in >> label;
    double total = 0.0, steal = 0.0, value = 0.0;
    for (int field = 0; field < 8 && in >> value; ++field) {
        total += value;
        steal = field == 7 ? value : steal;
    }
    return {total, steal};
}

std::pair<double, double> run_start_ticks;

/// Last-level cache size in bytes (0 when the system does not say).
double llc_bytes()
{
    // The highest cache index of cpu0 is the last level.
    double best = 0.0;
    for (int index = 0; index < 8; ++index) {
        std::ifstream in{"/sys/devices/system/cpu/cpu0/cache/index" +
                         std::to_string(index) + "/size"};
        std::string text;
        if (!(in >> text)) {
            break;
        }
        double value = std::strtod(text.c_str(), nullptr);
        if (text.back() == 'K') {
            value *= 1024.0;
        } else if (text.back() == 'M') {
            value *= 1024.0 * 1024.0;
        }
        best = std::max(best, value);
    }
    if (best == 0.0) {
        best = static_cast<double>(sysconf(_SC_LEVEL3_CACHE_SIZE));
    }
    return std::max(best, 0.0);
}

}  // namespace


double peak_rss_mb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}


void record_run_start(Report& report, const Options& options)
{
    report.meta("workload", options.workload);
    report.meta("seed", static_cast<double>(options.seed));
    report.meta("seconds", options.seconds);
    report.meta("trace", options.trace ? 1.0 : 0.0);
    report.meta("commit", options.commit);
    report.meta("nproc",
                static_cast<double>(std::thread::hardware_concurrency()));
    report.meta("omp_max_threads", static_cast<double>(omp_get_max_threads()));
    report.meta("llc_mib", llc_bytes() / (1024.0 * 1024.0));
    report.meta("loadavg_start", load_average());
    run_start_ticks = cpu_ticks();
}


void record_run_end(Report& report)
{
    report.meta("loadavg_end", load_average());
    const auto [total, steal] = cpu_ticks();
    const double ticks = total - run_start_ticks.first;
    report.meta("cpu_steal_pct",
                ticks > 0 ? 100.0 * (steal - run_start_ticks.second) / ticks
                          : 0.0);
}


// --- tracing -------------------------------------------------------------

int Tracer::begin_op(const char* name, std::int64_t op_id)
{
    op_ = op_id;
    open_.clear();
    return begin(name);
}

int Tracer::begin(const char* name)
{
    const int parent = open_.empty() ? -1 : open_.back();
    const double start = now_us();
    spans_.push_back(Span{name, start, start, parent, op_, false});
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
}

void Tracer::end(int index)
{
    spans_[static_cast<std::size_t>(index)].end_us = now_us();
    while (!open_.empty()) {
        const int top = open_.back();
        open_.pop_back();
        if (top == index) {
            break;
        }
    }
}

int Tracer::derived(int parent, const char* name, double duration_us)
{
    const double start = spans_[static_cast<std::size_t>(parent)].start_us;
    spans_.push_back(
        Span{name, start, start + std::max(duration_us, 0.0), parent, op_,
             true});
    return static_cast<int>(spans_.size() - 1);
}


Breakdown breakdown(const std::vector<const Tracer*>& tracers)
{
    Breakdown parts;
    for (const auto* tracer : tracers) {
        const auto& spans = tracer->spans();
        std::vector<double> child_us(spans.size(), 0.0);
        for (const auto& span : spans) {
            if (span.parent >= 0) {
                child_us[static_cast<std::size_t>(span.parent)] +=
                    span.end_us - span.start_us;
            }
        }
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const auto& span = spans[i];
            const double duration = span.end_us - span.start_us;
            // Children are timed inside their parent, so a negative self
            // time can only come from a reported duration exceeding the
            // timed one; it is clamped and shows up as closure error.
            const double self = std::max(duration - child_us[i], 0.0);
            const std::string name = span.name;
            const auto layer = name.substr(0, name.find('.'));
            if (span.parent < 0) {
                parts.unattributed_us += self;
                parts.span_wall_us += duration;
                ++parts.ops;
            } else {
                parts.self_us[layer] += self;
            }
        }
    }
    return parts;
}


void report_breakdown(Report& report, const Breakdown& parts,
                      double phase_wall_us)
{
    const double ops = std::max<double>(static_cast<double>(parts.ops), 1.0);
    double sum = parts.unattributed_us;
    // solver spans occur only in solve_large, which is not in
    // BENCHMARK.json; its self_us.solver is a readable line only.
    for (const char* layer :
         {"serve", "core", "solver", "bindings", "pyside", "bench"}) {
        auto found = parts.self_us.find(layer);
        const double value = found == parts.self_us.end() ? 0.0
                                                          : found->second;
        report.metric(std::string{"self_us."} + layer, value / ops, "us");
    }
    for (const auto& [layer, value] : parts.self_us) {
        sum += value;
    }
    report.metric("unattributed_us", parts.unattributed_us / ops, "us");
    report.metric("traced_op_us", parts.span_wall_us / ops, "us");
    report.metric("trace_closure_pct",
                  phase_wall_us > 0.0
                      ? 100.0 * std::abs(sum - phase_wall_us) / phase_wall_us
                      : 0.0,
                  "%");
}


void write_spans(const Options& options,
                 const std::vector<const Tracer*>& tracers)
{
    const std::string path = options.out_dir + "/trace-" + options.workload +
                             "-seed" + std::to_string(options.seed) +
                             ".json";
    std::ofstream out{path};
    out << "{\"workload\": \"" << options.workload << "\", \"spans\": [";
    bool first = true;
    char buffer[256];
    for (std::size_t thread = 0; thread < tracers.size(); ++thread) {
        for (const auto& span : tracers[thread]->spans()) {
            std::snprintf(buffer, sizeof(buffer),
                          "%s\n{\"name\": \"%s\", \"start_us\": %.3f, "
                          "\"end_us\": %.3f, \"parent\": %d, \"op\": %lld, "
                          "\"thread\": %zu, \"derived\": %s}",
                          first ? "" : ",", span.name, span.start_us,
                          span.end_us, span.parent,
                          static_cast<long long>(span.op), thread,
                          span.derived ? "true" : "false");
            out << buffer;
            first = false;
        }
    }
    out << "\n]}\n";
}


// --- executor counters ---------------------------------------------------

CounterSnapshot snapshot(const mgko::Executor& exec)
{
    CounterSnapshot s;
    s.wall_us = now_us();
    s.kernel_us = exec.real_kernel_wall_ns() / 1000.0;
    s.launches = static_cast<double>(exec.num_kernel_launches());
    s.sys_allocs = static_cast<double>(exec.num_allocations());
    s.pool_hits = static_cast<double>(exec.pool_hits());
    s.pool_misses = static_cast<double>(exec.pool_misses());
    return s;
}


void CounterTotals::add(const CounterSnapshot& before,
                        const CounterSnapshot& after)
{
    sum.wall_us += after.wall_us - before.wall_us;
    sum.kernel_us += after.kernel_us - before.kernel_us;
    sum.launches += after.launches - before.launches;
    sum.sys_allocs += after.sys_allocs - before.sys_allocs;
    sum.pool_hits += after.pool_hits - before.pool_hits;
    sum.pool_misses += after.pool_misses - before.pool_misses;
    ++ops;
}


void CounterTotals::merge(const CounterTotals& other)
{
    // A zero "before" snapshot makes add() take other's sums as one delta.
    add(CounterSnapshot{}, other.sum);
    ops += other.ops - 1;
}


void report_core(Report& report, const CounterTotals& totals)
{
    const double ops = std::max<double>(static_cast<double>(totals.ops), 1.0);
    const auto& s = totals.sum;
    report.metric("core.kernel_launches_per_op", s.launches / ops, "count");
    report.metric("core.dispatch_us_per_launch",
                  s.launches > 0 ? (s.wall_us - s.kernel_us) / s.launches
                                 : 0.0,
                  "us");
    report.metric("core.kernel_share",
                  s.wall_us > 0 ? s.kernel_us / s.wall_us : 0.0, "ratio");
    report.metric("core.sys_allocs_per_op", s.sys_allocs / ops, "count");
    const double requests = s.pool_hits + s.pool_misses;
    report.metric("core.pool_hit_ratio",
                  requests > 0 ? s.pool_hits / requests : 0.0, "ratio");
}


// --- reference products --------------------------------------------------

void poisson2d_apply(std::int64_t nx, std::int64_t ny, const double* x,
                     double* y)
{
    for (std::int64_t i = 0; i < nx; ++i) {
        for (std::int64_t j = 0; j < ny; ++j) {
            const auto row = i * ny + j;
            double sum = 4.0 * x[row];
            if (i > 0) sum -= x[row - ny];
            if (i + 1 < nx) sum -= x[row + ny];
            if (j > 0) sum -= x[row - 1];
            if (j + 1 < ny) sum -= x[row + 1];
            y[row] = sum;
        }
    }
}


void poisson3d_apply(std::int64_t nx, std::int64_t ny, std::int64_t nz,
                     const double* x, double* y)
{
    const auto plane = ny * nz;
#pragma omp parallel for schedule(static)
    for (std::int64_t i = 0; i < nx; ++i) {
        for (std::int64_t j = 0; j < ny; ++j) {
            for (std::int64_t k = 0; k < nz; ++k) {
                const auto row = (i * ny + j) * nz + k;
                double sum = 6.0 * x[row];
                if (i > 0) sum -= x[row - plane];
                if (i + 1 < nx) sum -= x[row + plane];
                if (j > 0) sum -= x[row - nz];
                if (j + 1 < ny) sum -= x[row + nz];
                if (k > 0) sum -= x[row - 1];
                if (k + 1 < nz) sum -= x[row + 1];
                y[row] = sum;
            }
        }
    }
}


namespace {

double norm2(const std::vector<double>& v)
{
    double sum = 0.0;
    for (const double value : v) {
        sum += value * value;
    }
    return std::sqrt(sum);
}

}  // namespace


double relative_residual(const std::vector<double>& b,
                         const std::vector<double>& ax)
{
    if (b.size() != ax.size()) {
        return INFINITY;
    }
    double diff = 0.0;
    for (std::size_t i = 0; i < b.size(); ++i) {
        const double d = b[i] - ax[i];
        diff += d * d;
    }
    const double b_norm = norm2(b);
    return b_norm > 0.0 ? std::sqrt(diff) / b_norm : INFINITY;
}


}  // namespace perfbench
