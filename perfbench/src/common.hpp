// Shared harness of the repository benchmark: options, timing, sample
// statistics, the metric report, span tracing, run metadata and the
// independent reference products used to check every output.
//
// The benchmark talks to mgko only through its public entry points; the
// reference stencil products below are written out here on purpose so a
// defect in the library's own matrix code cannot make a wrong solution
// look right.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace mgko {
class Executor;
}

namespace perfbench {


using bench_clock = std::chrono::steady_clock;

/// Microseconds since the first call in the process (steady_clock).
double now_us();


struct Options {
    std::string workload;
    std::uint64_t seed{1};
    double seconds{10.0};
    bool trace{false};
    /// Self-test hook: the benchmark corrupts some of the solutions it
    /// receives before checking them, so the checks must count failures.
    bool corrupt{false};
    std::string commit{"unknown"};
    /// Directory the traced pass writes its span file into.
    std::string out_dir{"."};
};


/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 for
/// an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(const std::vector<double>& values)
{
    return quantile(values, 0.5);
}
inline double minimum(const std::vector<double>& values)
{
    return quantile(values, 0.0);
}


struct MetricSpec {
    std::string name;
    std::string unit;
};

/// Metrics the result object carries, in BENCHMARK.json order.
const std::vector<MetricSpec>& end_to_end_specs();
const std::vector<MetricSpec>& per_layer_specs();


/// Collects the metrics, counts and metadata of one run and prints them.
class Report {
public:
    /// Sets every per-layer metric to 0: the value of a layer the
    /// workload does not exercise.  Workloads overwrite what they measure.
    Report();

    void metric(const std::string& name, double value, const std::string& unit);
    void meta(const std::string& key, const std::string& value);
    void meta(const std::string& key, double value);

    /// Records one attempted operation and whether it succeeded.
    void count(bool ok) { count(1, ok ? 0 : 1); }
    void count(std::uint64_t attempted, std::uint64_t failed)
    {
        attempted_ += attempted;
        failed_ += failed;
    }
    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

    /// Prints metadata and every measured metric as readable lines, then
    /// the result object as the last line.  The result carries exactly the
    /// end-to-end metrics (trace off) or the per-layer metrics (trace on).
    void print(bool trace) const;

private:
    struct Value {
        double value;
        std::string unit;
        bool measured{true};
    };
    std::map<std::string, Value> metrics_;
    std::vector<std::pair<std::string, std::string>> meta_;
    std::uint64_t attempted_{0};
    std::uint64_t failed_{0};
};


/// Records nproc, OpenMP threads, LLC size, seed, commit, the load average
/// at start and end, and the share of CPU time the host stole in between.
void record_run_start(Report& report, const Options& options);
void record_run_end(Report& report);
/// Peak resident set size of the process so far, MiB.
double peak_rss_mb();


// --- tracing -------------------------------------------------------------
//
// A span is recorded by the benchmark around one call it makes into a
// layer.  Its layer is the part of its name before the first '.'; root
// spans ("op.*") belong to no layer, so their self time is the
// unattributed time.  A derived span carries a duration the program
// reported (kernel wall time from executor counters, or the handler and
// kernel times of a served request) rather than one the benchmark timed;
// it is placed at its parent's start and only its duration is used.

struct Span {
    const char* name;
    double start_us;
    double end_us;
    int parent;
    std::int64_t op;
    bool derived;
};


class Tracer {
public:
    /// Opens a root span for a new operation; returns its index.
    int begin_op(const char* name, std::int64_t op_id);
    int begin(const char* name);
    void end(int index);
    /// Adds a derived child of span `parent`; returns its index.
    int derived(int parent, const char* name, double duration_us);

    const std::vector<Span>& spans() const { return spans_; }

private:
    std::vector<Span> spans_;
    std::vector<int> open_;
    std::int64_t op_{-1};
};


/// RAII span on an optional tracer (null: untraced, no clock reads).
class Scoped {
public:
    Scoped(Tracer* tracer, const char* name)
        : tracer_{tracer}, index_{tracer_ ? tracer_->begin(name) : -1}
    {}
    ~Scoped()
    {
        if (tracer_) {
            tracer_->end(index_);
        }
    }
    Scoped(const Scoped&) = delete;
    Scoped& operator=(const Scoped&) = delete;

    int index() const { return index_; }

private:
    Tracer* tracer_;
    int index_;
};


/// Layer self times of a set of traced operations.
struct Breakdown {
    std::map<std::string, double> self_us;  ///< summed over ops, by layer
    double unattributed_us{0.0};
    double span_wall_us{0.0};  ///< summed root durations
    std::int64_t ops{0};
};

Breakdown breakdown(const std::vector<const Tracer*>& tracers);

/// Reports the breakdown per traced op: `self_us.<layer>` for every
/// layer name, `unattributed_us`, `traced_op_us`, and `trace_closure_pct`,
/// the gap between the parts and `phase_wall_us` as a share of the latter.
/// `phase_wall_us` is the traced loop's wall time read around the whole
/// loop (summed over its threads), so time no span covers, such as work
/// between operations, shows as a gap.
void report_breakdown(Report& report, const Breakdown& parts,
                      double phase_wall_us);

/// Writes every span as one JSON document under options.out_dir.
void write_spans(const Options& options,
                 const std::vector<const Tracer*>& tracers);


// --- executor counters ---------------------------------------------------

/// A snapshot of an executor's public counters and the wall clock.
struct CounterSnapshot {
    double wall_us{0.0};
    double kernel_us{0.0};
    double launches{0.0};
    double sys_allocs{0.0};
    double pool_hits{0.0};
    double pool_misses{0.0};
};
CounterSnapshot snapshot(const mgko::Executor& exec);

/// Accumulates counter deltas over many operations of one workload.
struct CounterTotals {
    CounterSnapshot sum;
    std::int64_t ops{0};
    void add(const CounterSnapshot& before, const CounterSnapshot& after);
    void merge(const CounterTotals& other);
};

/// core.kernel_launches_per_op, core.dispatch_us_per_launch,
/// core.kernel_share, core.sys_allocs_per_op and core.pool_hit_ratio.
void report_core(Report& report, const CounterTotals& totals);


// --- reference products (independent of the library) --------------------

/// y = A x for the 2D 5-point Poisson operator (4 on the diagonal, -1 to
/// the four neighbours) on an nx x ny grid, row index i * ny + j.
void poisson2d_apply(std::int64_t nx, std::int64_t ny, const double* x,
                     double* y);
/// y = A x for the 3D 7-point Poisson operator (6, -1), row index
/// (i * ny + j) * nz + k.
void poisson3d_apply(std::int64_t nx, std::int64_t ny, std::int64_t nz,
                     const double* x, double* y);

/// ||b - A x|| / ||b|| given A x.
double relative_residual(const std::vector<double>& b,
                         const std::vector<double>& ax);


}  // namespace perfbench
