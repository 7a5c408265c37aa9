// The four workloads.  Each sets up several times and reports the fastest
// set-up as setup_s (cheaper set-ups repeat more),
// runs its timed loop for options.seconds, checks every output, and fills
// the report.  With options.trace the loop is split: an untraced first
// half gives the reference latency, the traced second half records spans
// and per-layer samples, and the operator layer probes run after it.
#pragma once

#include "common.hpp"

namespace perfbench {


void run_serve_hit(const Options& options, Report& report);
void run_serve_churn(const Options& options, Report& report);
void run_solve_large(const Options& options, Report& report);
void run_bind_small(const Options& options, Report& report);


/// The operations of a closed loop: latency, completion time, outcome.
struct LatencyLog {
    std::vector<double> latency_us;
    std::vector<double> end_us;
    std::vector<char> ok;

    void add(double start, double end, bool success)
    {
        latency_us.push_back(end - start);
        end_us.push_back(end);
        ok.push_back(success ? 1 : 0);
    }
    void append(const LatencyLog& other);
};

/// Shared end-to-end reporting of a closed loop that ran from `start_us`
/// to `end_us`: ops_per_s from the successful operations, p50/p90 of the
/// latencies (failures included: a failed operation misses any latency
/// target), each taken from the better quarter of the run's time windows.
/// The window figures and the pooled ones go to the metadata.
void report_latency(Report& report, const LatencyLog& log, double start_us,
                    double end_us);

/// trace_overhead_pct: traced median latency over untraced, minus one.
void report_trace_overhead(Report& report, const std::vector<double>& plain_us,
                           const std::vector<double>& traced_us);


}  // namespace perfbench
