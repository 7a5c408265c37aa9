// perfbench: the repository benchmark.
//
//   perfbench --workload <serve_hit|serve_churn|solve_large|bind_small>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--commit <id>] [--out-dir <dir>] [--corrupt]
//
// Prints run metadata and every metric as readable lines, then one JSON
// result object as the last line of standard output.  See README.md.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>

#include "workloads.hpp"

namespace perfbench {


void LatencyLog::append(const LatencyLog& other)
{
    latency_us.insert(latency_us.end(), other.latency_us.begin(),
                      other.latency_us.end());
    end_us.insert(end_us.end(), other.end_us.begin(), other.end_us.end());
    ok.insert(ok.end(), other.ok.begin(), other.ok.end());
}


void report_latency(Report& report, const LatencyLog& log, double start_us,
                    double end_us)
{
    const auto rate = [](const LatencyLog& part, double seconds) {
        double ok = 0.0;
        for (const char success : part.ok) {
            ok += success ? 1.0 : 0.0;
        }
        return seconds > 0 ? ok / seconds : 0.0;
    };
    // Equal time windows of at least 200 operations each (so a window's
    // p90 has twenty samples beyond it), at most 15.  The reported figures
    // come from the better quarter of the windows (the upper quartile of
    // the window rates, the lower quartile of the window latencies): a
    // stretch in which the shared host took the CPUs away spoils the
    // windows it covers, and up to three quarters of a run can be spoilt
    // before the figure moves.  A run with fewer than 400 operations has
    // one window, the whole run.
    const double wall_s = (end_us - start_us) * 1e-6;
    const auto windows =
        std::clamp<std::size_t>(log.latency_us.size() / 200, 1, 15);
    std::vector<LatencyLog> parts(windows);
    for (std::size_t i = 0; i < log.end_us.size(); ++i) {
        const auto w = std::min(
            static_cast<std::size_t>((log.end_us[i] - start_us) * 1e-6 /
                                     wall_s * static_cast<double>(windows)),
            windows - 1);
        parts[w].add(log.end_us[i] - log.latency_us[i], log.end_us[i],
                     log.ok[i] != 0);
    }
    std::vector<double> rates, p50s, p90s;
    std::string rate_list, p50_list, p90_list;
    char buffer[32];
    for (const auto& part : parts) {
        rates.push_back(rate(part, wall_s / static_cast<double>(windows)));
        p50s.push_back(quantile(part.latency_us, 0.5) * 1e-3);
        p90s.push_back(quantile(part.latency_us, 0.9) * 1e-3);
        std::snprintf(buffer, sizeof(buffer), " %.4g", rates.back());
        rate_list += buffer;
        std::snprintf(buffer, sizeof(buffer), " %.4g", p50s.back());
        p50_list += buffer;
        std::snprintf(buffer, sizeof(buffer), " %.4g", p90s.back());
        p90_list += buffer;
    }
    report.metric("ops_per_s", quantile(rates, 0.75), "1/s");
    report.metric("p50_ms", quantile(p50s, 0.25), "ms");
    report.metric("p90_ms", quantile(p90s, 0.25), "ms");
    report.meta("samples", static_cast<double>(log.latency_us.size()));
    report.meta("windows", static_cast<double>(windows));
    report.meta("window_ops_per_s", rate_list.substr(1));
    report.meta("window_p50_ms", p50_list.substr(1));
    report.meta("window_p90_ms", p90_list.substr(1));
    report.meta("pooled_ops_per_s", rate(log, wall_s));
    report.meta("pooled_p50_ms", quantile(log.latency_us, 0.5) * 1e-3);
    report.meta("pooled_p90_ms", quantile(log.latency_us, 0.9) * 1e-3);
}


void report_trace_overhead(Report& report, const std::vector<double>& plain_us,
                           const std::vector<double>& traced_us)
{
    const double plain = median(plain_us);
    report.metric("trace_overhead_pct",
                  plain > 0 ? 100.0 * (median(traced_us) - plain) / plain
                            : 0.0,
                  "%");
}


}  // namespace perfbench


namespace {

void usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload <serve_hit|serve_churn|"
                 "solve_large|bind_small> --seed <n> --seconds <s> "
                 "--trace <0|1> [--commit <id>] [--out-dir <dir>] "
                 "[--corrupt]\n");
}

}  // namespace


int main(int argc, char** argv)
{
    using namespace perfbench;
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--corrupt") {
            options.corrupt = true;
        } else if (arg == "--workload" && has_value) {
            options.workload = argv[++i];
        } else if (arg == "--seed" && has_value) {
            options.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--seconds" && has_value) {
            options.seconds = std::strtod(argv[++i], nullptr);
        } else if (arg == "--trace" && has_value) {
            options.trace = std::strcmp(argv[++i], "0") != 0;
        } else if (arg == "--commit" && has_value) {
            options.commit = argv[++i];
        } else if (arg == "--out-dir" && has_value) {
            options.out_dir = argv[++i];
        } else {
            usage();
            return 2;
        }
    }
    const std::map<std::string, void (*)(const Options&, Report&)> workloads{
        {"serve_hit", run_serve_hit},
        {"serve_churn", run_serve_churn},
        {"solve_large", run_solve_large},
        {"bind_small", run_bind_small}};
    const auto workload = workloads.find(options.workload);
    if (workload == workloads.end() || !(options.seconds > 0)) {
        usage();
        return 2;
    }

    Report report;
    record_run_start(report, options);
    try {
        workload->second(options, report);
    } catch (const std::exception& error) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n",
                     options.workload.c_str(), error.what());
        return 1;
    }
    record_run_end(report);
    const auto attempted = static_cast<double>(report.attempted());
    report.metric("success_rate",
                  attempted > 0
                      ? (attempted - static_cast<double>(report.failed())) /
                            attempted
                      : 0.0,
                  "ratio");
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    report.print(options.trace);
    return 0;
}
