#include "serve/telemetry.hpp"

#include <atomic>
#include <cstdint>
#include <sstream>

#include "log/flight_recorder.hpp"
#include "log/hw_counters.hpp"
#include "log/metrics.hpp"
#include "log/sampling_profiler.hpp"

namespace mgko::serve {

namespace {

/// Requests answered by the telemetry routes, on every port serving them.
std::atomic<std::uint64_t> telemetry_requests{0};

}  // namespace


std::string telemetry_metrics_text()
{
    auto recorder = log::shared_flight_recorder();
    std::ostringstream body;
    body << log::shared_metrics()->registry().prometheus_text();
    body << "# TYPE mgko_flight_records_total counter\n"
         << "mgko_flight_records_total " << recorder->recorded() << "\n"
         << "# TYPE mgko_flight_dropped_total counter\n"
         << "mgko_flight_dropped_total " << recorder->dropped() << "\n"
         << "# TYPE mgko_telemetry_requests_total counter\n"
         << "mgko_telemetry_requests_total "
         << telemetry_requests.load(std::memory_order_relaxed) << "\n";
    // Measured tier: hardware-counter series plus the sampling
    // profiler's own health counters.
    body << log::hw_counters_prometheus();
    body << "# TYPE mgko_sampling_hz gauge\n"
         << "mgko_sampling_hz " << log::sampling_hz() << "\n"
         << "# TYPE mgko_sampling_samples_total counter\n"
         << "mgko_sampling_samples_total " << log::sampling_samples() << "\n"
         << "# TYPE mgko_sampling_dropped_total counter\n"
         << "mgko_sampling_dropped_total " << log::sampling_dropped()
         << "\n";
    return body.str();
}


std::string telemetry_response(const HttpRequest& request)
{
    telemetry_requests.fetch_add(1, std::memory_order_relaxed);
    if (request.method != "GET") {
        return json_response(405, error_json("method not allowed"));
    }
    // Strip any query string: scrapers commonly append cache busters.
    const auto& target = request.target;
    std::string path = target.substr(0, target.find('?'));
    if (path == "/healthz") {
        return http_response(200, "text/plain", "ok\n");
    }
    if (path == "/metrics") {
        return http_response(200, "text/plain; version=0.0.4",
                             telemetry_metrics_text());
    }
    if (path == "/profile.json") {
        return http_response(200, "application/json",
                             log::shared_flight_recorder()->to_profile_json());
    }
    if (path == "/profile_cpu.json") {
        // The measured profile: aggregated SIGPROF samples, pprof-like
        // shape.  Valid (with zero stacks) when sampling never ran.
        return http_response(200, "application/json",
                             log::sampling_profile_json());
    }
    if (path == "/flamegraph.txt") {
        // Folded stacks, one "frame;frame;... count" line per distinct
        // stack — pipe straight into flamegraph.pl.
        return http_response(200, "text/plain", log::sampling_folded());
    }
    if (path == "/trace.json") {
        // ?trace_id=<32-or-16 hex> narrows the dump to one request's
        // records — the navigation target for metric exemplars and
        // traceparent echoes.
        std::uint64_t filter = 0;
        const auto wanted = query_param(target, "trace_id");
        if (!wanted.empty()) {
            bool ok = false;
            filter = parse_trace_filter(wanted, ok);
            if (!ok) {
                return json_response(
                    400, error_json("trace_id must be 16 or 32 lowercase "
                                    "hex characters"));
            }
        }
        return http_response(
            200, "application/json",
            log::shared_flight_recorder()->to_chrome_trace_json(filter));
    }
    return json_response(404, error_json("not found: " + path));
}


}  // namespace mgko::serve
