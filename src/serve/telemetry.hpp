// Live telemetry exposition — the pull side of the always-on tier.
//
// The telemetry routes are a plain function from one parsed request to a
// full HTTP response; they carry no socket code of their own.  They serve
//
//   GET /healthz           "ok" liveness probe
//   GET /metrics           Prometheus text from the shared MetricsRegistry,
//                          plus the mgko_flight_*/mgko_telemetry_* series
//                          (so a scrape is never empty) and the measured
//                          tier's mgko_hw_* / mgko_sampling_* series
//   GET /profile.json      flight-recorder snapshot aggregated per tag
//                          (the {"tags": ...} profile schema)
//   GET /profile_cpu.json  sampling-profiler aggregate, pprof-like JSON
//                          (log/sampling_profiler.hpp)
//   GET /flamegraph.txt    the same samples as folded stacks, one
//                          "frame;frame;... count" line per stack —
//                          flamegraph.pl-ready
//   GET /trace.json        flight-recorder snapshot as Chrome Trace JSON
//
// so a production host can be inspected while it runs instead of waiting
// for an exit-time dump (cf. Koch et al. on observability surviving
// embedding).  telemetry_start(port) (serve/solve_server.hpp) runs them on
// the serve layer's one Listener with a single worker, so serving stays
// serial: responses are small snapshots and the instrumented threads never
// block on a scrape.  SolveServer falls back to the same routes for every
// path it does not own, so its port answers them too.
#pragma once

#include <string>

#include "serve/http.hpp"

namespace mgko::serve {


/// Routes one request to the telemetry endpoints above; a full HTTP
/// response (404 for unknown paths, 405 for methods other than GET).
std::string telemetry_response(const HttpRequest& request);

/// The /metrics lines every server shares: the shared registry's series,
/// the flight recorder's and telemetry routes' own counters, and the
/// measured tier's mgko_hw_*/mgko_sampling_* series.
std::string telemetry_metrics_text();


}  // namespace mgko::serve
