// MGKO_TRACE as the process sees it from startup: the variable is set
// before main, so the shared flight recorder is created with the traced
// capacity and stays attached even though MGKO_FLIGHT_RECORDER=0 opts out
// of the always-on recorder.  A binary of its own, because the capacity is
// fixed when the shared recorder is first used.
#include <gtest/gtest.h>

#include <cstdlib>

#include "bindings/api.hpp"
#include "bindings/registry.hpp"
#include "config/json.hpp"
#include "core/executor.hpp"
#include "log/flight_recorder.hpp"
#include "matrix/csr.hpp"
#include "matrix/dense.hpp"
#include "solver/cg.hpp"
#include "stop/criterion.hpp"
#include "tests/test_utils.hpp"

namespace {

using namespace mgko;

const bool trace_env_set = [] {
    setenv("MGKO_TRACE", "1", 1);
    setenv("MGKO_FLIGHT_RECORDER", "0", 1);
    return true;
}();


TEST(TraceEnv, TracedRunKeepsEveryEvent)
{
    ASSERT_TRUE(trace_env_set);
    auto recorder = log::shared_flight_recorder();
    EXPECT_GT(recorder->capacity_per_thread(),
              log::FlightRecorder::default_capacity);

    auto exec = ReferenceExecutor::create();
    bool attached = false;
    for (const auto& logger : exec->get_loggers()) {
        attached |= logger.get() == recorder.get();
    }
    EXPECT_TRUE(attached);

    const size_type n = 32;
    auto a = std::shared_ptr<Csr<double, int32>>{
        Csr<double, int32>::create_from_data(
            exec, test::laplacian_1d<double, int32>(n))};
    auto solver = solver::Cg<double>::build()
                      .with_criteria(stop::iteration(100))
                      .with_criteria(stop::residual_norm(1e-10))
                      .on(exec)
                      ->generate(a);
    auto b = Dense<double>::create_filled(exec, dim2{n, 1}, 1.0);
    auto x = Dense<double>::create_filled(exec, dim2{n, 1}, 0.0);
    solver->apply(b.get(), x.get());

    auto dev = bind::device("reference");
    auto t = bind::as_tensor(dev, dim2{n, 1}, "double", 1.0);
    for (int call = 0; call < 1000; ++call) {
        (void)t.norm();
    }

    // Well past the always-on ring's 4096 slots, and nothing lost.
    const auto always_on_slots =
        static_cast<std::uint64_t>(log::FlightRecorder::default_capacity);
    EXPECT_GT(recorder->recorded(), always_on_slots);
    EXPECT_EQ(recorder->dropped(), 0u);
    size_type bound_calls = 0;
    for (const auto& record : recorder->snapshot()) {
        bound_calls +=
            record.kind == log::FlightRecorder::event_kind::binding;
    }
    EXPECT_GE(bound_calls, 1000);
    // The trace_dump binding serves the same recorder.
    bind::ensure_bindings_registered();
    auto json = bind::Module::instance().call("trace_dump", {});
    auto doc = config::Json::parse(json.as_string());
    EXPECT_GT(doc.at("traceEvents").elements().size(), 1000u);
}

}  // namespace
