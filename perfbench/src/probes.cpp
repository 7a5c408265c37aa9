#include "probes.hpp"

#include <atomic>

#include "bindings/registry.hpp"
#include "log/event_logger.hpp"
#include "matrix/csr.hpp"

namespace perfbench {

namespace bind = mgko::bind;


std::vector<double> time_calls(const std::function<void()>& call,
                               double budget_s)
{
    constexpr std::size_t min_reps = 5;
    std::vector<double> samples;
    const double deadline = now_us() + budget_s * 1e6;
    while (samples.size() < min_reps ||
           now_us() < deadline) {
        const double start = now_us();
        call();
        samples.push_back(now_us() - start);
    }
    return samples;
}


void probe_operator_layers(Report& report, const bind::Device& dev,
                           const bind::Matrix& mtx, double budget_s)
{
    const auto n = mtx.shape().rows;
    const auto nnz = static_cast<double>(mtx.nnz());
    auto b = bind::as_tensor(dev, mgko::dim2{n, 1}, "double", 1.0);
    auto x = bind::as_tensor(dev, mgko::dim2{n, 1}, "double", 0.0);
    const auto* a_op = mtx.op().get();

    // Bound and direct applies alternate so both see the same machine
    // state; the overhead is the difference of their medians.
    std::vector<double> direct, bound;
    const double deadline = now_us() + budget_s * 0.4e6;
    while (direct.size() < 5 || now_us() < deadline) {
        double start = now_us();
        a_op->apply(b.op().get(), x.op().get());
        direct.push_back(now_us() - start);
        start = now_us();
        mtx.apply(b, x);
        bound.push_back(now_us() - start);
    }
    const double spmv_us = median(direct);
    report.metric("bindings.call_us", median(bound), "us");
    report.metric("bindings.overhead_us", median(bound) - spmv_us, "us");

    // Computed traffic of one CSR apply with int32 indices: values and
    // column indices once, row pointers once, x read and y written once.
    const double bytes = nnz * (8.0 + 4.0) + static_cast<double>(n + 1) * 4.0 +
                         2.0 * static_cast<double>(n) * 8.0;
    report.metric("matrix.spmv_us", spmv_us, "us");
    report.metric("matrix.spmv_gflops", 2.0 * nnz / spmv_us * 1e-3,
                  "GFLOP/s");
    report.metric("matrix.spmv_gbps_computed", bytes / spmv_us * 1e-3,
                  "GB/s");

    double spmv_1t_us = 0.0;
    if (const auto* csr =
            dynamic_cast<const mgko::Csr<double, mgko::int32>*>(
                a_op)) {
        const bind::Device single{mgko::OmpExecutor::create(1)};
        auto copy = csr->clone_to(single.executor());
        auto b1 = bind::as_tensor(single, mgko::dim2{n, 1}, "double", 1.0);
        auto x1 = bind::as_tensor(single, mgko::dim2{n, 1}, "double", 0.0);
        spmv_1t_us = median(time_calls(
            [&] { copy->apply(b1.op().get(), x1.op().get()); },
            budget_s * 0.3));
    }
    report.metric("matrix.spmv_gbps_computed_1t",
                  spmv_1t_us > 0 ? bytes / spmv_1t_us * 1e-3 : 0.0, "GB/s");
    report.metric("matrix.spmv_thread_speedup",
                  spmv_1t_us > 0 ? spmv_1t_us / spmv_us : 0.0, "ratio");

    const auto jacobi = bind::preconditioner::jacobi(dev, mtx);
    report.metric("preconditioner.apply_us",
                  median(time_calls(
                      [&] {
                          jacobi.op()->apply(b.op().get(), x.op().get());
                      },
                      budget_s * 0.3)),
                  "us");
}


struct BindingCallCounter::Sink : mgko::log::EventLogger {
    std::atomic<double> calls{0.0};
    std::atomic<double> wall_ns{0.0};

    void on_binding_call_completed(const char*, double wall, double, double,
                                   double, double) override
    {
        calls.fetch_add(1.0, std::memory_order_relaxed);
        wall_ns.fetch_add(wall, std::memory_order_relaxed);
    }
};


BindingCallCounter::BindingCallCounter() : sink_{std::make_shared<Sink>()}
{
    bind::add_logger(sink_);
}

BindingCallCounter::~BindingCallCounter() { bind::remove_logger(sink_.get()); }

double BindingCallCounter::calls() const { return sink_->calls.load(); }

double BindingCallCounter::wall_us() const
{
    return sink_->wall_ns.load() / 1000.0;
}


}  // namespace perfbench
