// Layer probes shared by all workloads: the matrix, preconditioner and
// binding layers timed on the workload's own operator, outside the timed
// loop (traced pass only).
#pragma once

#include <functional>

#include "bindings/api.hpp"
#include "common.hpp"

namespace perfbench {


/// Times `call` repeatedly for about `budget_s` seconds (at least five
/// times); returns the per-call samples in microseconds.
std::vector<double> time_calls(const std::function<void()>& call,
                               double budget_s);


/// Reports matrix.spmv_* (the CSR apply on `dev`'s threads and on one
/// thread), preconditioner.apply_us (scalar Jacobi) and bindings.call_us /
/// bindings.overhead_us (the bound Matrix::apply against LinOp::apply on
/// the same operands).
void probe_operator_layers(Report& report, const mgko::bind::Device& dev,
                           const mgko::bind::Matrix& mtx, double budget_s);


/// Counts bound calls and sums their wall time while attached to the
/// binding layer (bind::add_logger); detaches on destruction.
class BindingCallCounter {
public:
    BindingCallCounter();
    ~BindingCallCounter();
    BindingCallCounter(const BindingCallCounter&) = delete;
    BindingCallCounter& operator=(const BindingCallCounter&) = delete;

    double calls() const;
    /// Summed wall time of the bound calls [us].
    double wall_us() const;

private:
    struct Sink;
    std::shared_ptr<Sink> sink_;
};


}  // namespace perfbench
