#include "batch/batch_cg.hpp"

#include <cmath>

#include "batch/batch_dense.hpp"
#include "core/math.hpp"

namespace mgko::batch {

namespace {
// Workspace slots; allocated on the first apply, reused afterwards.
enum cg_slots : std::size_t {
    ws_r,
    ws_z,
    ws_p,
    ws_q,
};
// Host-side per-system buffers (solver::Workspace::host slots).
enum cg_host_slots : std::size_t {
    hs_b_norm,
    hs_r_norm,
    hs_rho,
    hs_coeff,
};
}  // namespace


template <typename ValueType>
void Cg<ValueType>::apply_impl(const BatchLinOp* b, BatchLinOp* x) const
{
    auto apply_span = this->make_span("batch.cg.apply");
    auto batch_b = as_batch_dense<ValueType>(b);
    auto batch_x = as_batch_dense<ValueType>(x);
    MGKO_ENSURE(batch_b->get_common_size().cols == 1 &&
                    batch_x->get_common_size().cols == 1,
                "batched CG supports one right-hand-side column per system");

    const auto num = this->get_num_systems();
    const auto n = this->get_common_size().rows;
    const auto exec = this->get_executor();
    auto& ws = this->workspace_;
    auto* r = ws.vec(ws_r, dim2{num * n, 1})->get_values();
    auto* z = ws.vec(ws_z, dim2{num * n, 1})->get_values();
    auto* p = ws.vec(ws_p, dim2{num * n, 1})->get_values();
    auto* q = ws.vec(ws_q, dim2{num * n, 1})->get_values();
    auto& b_norm = ws.host(hs_b_norm, num);
    auto& r_norm = ws.host(hs_r_norm, num);
    auto& rho = ws.host(hs_rho, num);
    auto& coeff = ws.host(hs_coeff, num);

    auto& active = this->active_;
    active.assign(num, 1);
    this->logger_->reset(num);

    const auto* b_vals = batch_b->get_const_values();
    auto* x_vals = batch_x->get_values();
    const double vb = static_cast<double>(n) * sizeof(ValueType);
    const double fn = static_cast<double>(n);

    detail::run_kernel<ValueType>(
        exec, "batch_norm2", num, vb, 2.0 * fn, [&](int nt) {
            kernels::batch::norm2(nt, num, nullptr, b_vals, n, b_norm.data());
        });
    this->system_ops_->residual_raw(nullptr, b_vals, x_vals, r);
    detail::run_kernel<ValueType>(
        exec, "batch_norm2", num, vb, 2.0 * fn, [&](int nt) {
            kernels::batch::norm2(nt, num, nullptr, r, n, r_norm.data());
        });
    auto criteria = this->bind_criteria(b_norm.data(), r_norm.data());
    for (size_type s = 0; s < num; ++s) {
        this->logger_->log_iteration(s, 0, r_norm[s]);
    }

    size_type active_count = num;
    auto retire = [&](size_type s, size_type iter, bool converged,
                      const std::string& reason) {
        active[s] = 0;
        --active_count;
        this->logger_->log_stop(s, iter, converged, reason);
    };
    auto sweep_converged = [&](size_type iter) {
        for (size_type s = 0; s < num; ++s) {
            if (active[s] && criteria[s]->is_satisfied(iter, r_norm[s])) {
                retire(s, iter, criteria[s]->indicates_convergence(),
                       criteria[s]->reason());
            }
        }
    };
    sweep_converged(0);

    if (active_count > 0) {
        this->apply_preconditioner(active.data(), r, z, n);
        detail::run_kernel<ValueType>(
            exec, "batch_copy", active_count, 2.0 * vb, 0.0, [&](int nt) {
                kernels::batch::copy(nt, num, active.data(), z, p, n);
            });
        detail::run_kernel<ValueType>(
            exec, "batch_dot", active_count, 2.0 * vb, 2.0 * fn, [&](int nt) {
                kernels::batch::dot(nt, num, active.data(), r, z, n,
                                    rho.data());
            });
    }

    size_type iter = 0;
    while (active_count > 0) {
        auto round_span = this->make_span("batch.cg.round");
        this->system_ops_->apply_raw(active.data(), p, q);
        detail::run_kernel<ValueType>(
            exec, "batch_dot", active_count, 2.0 * vb, 2.0 * fn, [&](int nt) {
                kernels::batch::dot(nt, num, active.data(), p, q, n,
                                    coeff.data());
            });
        for (size_type s = 0; s < num; ++s) {
            if (active[s] && (coeff[s] == 0.0 || !std::isfinite(coeff[s]))) {
                retire(s, iter, false, "breakdown: p'Ap == 0");
            }
        }
        if (active_count == 0) {
            break;
        }
        for (size_type s = 0; s < num; ++s) {
            if (active[s]) {
                coeff[s] = rho[s] / coeff[s];  // alpha
            }
        }
        detail::run_kernel<ValueType>(
            exec, "batch_add_scaled", active_count, 3.0 * vb, 2.0 * fn,
            [&](int nt) {
                kernels::batch::add_scaled(nt, num, active.data(), coeff.data(),
                                           p, x_vals, n, false);
            });
        detail::run_kernel<ValueType>(
            exec, "batch_add_scaled", active_count, 3.0 * vb, 2.0 * fn,
            [&](int nt) {
                kernels::batch::add_scaled(nt, num, active.data(), coeff.data(),
                                           q, r, n, true);
            });
        detail::run_kernel<ValueType>(
            exec, "batch_norm2", active_count, vb, 2.0 * fn, [&](int nt) {
                kernels::batch::norm2(nt, num, active.data(), r, n,
                                      r_norm.data());
            });
        ++iter;
        double max_res = 0.0;
        for (size_type s = 0; s < num; ++s) {
            if (active[s]) {
                this->logger_->log_iteration(s, iter, r_norm[s]);
                max_res = std::max(max_res, r_norm[s]);
            }
        }
        this->log_batch_iteration(iter, active_count, max_res);
        sweep_converged(iter);
        if (active_count == 0) {
            break;
        }
        this->apply_preconditioner(active.data(), r, z, n);
        detail::run_kernel<ValueType>(
            exec, "batch_dot", active_count, 2.0 * vb, 2.0 * fn, [&](int nt) {
                kernels::batch::dot(nt, num, active.data(), r, z, n,
                                    coeff.data());
            });
        for (size_type s = 0; s < num; ++s) {
            if (active[s]) {
                const double rho_new = coeff[s];
                coeff[s] = rho_new / rho[s];  // beta
                rho[s] = rho_new;
            }
        }
        // p = z + beta * p, one kernel across the batch.
        detail::run_kernel<ValueType>(
            exec, "batch_scale_add", active_count, 3.0 * vb, 2.0 * fn,
            [&](int nt) {
                kernels::batch::scale_add(nt, num, active.data(), coeff.data(),
                                          z, p, n);
            });
    }
    this->log_batch_stop();
}


#define MGKO_DECLARE_BATCH_CG(ValueType) template class Cg<ValueType>
MGKO_INSTANTIATE_FOR_EACH_VALUE_TYPE(MGKO_DECLARE_BATCH_CG);


}  // namespace mgko::batch
