#include "batch/batch_bicgstab.hpp"

#include <cmath>

#include "batch/batch_dense.hpp"
#include "core/math.hpp"

namespace mgko::batch {

namespace {
enum bicgstab_slots : std::size_t {
    ws_r,
    ws_r_tilde,
    ws_p,
    ws_p_hat,
    ws_v,
    ws_s,
    ws_s_hat,
    ws_t,
};
enum bicgstab_host_slots : std::size_t {
    hs_b_norm,
    hs_r_norm,
    hs_s_norm,
    hs_rho,
    hs_rho_prev,
    hs_alpha,
    hs_omega,
    hs_coeff,
};
}  // namespace


template <typename ValueType>
void Bicgstab<ValueType>::apply_impl(const BatchLinOp* b, BatchLinOp* x) const
{
    auto apply_span = this->make_span("batch.bicgstab.apply");
    auto batch_b = as_batch_dense<ValueType>(b);
    auto batch_x = as_batch_dense<ValueType>(x);
    MGKO_ENSURE(
        batch_b->get_common_size().cols == 1 &&
            batch_x->get_common_size().cols == 1,
        "batched BiCGStab supports one right-hand-side column per system");

    const auto num = this->get_num_systems();
    const auto n = this->get_common_size().rows;
    const auto exec = this->get_executor();
    auto& ws = this->workspace_;
    auto* r_vec = ws.vec(ws_r, dim2{num * n, 1});
    auto* r = r_vec->get_values();
    auto* r_tilde = ws.vec(ws_r_tilde, dim2{num * n, 1})->get_values();
    auto* p_vec = ws.vec(ws_p, dim2{num * n, 1});
    auto* p = p_vec->get_values();
    auto* p_hat = ws.vec(ws_p_hat, dim2{num * n, 1})->get_values();
    auto* v_vec = ws.vec(ws_v, dim2{num * n, 1});
    auto* v = v_vec->get_values();
    auto* s = ws.vec(ws_s, dim2{num * n, 1})->get_values();
    auto* s_hat = ws.vec(ws_s_hat, dim2{num * n, 1})->get_values();
    auto* t = ws.vec(ws_t, dim2{num * n, 1})->get_values();
    auto& b_norm = ws.host(hs_b_norm, num);
    auto& r_norm = ws.host(hs_r_norm, num);
    auto& s_norm = ws.host(hs_s_norm, num);
    auto& rho = ws.host(hs_rho, num);
    auto& rho_prev = ws.host(hs_rho_prev, num);
    auto& alpha = ws.host(hs_alpha, num);
    auto& omega = ws.host(hs_omega, num);
    auto& coeff = ws.host(hs_coeff, num);

    auto& active = this->active_;
    active.assign(num, 1);
    half_.assign(num, 0);
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
    for (size_type s_idx = 0; s_idx < num; ++s_idx) {
        this->logger_->log_iteration(s_idx, 0, r_norm[s_idx]);
        rho_prev[s_idx] = 1.0;
        alpha[s_idx] = 1.0;
        omega[s_idx] = 1.0;
    }
    detail::run_kernel<ValueType>(
        exec, "batch_copy", num, 2.0 * vb, 0.0, [&](int nt) {
            kernels::batch::copy(nt, num, nullptr, r, r_tilde, n);
        });
    p_vec->fill(zero<ValueType>());
    v_vec->fill(zero<ValueType>());

    size_type active_count = num;
    auto retire = [&](size_type s_idx, size_type iter, bool converged,
                      const std::string& reason) {
        active[s_idx] = 0;
        --active_count;
        this->logger_->log_stop(s_idx, iter, converged, reason);
    };
    auto sweep_converged = [&](size_type iter) {
        for (size_type s_idx = 0; s_idx < num; ++s_idx) {
            if (active[s_idx] &&
                criteria[s_idx]->is_satisfied(iter, r_norm[s_idx])) {
                retire(s_idx, iter, criteria[s_idx]->indicates_convergence(),
                       criteria[s_idx]->reason());
            }
        }
    };
    sweep_converged(0);

    size_type iter = 0;
    while (active_count > 0) {
        auto round_span = this->make_span("batch.bicgstab.round");
        detail::run_kernel<ValueType>(
            exec, "batch_dot", active_count, 2.0 * vb, 2.0 * fn, [&](int nt) {
                kernels::batch::dot(nt, num, active.data(), r_tilde, r, n,
                                    rho.data());
            });
        for (size_type s_idx = 0; s_idx < num; ++s_idx) {
            if (active[s_idx] &&
                (rho[s_idx] == 0.0 || !std::isfinite(rho[s_idx]))) {
                retire(s_idx, iter, false, "breakdown: rho == 0");
            }
        }
        if (active_count == 0) {
            break;
        }
        // p = r + beta * (p - omega * v), beta = (rho/rho_prev)*(alpha/omega)
        detail::run_kernel<ValueType>(
            exec, "batch_add_scaled", active_count, 3.0 * vb, 2.0 * fn,
            [&](int nt) {
                kernels::batch::add_scaled(nt, num, active.data(), omega.data(),
                                           v, p, n, true);
            });
        for (size_type s_idx = 0; s_idx < num; ++s_idx) {
            if (active[s_idx]) {
                coeff[s_idx] = (rho[s_idx] / rho_prev[s_idx]) *
                               (alpha[s_idx] / omega[s_idx]);
            }
        }
        detail::run_kernel<ValueType>(
            exec, "batch_scale_add", active_count, 3.0 * vb, 2.0 * fn,
            [&](int nt) {
                kernels::batch::scale_add(nt, num, active.data(), coeff.data(),
                                          r, p, n);
            });

        this->apply_preconditioner(active.data(), p, p_hat, n);
        this->system_ops_->apply_raw(active.data(), p_hat, v);
        detail::run_kernel<ValueType>(
            exec, "batch_dot", active_count, 2.0 * vb, 2.0 * fn, [&](int nt) {
                kernels::batch::dot(nt, num, active.data(), r_tilde, v, n,
                                    coeff.data());
            });
        for (size_type s_idx = 0; s_idx < num; ++s_idx) {
            if (active[s_idx] &&
                (coeff[s_idx] == 0.0 || !std::isfinite(coeff[s_idx]))) {
                retire(s_idx, iter, false, "breakdown: r~'v == 0");
            }
        }
        if (active_count == 0) {
            break;
        }
        for (size_type s_idx = 0; s_idx < num; ++s_idx) {
            if (active[s_idx]) {
                alpha[s_idx] = rho[s_idx] / coeff[s_idx];
            }
        }
        // s = r - alpha * v
        detail::run_kernel<ValueType>(
            exec, "batch_copy", active_count, 2.0 * vb, 0.0, [&](int nt) {
                kernels::batch::copy(nt, num, active.data(), r, s, n);
            });
        detail::run_kernel<ValueType>(
            exec, "batch_add_scaled", active_count, 3.0 * vb, 2.0 * fn,
            [&](int nt) {
                kernels::batch::add_scaled(nt, num, active.data(), alpha.data(),
                                           v, s, n, true);
            });
        detail::run_kernel<ValueType>(
            exec, "batch_norm2", active_count, vb, 2.0 * fn, [&](int nt) {
                kernels::batch::norm2(nt, num, active.data(), s, n,
                                      s_norm.data());
            });
        ++iter;
        const auto advanced = active_count;
        double max_res = 0.0;

        // Half-step exits: systems already converged at the s-residual take
        // x += alpha * p_hat and retire; the rest complete the full step.
        size_type half_count = 0;
        std::fill(half_.begin(), half_.end(), 0);
        for (size_type s_idx = 0; s_idx < num; ++s_idx) {
            if (active[s_idx] &&
                criteria[s_idx]->is_satisfied(iter, s_norm[s_idx])) {
                half_[s_idx] = 1;
                ++half_count;
            }
        }
        if (half_count > 0) {
            detail::run_kernel<ValueType>(
                exec, "batch_add_scaled", half_count, 3.0 * vb, 2.0 * fn,
                [&](int nt) {
                    kernels::batch::add_scaled(nt, num, half_.data(),
                                               alpha.data(), p_hat, x_vals, n,
                                               false);
                });
            for (size_type s_idx = 0; s_idx < num; ++s_idx) {
                if (half_[s_idx]) {
                    r_norm[s_idx] = s_norm[s_idx];
                    max_res = std::max(max_res, r_norm[s_idx]);
                    this->logger_->log_iteration(s_idx, iter, r_norm[s_idx]);
                    retire(s_idx, iter,
                           criteria[s_idx]->indicates_convergence(),
                           criteria[s_idx]->reason());
                }
            }
        }
        if (active_count == 0) {
            this->log_batch_iteration(iter, advanced, max_res);
            break;
        }

        this->apply_preconditioner(active.data(), s, s_hat, n);
        this->system_ops_->apply_raw(active.data(), s_hat, t);
        detail::run_kernel<ValueType>(
            exec, "batch_dot", active_count, 2.0 * vb, 2.0 * fn, [&](int nt) {
                kernels::batch::dot(nt, num, active.data(), t, t, n,
                                    coeff.data());
            });
        // t't breakdown: accept the half step for those systems and retire.
        size_type tt_breakdowns = 0;
        std::fill(half_.begin(), half_.end(), 0);
        for (size_type s_idx = 0; s_idx < num; ++s_idx) {
            if (active[s_idx] &&
                (coeff[s_idx] == 0.0 || !std::isfinite(coeff[s_idx]))) {
                half_[s_idx] = 1;
                ++tt_breakdowns;
            }
        }
        if (tt_breakdowns > 0) {
            detail::run_kernel<ValueType>(
                exec, "batch_add_scaled", tt_breakdowns, 3.0 * vb, 2.0 * fn,
                [&](int nt) {
                    kernels::batch::add_scaled(nt, num, half_.data(),
                                               alpha.data(), p_hat, x_vals, n,
                                               false);
                });
            for (size_type s_idx = 0; s_idx < num; ++s_idx) {
                if (half_[s_idx]) {
                    r_norm[s_idx] = s_norm[s_idx];
                    max_res = std::max(max_res, r_norm[s_idx]);
                    this->logger_->log_iteration(s_idx, iter, r_norm[s_idx]);
                    retire(s_idx, iter, false, "breakdown: t't == 0");
                }
            }
        }
        if (active_count == 0) {
            this->log_batch_iteration(iter, advanced, max_res);
            break;
        }

        // omega = t's / t't (coeff currently holds t't).
        auto& ts = rho_prev;  // rho_prev is rewritten below; reuse as scratch
        detail::run_kernel<ValueType>(
            exec, "batch_dot", active_count, 2.0 * vb, 2.0 * fn, [&](int nt) {
                kernels::batch::dot(nt, num, active.data(), t, s, n, ts.data());
            });
        for (size_type s_idx = 0; s_idx < num; ++s_idx) {
            if (active[s_idx]) {
                omega[s_idx] = ts[s_idx] / coeff[s_idx];
            }
        }
        // x += alpha * p_hat + omega * s_hat
        detail::run_kernel<ValueType>(
            exec, "batch_add_scaled", active_count, 3.0 * vb, 2.0 * fn,
            [&](int nt) {
                kernels::batch::add_scaled(nt, num, active.data(), alpha.data(),
                                           p_hat, x_vals, n, false);
            });
        detail::run_kernel<ValueType>(
            exec, "batch_add_scaled", active_count, 3.0 * vb, 2.0 * fn,
            [&](int nt) {
                kernels::batch::add_scaled(nt, num, active.data(), omega.data(),
                                           s_hat, x_vals, n, false);
            });
        // r = s - omega * t
        detail::run_kernel<ValueType>(
            exec, "batch_copy", active_count, 2.0 * vb, 0.0, [&](int nt) {
                kernels::batch::copy(nt, num, active.data(), s, r, n);
            });
        detail::run_kernel<ValueType>(
            exec, "batch_add_scaled", active_count, 3.0 * vb, 2.0 * fn,
            [&](int nt) {
                kernels::batch::add_scaled(nt, num, active.data(), omega.data(),
                                           t, r, n, true);
            });
        detail::run_kernel<ValueType>(
            exec, "batch_norm2", active_count, vb, 2.0 * fn, [&](int nt) {
                kernels::batch::norm2(nt, num, active.data(), r, n,
                                      r_norm.data());
            });
        for (size_type s_idx = 0; s_idx < num; ++s_idx) {
            if (active[s_idx]) {
                rho_prev[s_idx] = rho[s_idx];
                this->logger_->log_iteration(s_idx, iter, r_norm[s_idx]);
                max_res = std::max(max_res, r_norm[s_idx]);
            }
        }
        this->log_batch_iteration(iter, advanced, max_res);
        for (size_type s_idx = 0; s_idx < num; ++s_idx) {
            if (active[s_idx] && omega[s_idx] == 0.0) {
                retire(s_idx, iter, false, "breakdown: omega == 0");
            }
        }
        sweep_converged(iter);
    }
    this->log_batch_stop();
}


#define MGKO_DECLARE_BATCH_BICGSTAB(ValueType) \
    template class Bicgstab<ValueType>
MGKO_INSTANTIATE_FOR_EACH_VALUE_TYPE(MGKO_DECLARE_BATCH_BICGSTAB);


}  // namespace mgko::batch
