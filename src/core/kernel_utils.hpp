// Shared helpers for kernel implementations: the thread-budget decision
// (how many real threads a kernel launch gets), the parallel loop
// primitives every OpenMP kernel is written with, and SimClock ticking.
#pragma once

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <utility>
#include <vector>

#include "core/executor.hpp"
#include "log/work_model.hpp"
#include "sim/cost_model.hpp"

namespace mgko::kernels {


/// Shares the host's OpenMP threads among concurrent callers.  Every
/// kernel launched inside a ThreadBudgetScope opened on this budget uses
/// at most max(1, omp_get_max_threads() / open scopes) threads, re-read at
/// each launch: a lone scope gets the whole machine, and k concurrent
/// scopes use at most max(cores, k) threads together instead of k full
/// teams.
class ThreadBudget {
public:
    /// Team cap of each currently open scope.
    int share() const
    {
        return std::max(1, omp_get_max_threads() / std::max(open_.load(), 1));
    }

    /// Number of scopes currently open on this budget.
    int open_scopes() const { return open_.load(); }

private:
    friend class ThreadBudgetScope;
    std::atomic<int> open_{0};
};


namespace detail {

/// The budget the calling thread's kernels draw from; null = uncapped.
inline thread_local const ThreadBudget* current_budget = nullptr;

}  // namespace detail


/// RAII: while alive, kernels launched from the constructing thread draw
/// their team from `budget` (see ThreadBudget).  Scopes nest; the
/// destructor restores the enclosing one.
class ThreadBudgetScope {
public:
    explicit ThreadBudgetScope(ThreadBudget& budget)
        : budget_{budget}, previous_{detail::current_budget}
    {
        ++budget_.open_;
        detail::current_budget = &budget_;
    }

    ~ThreadBudgetScope()
    {
        detail::current_budget = previous_;
        --budget_.open_;
    }

    ThreadBudgetScope(const ThreadBudgetScope&) = delete;
    ThreadBudgetScope& operator=(const ThreadBudgetScope&) = delete;

private:
    ThreadBudget& budget_;
    const ThreadBudget* previous_;
};


/// Number of real threads a kernel may use on this machine: the
/// executor's real thread count (the performance model may assume more
/// workers, e.g. a simulated A100; device executors run on the host's
/// OpenMP threads), capped by the calling thread's ThreadBudget share.
inline int exec_threads(const Executor* exec)
{
    int threads = 1;
    switch (exec->kind()) {
    case exec_kind::reference:
        return 1;
    case exec_kind::omp:
        threads = static_cast<const OmpExecutor*>(exec)->real_threads();
        break;
    default:
        threads = omp_get_max_threads();
    }
    if (const auto* budget = detail::current_budget) {
        threads = std::min(threads, budget->share());
    }
    return threads;
}


/// Work below which a kernel runs on the calling thread: forking and
/// joining a team costs more than the team saves.  Work is counted in
/// scalar updates — rows x columns for vector kernels, stored nonzeros x
/// columns for SpMV, multiply-adds for dense products.  From
/// bench_micro_overhead's BM_TeamCutoff sweep on 4 cores: at work 1024
/// every swept kernel is slower with a team, at 4096 axpy and CSR SpMV
/// are faster with one, and dot/norm2 break even between 4096 and 16384
/// (DESIGN.md, "Thread budget and small-work cutoff").  A constant, not
/// a knob.
inline constexpr size_type small_work_cutoff = 4096;


/// Team size for one kernel launch over `work` scalar updates: 1 below
/// small_work_cutoff, exec_threads(exec) at or above it.  The single
/// serial-vs-parallel decision of every OpenMP kernel.
inline int team_size(const Executor* exec, size_type work)
{
    return work < small_work_cutoff ? 1 : exec_threads(exec);
}


/// Calls body(i) for every i in [0, n): on a team of `nt` threads with a
/// static schedule, or inline on the calling thread when nt <= 1 (no
/// OpenMP region is opened at all).  Kernel bodies capture by value
/// ([=]) so that the per-thread copy below holds their operands.
template <typename Body>
void parallel_for(int nt, size_type n, Body&& body)
{
    if (nt <= 1) {
        for (size_type i = 0; i < n; ++i) {
            body(i);
        }
        return;
    }
#pragma omp parallel num_threads(nt)
    {
        // Each thread runs its own copy of the closure, so the values it
        // captured stay in registers; read through the shared closure they
        // are reloaded on every iteration that stores to memory.
        auto local = body;
#pragma omp for schedule(static)
        for (size_type i = 0; i < n; ++i) {
            local(i);
        }
    }
}


/// Calls body(tid, threads) once on every thread of a team of `nt`, or
/// body(0, 1) inline when nt <= 1 — for kernels that partition their work
/// by thread id (balanced SpMV, deterministic reductions).
template <typename Body>
void parallel_region(int nt, Body&& body)
{
    if (nt <= 1) {
        body(0, 1);
        return;
    }
#pragma omp parallel num_threads(nt)
    {
        auto local = body;  // per-thread copy, as in parallel_for
        local(omp_get_thread_num(), omp_get_num_threads());
    }
}


/// [begin, end) of thread `tid`'s contiguous share of n items.
inline std::pair<size_type, size_type> thread_range(size_type n, int tid,
                                                    int threads)
{
    const auto t = static_cast<size_type>(tid);
    const auto p = static_cast<size_type>(threads);
    return {n * t / p, n * (t + 1) / p};
}


/// Column sums of term(r, c) over all rows, handed to out(c, sum): each
/// thread sums its contiguous row range per column into its own partial
/// slot, and the partials are added in thread-id order, so a given team
/// size rounds the same way on every run.
template <typename Term, typename Out>
void column_sums(int nt, size_type rows, size_type cols, Term&& term,
                 Out&& out)
{
    // Reused across calls; the team writes through `slots`, since a
    // thread_local named inside the region would be each thread's own.
    thread_local std::vector<double> partials;
    partials.assign(static_cast<std::size_t>(nt) * cols, 0.0);
    double* slots = partials.data();
    int team = 1;
    int* team_out = &team;
    parallel_region(nt, [=](int tid, int threads) {
        if (tid == 0) {
            *team_out = threads;
        }
        const auto [begin, end] = thread_range(rows, tid, threads);
        for (size_type c = 0; c < cols; ++c) {
            double acc = 0.0;
            for (size_type r = begin; r < end; ++r) {
                acc += term(r, c);
            }
            slots[static_cast<std::size_t>(tid) * cols + c] = acc;
        }
    });
    for (size_type c = 0; c < cols; ++c) {
        double acc = 0.0;
        for (int t = 0; t < team; ++t) {
            acc += slots[static_cast<std::size_t>(t) * cols + c];
        }
        out(c, acc);
    }
}


/// Charges a kernel's modeled cost onto the executor clock and notes the
/// profile's flop/byte work into the calling thread's accumulator, where
/// Executor::run() picks it up for on_operation_completed.  The launch
/// latency itself is charged by Executor::run().
inline void tick(const Executor* exec, const sim::kernel_profile& profile)
{
    log::note_work(profile.flops, profile.bytes);
    exec->clock().tick(profile.time_ns(exec->model()));
}


}  // namespace mgko::kernels
