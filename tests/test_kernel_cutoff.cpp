// The small-work cutoff: every kernel that decides its team through
// kernels::team_size() must match the ReferenceExecutor both below the
// cutoff (where it runs on the calling thread) and above it (where it
// forks a team).  The kernels with an explicit thread-count parameter
// (CSR, batch) are also driven with a forced team on tiny inputs, so
// their parallel paths stay covered whatever the cutoff is.  Dense
// reductions sum per-thread partials in thread-id order, so repeating one
// at a fixed team size is bitwise reproducible.
#include <gtest/gtest.h>

#include <omp.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "batch/batch_cg.hpp"
#include "batch/batch_csr.hpp"
#include "batch/batch_dense.hpp"
#include "batch/batch_jacobi.hpp"
#include "batch/batch_kernels.hpp"
#include "core/kernel_utils.hpp"
#include "matrix/convolution.hpp"
#include "matrix/coo.hpp"
#include "matrix/csr.hpp"
#include "matrix/csr_kernels.hpp"
#include "matrix/dense.hpp"
#include "matrix/diagonal.hpp"
#include "matrix/ell.hpp"
#include "matrix/sellcs.hpp"
#include "multigrid/amg_solver.hpp"
#include "preconditioner/jacobi.hpp"
#include "solver/triangular.hpp"
#include "stop/criterion.hpp"
#include "tests/test_utils.hpp"

namespace {

using namespace mgko;
using Vec = Dense<double>;
using Mtx = Csr<double, int32>;


/// Dense (rows x cols) with seeded entries in [-1, 1).
std::unique_ptr<Vec> seeded(std::shared_ptr<const Executor> exec,
                            size_type rows, size_type cols,
                            std::uint64_t seed)
{
    std::mt19937_64 engine{seed};
    std::uniform_real_distribution<double> dist{-1.0, 1.0};
    auto result = Vec::create(std::move(exec), dim2{rows, cols});
    for (size_type r = 0; r < rows; ++r) {
        for (size_type c = 0; c < cols; ++c) {
            result->at(r, c) = dist(engine);
        }
    }
    return result;
}


void expect_near_all(const Vec* expected, const Vec* actual,
                     const std::string& what)
{
    ASSERT_EQ(expected->get_size(), actual->get_size()) << what;
    for (size_type r = 0; r < expected->get_size().rows; ++r) {
        for (size_type c = 0; c < expected->get_size().cols; ++c) {
            const double e = expected->at(r, c);
            ASSERT_NEAR(actual->at(r, c), e, 1e-12 * (1.0 + std::abs(e)))
                << what << " (" << r << ", " << c << ")";
        }
    }
}


/// Rows below the cutoff (runs serially) and well above it (forks).
std::vector<size_type> cutoff_sizes()
{
    return {64, 2 * kernels::small_work_cutoff};
}


class KernelCutoff : public ::testing::TestWithParam<size_type> {
protected:
    std::shared_ptr<const Executor> ref = ReferenceExecutor::create();
    std::shared_ptr<const Executor> omp = OmpExecutor::create();
    size_type n = GetParam();
};


TEST_P(KernelCutoff, DenseKernelsMatchReference)
{
    for (const size_type cols : {size_type{1}, size_type{3}}) {
        const auto tag = std::to_string(n) + "x" + std::to_string(cols);
        auto alpha_ref = seeded(ref, 1, cols, 11);
        auto alpha_omp = seeded(omp, 1, cols, 11);
        auto run = [&](std::shared_ptr<const Executor> exec, const Vec* alpha,
                       std::vector<std::unique_ptr<Vec>>& out) {
            auto x = seeded(exec, n, cols, 1);
            auto b = seeded(exec, n, cols, 2);
            x->scale(alpha);
            x->add_scaled(alpha, b.get());
            x->sub_scaled(alpha, b.get());
            auto dot = Vec::create(exec, dim2{1, cols});
            x->compute_dot(b.get(), dot.get());
            auto norm = Vec::create(exec, dim2{1, cols});
            x->compute_norm2(norm.get());
            auto gram = Vec::create(exec, dim2{cols, cols});
            x->transpose_apply(b.get(), gram.get());
            auto prod = Vec::create(exec, dim2{n, cols});
            b->apply(gram.get(), prod.get());
            auto filled = Vec::create(exec, dim2{n, cols});
            filled->fill(0.5);
            out.push_back(std::move(x));
            out.push_back(std::move(dot));
            out.push_back(std::move(norm));
            out.push_back(std::move(gram));
            out.push_back(std::move(prod));
            out.push_back(std::move(filled));
        };
        std::vector<std::unique_ptr<Vec>> expected;
        std::vector<std::unique_ptr<Vec>> actual;
        run(ref, alpha_ref.get(), expected);
        run(omp, alpha_omp.get(), actual);
        const char* names[] = {"scale/add/sub", "dot", "norm2", "gemv_t",
                               "gemm", "fill"};
        for (std::size_t i = 0; i < expected.size(); ++i) {
            expect_near_all(expected[i].get(), actual[i].get(),
                            std::string{names[i]} + " " + tag);
        }
    }
}


TEST_P(KernelCutoff, SparseFormatsMatchReference)
{
    const auto data = test::random_sparse<double, int32>(n, 5);
    auto apply_all = [&](std::shared_ptr<const Executor> exec) {
        std::vector<std::shared_ptr<LinOp>> ops;
        for (const auto s : {Mtx::strategy::load_balanced,
                             Mtx::strategy::classical}) {
            auto csr = Mtx::create_from_data(exec, data);
            csr->set_strategy(s);
            ops.push_back(std::move(csr));
        }
        ops.push_back(Coo<double, int32>::create_from_data(exec, data));
        ops.push_back(Ell<double, int32>::create_from_data(exec, data));
        ops.push_back(SellCs<double, int32>::create_from_data(exec, data));
        std::vector<double> diag(n);
        for (size_type i = 0; i < n; ++i) {
            diag[i] = 1.0 + static_cast<double>(i % 7);
        }
        ops.push_back(Diagonal<double>::create_from_values(exec, diag));
        std::vector<std::unique_ptr<Vec>> results;
        auto b = seeded(exec, n, 2, 3);
        for (const auto& op : ops) {
            auto x = Vec::create(exec, dim2{n, 2});
            op->apply(b.get(), x.get());
            results.push_back(std::move(x));
        }
        return results;
    };
    const auto expected = apply_all(ref);
    const auto actual = apply_all(omp);
    const char* names[] = {"csr balanced", "csr classical", "coo", "ell",
                           "sellcs", "diagonal"};
    for (std::size_t i = 0; i < expected.size(); ++i) {
        expect_near_all(expected[i].get(), actual[i].get(),
                        std::string{names[i]} + " n=" + std::to_string(n));
    }
}


TEST_P(KernelCutoff, ConvolutionMatchesReference)
{
    // n pixels as a (n / 16) x 16 image under a 3x3 stencil.
    const std::vector<double> stencil{0.0, -1.0, 0.0, -1.0, 4.0,
                                      -1.0, 0.0, -1.0, 0.0};
    auto run = [&](std::shared_ptr<const Executor> exec) {
        auto conv = Convolution<double>::create(exec, n / 16, 16, stencil);
        auto b = seeded(exec, n, 1, 4);
        auto x = Vec::create(exec, dim2{n, 1});
        conv->apply(b.get(), x.get());
        return x;
    };
    expect_near_all(run(ref).get(), run(omp).get(), "conv2d");
}


TEST_P(KernelCutoff, PreconditionersAndTriangularSolvesMatchReference)
{
    const auto data = test::random_sparse<double, int32>(n, 5);
    matrix_data<double, int32> lower{data.size};
    matrix_data<double, int32> upper{data.size};
    for (const auto& e : data.entries) {
        if (e.row >= e.col) {
            lower.entries.push_back(e);
        }
        if (e.row <= e.col) {
            upper.entries.push_back(e);
        }
    }
    auto run = [&](std::shared_ptr<const Executor> exec) {
        auto a = std::shared_ptr<Mtx>{Mtx::create_from_data(exec, data)};
        std::vector<std::unique_ptr<LinOp>> ops;
        ops.push_back(
            preconditioner::Jacobi<double, int32>::build().on(exec)->generate(
                a));
        ops.push_back(preconditioner::Jacobi<double, int32>::build()
                          .with_max_block_size(4)
                          .on(exec)
                          ->generate(a));
        ops.push_back(solver::LowerTrs<double, int32>::build().on(exec)->generate(
            std::shared_ptr<Mtx>{Mtx::create_from_data(exec, lower)}));
        ops.push_back(solver::UpperTrs<double, int32>::build().on(exec)->generate(
            std::shared_ptr<Mtx>{Mtx::create_from_data(exec, upper)}));
        auto b = seeded(exec, n, 2, 5);
        std::vector<std::unique_ptr<Vec>> results;
        for (const auto& op : ops) {
            auto x = Vec::create(exec, dim2{n, 2});
            op->apply(b.get(), x.get());
            results.push_back(std::move(x));
        }
        return results;
    };
    const auto expected = run(ref);
    const auto actual = run(omp);
    const char* names[] = {"jacobi", "block jacobi", "lower trs",
                           "upper trs"};
    for (std::size_t i = 0; i < expected.size(); ++i) {
        expect_near_all(expected[i].get(), actual[i].get(),
                        std::string{names[i]} + " n=" + std::to_string(n));
    }
}


TEST_P(KernelCutoff, AmgJacobiSmootherMatchesReference)
{
    const auto data = test::laplacian_1d<double, int32>(n);
    auto run = [&](std::shared_ptr<const Executor> exec) {
        auto solver = multigrid::AmgSolver<double, int32>::build()
                          .with_criteria(stop::iteration(3))
                          .with_smoother(multigrid::smoother_type::jacobi)
                          .on(exec)
                          ->generate(std::shared_ptr<Mtx>{
                              Mtx::create_from_data(exec, data)});
        auto b = seeded(exec, n, 1, 6);
        auto x = Vec::create_filled(exec, dim2{n, 1}, 0.0);
        solver->apply(b.get(), x.get());
        return x;
    };
    auto expected = run(ref);
    auto actual = run(omp);
    for (size_type i = 0; i < n; ++i) {
        // Three V-cycles amplify the rounding of reordered reductions a
        // little beyond a single kernel's.
        ASSERT_NEAR(actual->at(i, 0), expected->at(i, 0),
                    1e-9 * (1.0 + std::abs(expected->at(i, 0))))
            << "row " << i;
    }
}


TEST_P(KernelCutoff, BatchKernelsMatchReference)
{
    const size_type num = 3;
    auto run = [&](std::shared_ptr<const Executor> exec) {
        auto a = std::shared_ptr<batch::Csr<double, int32>>{
            batch::Csr<double, int32>::create_duplicate(
                exec, num, test::laplacian_1d<double, int32>(n))};
        auto b = batch::Dense<double>::create(
            exec, batch::batch_dim{num, dim2{n, 1}});
        for (size_type s = 0; s < num; ++s) {
            for (size_type i = 0; i < n; ++i) {
                b->at(s, i, 0) = std::sin(static_cast<double>(s * n + i));
            }
        }
        auto y = batch::Dense<double>::create(
            exec, batch::batch_dim{num, dim2{n, 1}});
        a->apply(b.get(), y.get());
        auto solver = batch::Cg<double>::build()
                          .with_criteria(stop::iteration(5))
                          .with_preconditioner(
                              batch::Jacobi<double>::build().on(exec))
                          .on(exec)
                          ->generate(a);
        auto x = batch::Dense<double>::create_filled(
            exec, batch::batch_dim{num, dim2{n, 1}}, 0.0);
        solver->apply(b.get(), x.get());
        return std::make_pair(std::move(y), std::move(x));
    };
    const auto expected = run(ref);
    const auto actual = run(omp);
    for (size_type s = 0; s < num; ++s) {
        for (size_type i = 0; i < n; ++i) {
            const double ey = expected.first->at(s, i, 0);
            const double ex = expected.second->at(s, i, 0);
            ASSERT_NEAR(actual.first->at(s, i, 0), ey,
                        1e-12 * (1.0 + std::abs(ey)));
            ASSERT_NEAR(actual.second->at(s, i, 0), ex,
                        1e-9 * (1.0 + std::abs(ex)));
        }
    }
}


INSTANTIATE_TEST_SUITE_P(BelowAndAboveTheCutoff, KernelCutoff,
                         ::testing::ValuesIn(cutoff_sizes()),
                         [](const auto& info) {
                             return "rows" + std::to_string(info.param);
                         });


// --- explicit team sizes on tiny inputs -------------------------------------

TEST(ForcedTeam, CsrKernelsMatchSerialOnTinyInputs)
{
    const size_type n = 10;
    const auto data = test::random_sparse<double, int32>(n, 3);
    auto mtx = Mtx::create_from_data(ReferenceExecutor::create(), data);
    const auto* values = mtx->get_const_values();
    const auto* cols = mtx->get_const_col_idxs();
    const auto* rows = mtx->get_const_row_ptrs();
    std::vector<double> b(n * 2);
    for (std::size_t i = 0; i < b.size(); ++i) {
        b[i] = 0.25 * static_cast<double>(i % 9) - 1.0;
    }
    std::vector<double> serial(n * 2);
    kernels::csr::spmv_serial(values, cols, rows, b.data(), 2, serial.data(),
                              2, n, 2, false, 1.0, 0.0);
    for (const int nt : {2, 4, 7}) {
        std::vector<double> x(n * 2, -1.0);
        kernels::csr::spmv_classical(nt, values, cols, rows, b.data(), 2,
                                     x.data(), 2, n, 2, false, 1.0, 0.0);
        EXPECT_EQ(x, serial) << "classical nt=" << nt;
        x.assign(n * 2, -1.0);
        kernels::csr::spmv_balanced(nt, values, cols, rows, b.data(), 2,
                                    x.data(), 2, n, 2, false, 1.0, 0.0);
        EXPECT_EQ(x, serial) << "balanced nt=" << nt;
        x.assign(n * 2, -1.0);
        kernels::csr::spmv_wavefront(nt, values, cols, rows, b.data(), 2,
                                     x.data(), 2, n, 2, false, 1.0, 0.0);
        EXPECT_EQ(x, serial) << "wavefront nt=" << nt;
    }
}


TEST(ForcedTeam, BatchKernelsMatchSerialOnTinyInputs)
{
    const size_type num = 5;
    const size_type elems = 6;
    std::vector<double> a(num * elems);
    std::vector<double> b(num * elems);
    for (std::size_t i = 0; i < a.size(); ++i) {
        a[i] = std::cos(static_cast<double>(i));
        b[i] = std::sin(static_cast<double>(i));
    }
    const std::vector<std::uint8_t> active{1, 0, 1, 1, 0};
    const std::vector<double> alpha{0.5, 1.0, -2.0, 0.25, 3.0};
    auto run = [&](int nt) {
        std::vector<double> dot(num, 0.0);
        std::vector<double> norm(num, 0.0);
        std::vector<double> x = a;
        kernels::batch::dot(nt, num, active.data(), a.data(), b.data(), elems,
                            dot.data());
        kernels::batch::norm2(nt, num, nullptr, a.data(), elems, norm.data());
        kernels::batch::add_scaled(nt, num, active.data(), alpha.data(),
                                   b.data(), x.data(), elems, false);
        kernels::batch::scale_add(nt, num, nullptr, alpha.data(), b.data(),
                                  x.data(), elems);
        std::vector<double> y(num * elems, 0.0);
        kernels::batch::copy(nt, num, active.data(), x.data(), y.data(),
                             elems);
        return std::vector<std::vector<double>>{dot, norm, x, y};
    };
    const auto serial = run(1);
    for (const int nt : {2, 4, 8}) {
        EXPECT_EQ(run(nt), serial) << "nt=" << nt;
    }
}


// --- deterministic reductions -----------------------------------------------

TEST(DeterministicReductions, RepeatedDotsAtAFourThreadTeamAreBitwiseEqual)
{
    // Four real threads even on a smaller host: the executor's real
    // thread count is capped by omp_get_max_threads().
    const int saved = omp_get_max_threads();
    omp_set_num_threads(4);
    auto exec = OmpExecutor::create(4);
    ASSERT_EQ(kernels::exec_threads(exec.get()), 4);
    // Float values across several magnitudes, so the summation order
    // shows in the rounding; both columns are well above the cutoff.
    const size_type n = 16 * kernels::small_work_cutoff;
    auto a = Dense<float>::create(exec, dim2{n, 2});
    auto b = Dense<float>::create(exec, dim2{n, 2});
    std::mt19937_64 engine{42};
    std::uniform_real_distribution<double> dist{-1.0, 1.0};
    for (size_type r = 0; r < n; ++r) {
        for (size_type c = 0; c < 2; ++c) {
            a->at(r, c) = static_cast<float>(
                dist(engine) * std::pow(10.0, static_cast<double>(r % 7)));
            b->at(r, c) = static_cast<float>(dist(engine));
        }
    }
    auto first_dot = Dense<float>::create(exec, dim2{1, 2});
    auto first_norm = Dense<float>::create(exec, dim2{1, 2});
    a->compute_dot(b.get(), first_dot.get());
    a->compute_norm2(first_norm.get());
    for (int rep = 0; rep < 20; ++rep) {
        auto dot = Dense<float>::create(exec, dim2{1, 2});
        auto norm = Dense<float>::create(exec, dim2{1, 2});
        a->compute_dot(b.get(), dot.get());
        a->compute_norm2(norm.get());
        for (size_type c = 0; c < 2; ++c) {
            ASSERT_EQ(dot->at(0, c), first_dot->at(0, c)) << "rep " << rep;
            ASSERT_EQ(norm->at(0, c), first_norm->at(0, c)) << "rep " << rep;
        }
    }
    omp_set_num_threads(saved);
}


}  // namespace
