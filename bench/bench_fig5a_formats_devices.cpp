// Figure 5a — pyGinkgo SpMV throughput (GFLOP/s) versus nonzero count on
// the simulated NVIDIA A100 and AMD MI100, for CSR and COO formats, over
// the 45-matrix overhead suite, plus the SELL-C-σ columns the roofline
// speed pass added (same protocol, same suite).
//
// Paper claims to reproduce in shape:
//   * A100 slightly outperforms MI100, especially at larger nnz
//   * throughput grows with nnz and saturates
//   * CSR outperforms COO on both devices
#include <cstdio>
#include <cstdlib>

#include "bench/common/harness.hpp"
#include "matrix/sellcs.hpp"

using namespace mgko;

int main()
{
    auto cuda = CudaExecutor::create();
    auto hip = HipExecutor::create();
    // MGKO_METRICS=<path|stdout> dumps a per-tag kernel/allocation profile.
    bench::ProfileScope profile{"fig5a", {cuda, hip}};

    auto suite = matgen::overhead_suite();
    std::sort(suite.begin(), suite.end(), [](const auto& a, const auto& b) {
        return a.nnz_estimate < b.nnz_estimate;
    });
    // MGKO_BENCH_SMOKE=1: the CI smoke lane keeps the 12 smallest matrices
    // (still spanning an order of magnitude in nnz, enough for the shape
    // checks against the committed baseline).
    if (std::getenv("MGKO_BENCH_SMOKE") != nullptr && suite.size() > 12) {
        suite.resize(12);
    }

    bench::MatrixCache cache;
    bench::CsvBlock csv{"fig5a",
                        {"matrix", "nnz", "a100_csr_gflops",
                         "a100_coo_gflops", "a100_sellcs_gflops",
                         "mi100_csr_gflops", "mi100_coo_gflops",
                         "mi100_sellcs_gflops"}};

    std::vector<double> a100_csr, a100_coo, a100_sell, mi100_csr, mi100_coo,
        mi100_sell;
    std::printf("Figure 5a: pyGinkgo SpMV GFLOP/s vs nnz on A100-sim and "
                "MI100-sim, CSR and COO, float32\n");
    for (const auto& s : suite) {
        const auto& data = cache.get(s);
        const auto nnz = data.num_stored();
        auto fdata = data.cast<float, int32>();
        std::vector<std::string> row{s.name, std::to_string(nnz)};
        std::vector<double>* sinks[] = {&a100_csr, &a100_coo, &a100_sell,
                                        &mi100_csr, &mi100_coo, &mi100_sell};
        int sink = 0;
        for (auto exec : {std::shared_ptr<Executor>(cuda),
                          std::shared_ptr<Executor>(hip)}) {
            auto csr = Csr<float, int32>::create_from_data(exec, fdata);
            auto coo = Coo<float, int32>::create_from_data(exec, fdata);
            auto sell = SellCs<float, int32>::create_from_data(exec, fdata);
            auto b = Dense<float>::create_filled(exec, dim2{data.size.cols, 1},
                                                 1.0f);
            auto x = Dense<float>::create(exec, dim2{data.size.rows, 1});
            const double t_csr = bench::time_seconds(
                exec.get(), [&] { csr->apply(b.get(), x.get()); });
            const double t_coo = bench::time_seconds(
                exec.get(), [&] { coo->apply(b.get(), x.get()); });
            const double t_sell = bench::time_seconds(
                exec.get(), [&] { sell->apply(b.get(), x.get()); });
            const double g_csr = bench::spmv_gflops(nnz, t_csr);
            const double g_coo = bench::spmv_gflops(nnz, t_coo);
            const double g_sell = bench::spmv_gflops(nnz, t_sell);
            row.push_back(bench::fmt(g_csr));
            row.push_back(bench::fmt(g_coo));
            row.push_back(bench::fmt(g_sell));
            sinks[sink++]->push_back(g_csr);
            sinks[sink++]->push_back(g_coo);
            sinks[sink++]->push_back(g_sell);
        }
        csv.add_row(row);
    }
    csv.print();

    // Compare the high-nnz halves (where the paper sees the A100 edge).
    auto upper_half = [](const std::vector<double>& v) {
        return std::vector<double>(v.begin() + v.size() / 2, v.end());
    };
    std::printf("\npeak GFLOP/s: A100 csr %.0f coo %.0f | MI100 csr %.0f "
                "coo %.0f\n",
                bench::max_of(a100_csr), bench::max_of(a100_coo),
                bench::max_of(mi100_csr), bench::max_of(mi100_coo));
    bench::check_shape(
        "A100 slightly outperforms MI100 at larger nnz",
        bench::geomean(upper_half(a100_csr)) >
                bench::geomean(upper_half(mi100_csr)) &&
            bench::geomean(upper_half(a100_csr)) <
                3.0 * bench::geomean(upper_half(mi100_csr)),
        "high-nnz CSR geomean " +
            bench::fmt(bench::geomean(upper_half(a100_csr))) + " vs " +
            bench::fmt(bench::geomean(upper_half(mi100_csr))) + " GF/s");
    bench::check_shape(
        "throughput grows with nnz",
        bench::geomean(upper_half(a100_csr)) >
            2.0 * bench::geomean(std::vector<double>(
                      a100_csr.begin(), a100_csr.begin() + a100_csr.size() / 2)),
        "A100 CSR low-half vs high-half geomeans");
    bench::check_shape(
        "CSR outperforms COO on both devices",
        bench::geomean(a100_csr) > bench::geomean(a100_coo) &&
            bench::geomean(mi100_csr) > bench::geomean(mi100_coo),
        "A100 " + bench::fmt(bench::geomean(a100_csr)) + " vs " +
            bench::fmt(bench::geomean(a100_coo)) + "; MI100 " +
            bench::fmt(bench::geomean(mi100_csr)) + " vs " +
            bench::fmt(bench::geomean(mi100_coo)) + " GF/s");
    bench::check_shape(
        "SELL-C-sigma outperforms COO on both devices",
        bench::geomean(a100_sell) > bench::geomean(a100_coo) &&
            bench::geomean(mi100_sell) > bench::geomean(mi100_coo),
        "A100 " + bench::fmt(bench::geomean(a100_sell)) + " vs " +
            bench::fmt(bench::geomean(a100_coo)) + "; MI100 " +
            bench::fmt(bench::geomean(mi100_sell)) + " vs " +
            bench::fmt(bench::geomean(mi100_coo)) + " GF/s");
    return 0;
}
