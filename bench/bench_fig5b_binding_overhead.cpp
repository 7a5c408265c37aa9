// Figure 5b — relative performance difference of pyGinkgo (the binding
// layer) versus native Ginkgo (direct engine calls) for SpMV:
//
//     P_overhead = (P_gko - P_pygko) / P_gko * 100
//
// over the 45-matrix overhead suite, CSR and COO, on the simulated A100
// and MI100.  The binding path pays its real measured boxing/GIL/lookup
// wall time plus the modeled interpreter constant (DESIGN.md §2.1).
//
// Paper claims to reproduce in shape (NVIDIA):
//   * ~25-35% overhead at low nnz
//   * decays below 10% for large nnz
// and (AMD): overhead slightly higher, exceeding 40% for some small
// matrices, with larger fluctuations.
#include <cstdio>

#include "bench/common/harness.hpp"
#include "bindings/api.hpp"

using namespace mgko;

namespace {

struct sample {
    double nnz;
    double overhead_percent;
};

}  // namespace

int main()
{
    // MGKO_METRICS=<path|stdout>: per-call bind.* tags with the
    // GIL-wait/lookup/boxing/interpreter breakdown this figure isolates.
    bench::ProfileScope profile{"fig5b", {}};
    auto suite = matgen::overhead_suite();
    std::sort(suite.begin(), suite.end(), [](const auto& a, const auto& b) {
        return a.nnz_estimate < b.nnz_estimate;
    });

    bench::MatrixCache cache;
    bench::CsvBlock csv{"fig5b",
                        {"matrix", "nnz", "a100_csr_pct", "a100_coo_pct",
                         "mi100_csr_pct", "mi100_coo_pct"}};

    std::vector<sample> a100_samples, mi100_samples;
    std::printf("Figure 5b: relative performance difference pyGinkgo vs "
                "native (percent), CSR/COO on A100-sim and MI100-sim\n");
    for (const auto& s : suite) {
        const auto& data = cache.get(s);
        const auto nnz = data.num_stored();
        auto fdata = data.cast<float, int32>();
        std::vector<std::string> row{s.name, std::to_string(nnz)};
        for (const char* device_name : {"cuda", "hip"}) {
            auto dev = bind::device(device_name);
            auto exec = dev.executor();
            for (const char* format : {"Csr", "Coo"}) {
                // Native path: direct engine objects and applies.
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
                // Binding path: same device, through the dynamic layer.
                auto mtx = bind::matrix_from_data(dev, data, "float", format);
                auto b = bind::as_tensor(dev, dim2{data.size.cols, 1},
                                         "float", 1.0);
                auto x = bind::as_tensor(dev, dim2{data.size.rows, 1},
                                         "float", 0.0);
                const double t_bind = bench::time_seconds(
                    exec.get(), [&] { mtx.apply(b, x); }, 5);

                const double pct = (1.0 - t_native / t_bind) * 100.0;
                row.push_back(bench::fmt(pct));
                (std::string{device_name} == "cuda" ? a100_samples
                                                    : mi100_samples)
                    .push_back({static_cast<double>(nnz), pct});
            }
        }
        csv.add_row(row);
    }
    csv.print();

    // The paper's "<10%" regime is NNZ > 1e7; our suite tops out around
    // there, so "large" means the top tier (nnz > 2e6).
    auto percentiles = [](const std::vector<sample>& samples, bool small) {
        std::vector<double> values;
        for (const auto& s : samples) {
            if ((small && s.nnz < 3e5) || (!small && s.nnz > 2e6)) {
                values.push_back(s.overhead_percent);
            }
        }
        return values;
    };
    const auto a100_small = percentiles(a100_samples, true);
    const auto a100_large = percentiles(a100_samples, false);
    const auto mi100_small = percentiles(mi100_samples, true);

    std::printf("\nA100 overhead: small-nnz median %.1f%% | large-nnz median "
                "%.1f%%\nMI100 overhead: small-nnz median %.1f%%\n",
                bench::median(a100_small), bench::median(a100_large),
                bench::median(mi100_small));
    bench::check_shape(
        "NVIDIA: ~25-35% overhead at low nnz",
        bench::median(a100_small) > 12.0 && bench::median(a100_small) < 45.0,
        "small-nnz median " + bench::fmt(bench::median(a100_small)) + "%");
    bench::check_shape(
        "NVIDIA: overhead decays below ~10% at large nnz",
        bench::median(a100_large) < 12.0,
        "large-nnz median " + bench::fmt(bench::median(a100_large)) + "%");
    bench::check_shape(
        "AMD overhead higher than NVIDIA, exceeding 40% for some small "
        "matrices",
        bench::median(mi100_small) > bench::median(a100_small) &&
            bench::max_of(mi100_small) > 40.0,
        "MI100 small-nnz median " + bench::fmt(bench::median(mi100_small)) +
            "%, max " + bench::fmt(bench::max_of(mi100_small)) + "%");
    return 0;
}
