// CSR SpMV kernels.  Header-exposed (like coo_kernels.hpp) so tests and the
// team-cutoff sweep in bench_micro_overhead can drive the parallel kernels
// with an explicit thread count, independent of the work-size cutoff and
// of the host's core count.
#pragma once

#include <algorithm>

#include "core/kernel_utils.hpp"
#include "core/math.hpp"

namespace mgko::kernels::csr {


/// Computes one row of y = [alpha *] A * b [+ beta * y] for all b columns.
template <typename V, typename I>
inline void spmv_row(const V* values, const I* col_idxs, const I* row_ptrs,
                     const V* b, size_type b_stride, V* x, size_type x_stride,
                     size_type row, size_type vec_cols, bool advanced, V alpha,
                     V beta)
{
    using acc_t = accumulate_t<V>;
    for (size_type c = 0; c < vec_cols; ++c) {
        acc_t acc{};
        for (I k = row_ptrs[row]; k < row_ptrs[row + 1]; ++k) {
            acc += static_cast<acc_t>(values[k]) *
                   static_cast<acc_t>(b[static_cast<size_type>(col_idxs[k]) *
                                            b_stride +
                                        c]);
        }
        auto& out = x[row * x_stride + c];
        // beta == 0 must not read `out` (may be uninitialized).
        out = !advanced           ? V{acc}
              : beta == zero<V>() ? alpha * V{acc}
                                  : alpha * V{acc} + beta * out;
    }
}


/// Textbook serial kernel (reference executor ground truth).
template <typename V, typename I>
void spmv_serial(const V* values, const I* col_idxs, const I* row_ptrs,
                 const V* b, size_type b_stride, V* x, size_type x_stride,
                 size_type rows, size_type vec_cols, bool advanced, V alpha,
                 V beta)
{
    for (size_type row = 0; row < rows; ++row) {
        spmv_row(values, col_idxs, row_ptrs, b, b_stride, x, x_stride, row,
                 vec_cols, advanced, alpha, beta);
    }
}


/// Classical parallel kernel: contiguous equal-count row blocks per thread.
template <typename V, typename I>
void spmv_classical(int nt, const V* values, const I* col_idxs,
                    const I* row_ptrs, const V* b, size_type b_stride, V* x,
                    size_type x_stride, size_type rows, size_type vec_cols,
                    bool advanced, V alpha, V beta)
{
    parallel_for(nt, rows, [=](size_type row) {
        spmv_row(values, col_idxs, row_ptrs, b, b_stride, x, x_stride, row,
                 vec_cols, advanced, alpha, beta);
    });
}


/// Load-balanced kernel: rows are split so that every thread owns (nearly)
/// the same number of nonzeros — Ginkgo's balancing strategy for
/// irregular matrices.  Row boundaries are found by binary search in the
/// row-pointer array.
template <typename V, typename I>
void spmv_balanced(int nt, const V* values, const I* col_idxs,
                   const I* row_ptrs, const V* b, size_type b_stride, V* x,
                   size_type x_stride, size_type rows, size_type vec_cols,
                   bool advanced, V alpha, V beta)
{
    const auto nnz = static_cast<size_type>(row_ptrs[rows]);
    parallel_region(nt, [=](int tid, int threads) {
        const auto [target_begin, target_end] =
            thread_range(nnz, tid, threads);
        // Thread t owns the rows whose start offset falls in
        // [target_begin, target_end); boundaries are consistent across
        // threads because both ends use the same search.
        const auto row_begin = static_cast<size_type>(
            std::lower_bound(row_ptrs, row_ptrs + rows,
                             static_cast<I>(target_begin)) -
            row_ptrs);
        const auto row_end =
            tid == threads - 1
                ? rows
                : static_cast<size_type>(
                      std::lower_bound(row_ptrs, row_ptrs + rows,
                                       static_cast<I>(target_end)) -
                      row_ptrs);
        for (size_type row = row_begin; row < row_end; ++row) {
            spmv_row(values, col_idxs, row_ptrs, b, b_stride, x, x_stride,
                     row, vec_cols, advanced, alpha, beta);
        }
    });
}


/// Wavefront kernel (HIP path): rows processed in chunks of 64, chunks
/// distributed round-robin.
template <typename V, typename I>
void spmv_wavefront(int nt, const V* values, const I* col_idxs,
                    const I* row_ptrs, const V* b, size_type b_stride, V* x,
                    size_type x_stride, size_type rows, size_type vec_cols,
                    bool advanced, V alpha, V beta)
{
    const size_type chunk = 64;
    const size_type num_chunks = ceildiv(rows, chunk);
    parallel_region(nt, [=](int tid, int threads) {
        for (auto c = static_cast<size_type>(tid); c < num_chunks;
             c += static_cast<size_type>(threads)) {
            const size_type begin = c * chunk;
            const size_type end = std::min(rows, begin + chunk);
            for (size_type row = begin; row < end; ++row) {
                spmv_row(values, col_idxs, row_ptrs, b, b_stride, x,
                         x_stride, row, vec_cols, advanced, alpha, beta);
            }
        }
    });
}


}  // namespace mgko::kernels::csr
