// Matrix Market (.mtx) reader / writer.
//
// Supports the subset relevant to SuiteSparse matrices: `matrix` objects in
// `coordinate` or `array` layout, with `real`, `integer`, or `pattern`
// fields and `general`, `symmetric`, or `skew-symmetric` symmetry.  The
// paper's `pg.read(device=..., path='m1.mtx', ...)` entry point (Listing 1)
// funnels through this.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "core/matrix_data.hpp"
#include "core/types.hpp"

namespace mgko {


/// Parses Matrix Market text into staging data (entries unsorted, as in
/// the file; symmetric storage is expanded to general).  Throws FileError on
/// malformed input.
matrix_data<double, int64> parse_mtx(std::string_view text,
                                     const std::string& path_for_errors);

/// Reads the rest of `stream` and parses it with parse_mtx.
matrix_data<double, int64> read_mtx(std::istream& stream,
                                    const std::string& path_for_errors = "<stream>");

/// Reads from a file path.
matrix_data<double, int64> read_mtx(const std::string& path);

/// Writes coordinate/real/general Matrix Market output.
void write_mtx(std::ostream& stream, const matrix_data<double, int64>& data);
void write_mtx(const std::string& path, const matrix_data<double, int64>& data);


}  // namespace mgko
