#include "core/mtx_io.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <limits>
#include <sstream>

#include "core/exception.hpp"

namespace mgko {

namespace {

std::string to_lower(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    return s;
}

[[noreturn]] void fail(const std::string& path, const std::string& what)
{
    throw FileError(__FILE__, __LINE__, path, what);
}

struct header {
    bool coordinate = true;
    enum class field { real, integer, pattern } field_kind = field::real;
    enum class symmetry { general, symmetric, skew } symmetry_kind =
        symmetry::general;
};

header parse_header(const std::string& line, const std::string& path)
{
    std::istringstream is{line};
    std::string banner, object, format, field, symmetry;
    is >> banner >> object >> format >> field >> symmetry;
    if (banner != "%%MatrixMarket") {
        fail(path, "missing %%MatrixMarket banner");
    }
    if (to_lower(object) != "matrix") {
        fail(path, "unsupported object type: " + object);
    }
    header h;
    const auto fmt = to_lower(format);
    if (fmt == "coordinate") {
        h.coordinate = true;
    } else if (fmt == "array") {
        h.coordinate = false;
    } else {
        fail(path, "unsupported format: " + format);
    }
    const auto fld = to_lower(field);
    if (fld == "real" || fld == "double") {
        h.field_kind = header::field::real;
    } else if (fld == "integer") {
        h.field_kind = header::field::integer;
    } else if (fld == "pattern") {
        h.field_kind = header::field::pattern;
    } else {
        fail(path, "unsupported field: " + field);
    }
    const auto sym = to_lower(symmetry);
    if (sym == "general") {
        h.symmetry_kind = header::symmetry::general;
    } else if (sym == "symmetric") {
        h.symmetry_kind = header::symmetry::symmetric;
    } else if (sym == "skew-symmetric") {
        h.symmetry_kind = header::symmetry::skew;
    } else {
        fail(path, "unsupported symmetry: " + symmetry);
    }
    return h;
}

/// Files written on Windows end lines with \r\n; getline keeps the \r.
void strip_carriage_return(std::string& line)
{
    if (!line.empty() && line.back() == '\r') {
        line.pop_back();
    }
}

/// Reads the next line that is neither empty nor a comment.
bool next_content_line(std::istream& stream, std::string& line)
{
    while (std::getline(stream, line)) {
        strip_carriage_return(line);
        auto first = line.find_first_not_of(" \t");
        if (first == std::string::npos || line[first] == '%') {
            continue;
        }
        return true;
    }
    return false;
}

/// Bytes left to read in `stream`; 0 when it cannot seek.  Every entry
/// takes at least two of them (a digit and a separator), so this bounds
/// how many entries the input can still hold, whatever its header claims.
int64 remaining_bytes(std::istream& stream)
{
    const auto here = stream.tellg();
    if (here < 0) {
        return 0;
    }
    stream.seekg(0, std::ios::end);
    const auto end = stream.tellg();
    stream.seekg(here);
    return end > here ? static_cast<int64>(end - here) : 0;
}

}  // namespace


matrix_data<double, int64> read_mtx(std::istream& stream,
                                    const std::string& path)
{
    std::string line;
    if (!std::getline(stream, line)) {
        fail(path, "empty file");
    }
    strip_carriage_return(line);
    const header h = parse_header(line, path);

    if (!next_content_line(stream, line)) {
        fail(path, "missing size line");
    }
    std::istringstream size_line{line};
    matrix_data<double, int64> data;
    int64 rows = 0, cols = 0, nnz = 0;
    if (h.coordinate) {
        if (!(size_line >> rows >> cols >> nnz)) {
            fail(path, "malformed coordinate size line: " + line);
        }
    } else {
        if (!(size_line >> rows >> cols)) {
            fail(path, "malformed array size line: " + line);
        }
    }
    if (rows < 0 || cols < 0 || nnz < 0) {
        fail(path, "negative dimensions");
    }
    if (!h.coordinate) {
        if (rows > 0 && cols > std::numeric_limits<int64>::max() / rows) {
            fail(path, "array dimensions overflow: " + line);
        }
        nnz = rows * cols;
    }
    data.size = dim2{rows, cols};
    // The header is untrusted: reserve only what the remaining bytes can
    // hold, so a tiny body declaring a huge nnz fails on its missing
    // entries instead of on the allocation.
    data.entries.reserve(
        static_cast<std::size_t>(std::min(nnz, remaining_bytes(stream) / 2)));

    if (h.coordinate) {
        for (int64 i = 0; i < nnz; ++i) {
            if (!next_content_line(stream, line)) {
                fail(path, "unexpected end of file at entry " +
                               std::to_string(i) + " of " +
                               std::to_string(nnz));
            }
            std::istringstream entry_line{line};
            int64 r = 0, c = 0;
            double v = 1.0;
            if (!(entry_line >> r >> c)) {
                fail(path, "malformed entry: " + line);
            }
            if (h.field_kind != header::field::pattern &&
                !(entry_line >> v)) {
                fail(path, "missing value in entry: " + line);
            }
            // Matrix Market is 1-based.
            r -= 1;
            c -= 1;
            if (r < 0 || r >= rows || c < 0 || c >= cols) {
                fail(path, "entry index out of bounds: " + line);
            }
            // Symmetric storage keeps only the lower triangle; an
            // upper-triangle entry would silently duplicate after
            // mirroring, so it is a hard error, as is a diagonal entry in
            // a skew-symmetric file (which must be zero by definition).
            if (h.symmetry_kind != header::symmetry::general && c > r) {
                fail(path,
                     "entry above the diagonal in symmetric storage "
                     "(expected lower-triangle coordinates): " +
                         line);
            }
            if (h.symmetry_kind == header::symmetry::skew && r == c) {
                fail(path,
                     "diagonal entry in skew-symmetric storage (the "
                     "diagonal of a skew-symmetric matrix is zero): " +
                         line);
            }
            data.add(r, c, v);
            if (r != c) {
                if (h.symmetry_kind == header::symmetry::symmetric) {
                    data.add(c, r, v);
                } else if (h.symmetry_kind == header::symmetry::skew) {
                    data.add(c, r, -v);
                }
            }
        }
    } else {
        // Array format: column-major dense listing.
        for (int64 c = 0; c < cols; ++c) {
            const int64 row_begin =
                h.symmetry_kind == header::symmetry::general ? 0 : c;
            for (int64 r = row_begin; r < rows; ++r) {
                if (!next_content_line(stream, line)) {
                    fail(path, "unexpected end of dense data");
                }
                double v = 0.0;
                std::istringstream entry_line{line};
                if (!(entry_line >> v)) {
                    fail(path, "malformed dense value: " + line);
                }
                if (v != 0.0) {
                    data.add(r, c, v);
                    if (r != c &&
                        h.symmetry_kind == header::symmetry::symmetric) {
                        data.add(c, r, v);
                    }
                    if (r != c && h.symmetry_kind == header::symmetry::skew) {
                        data.add(c, r, -v);
                    }
                }
            }
        }
    }
    return data;
}


matrix_data<double, int64> read_mtx(const std::string& path)
{
    std::ifstream stream{path};
    if (!stream) {
        fail(path, "cannot open file");
    }
    return read_mtx(stream, path);
}


void write_mtx(std::ostream& stream, const matrix_data<double, int64>& data)
{
    stream << "%%MatrixMarket matrix coordinate real general\n";
    stream << data.size.rows << " " << data.size.cols << " "
           << data.num_stored() << "\n";
    stream.precision(17);
    for (const auto& e : data.entries) {
        stream << (e.row + 1) << " " << (e.col + 1) << " " << e.value << "\n";
    }
}


void write_mtx(const std::string& path, const matrix_data<double, int64>& data)
{
    std::ofstream stream{path};
    if (!stream) {
        fail(path, "cannot open file for writing");
    }
    write_mtx(stream, data);
}


}  // namespace mgko
