#include "core/mtx_io.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <limits>
#include <sstream>

#include "core/exception.hpp"
#include "core/parse_number.hpp"

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

/// The characters operator>> skips in the "C" locale.
bool is_space(char c)
{
    return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
           c == '\r';
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

/// Walks the text line by line as std::getline would, without copying.
class line_reader {
public:
    explicit line_reader(std::string_view text) : text_{text} {}

    bool next(std::string_view& line)
    {
        if (pos_ >= text_.size()) {
            return false;
        }
        auto end = text_.find('\n', pos_);
        if (end == std::string_view::npos) {
            end = text_.size();
        }
        line = text_.substr(pos_, end - pos_);
        pos_ = end + 1;
        // Files written on Windows end lines with \r\n.
        if (!line.empty() && line.back() == '\r') {
            line.remove_suffix(1);
        }
        return true;
    }

    /// The next line that is neither empty nor a comment.
    bool next_content(std::string_view& line)
    {
        while (next(line)) {
            const auto first = line.find_first_not_of(" \t");
            if (first != std::string_view::npos && line[first] != '%') {
                return true;
            }
        }
        return false;
    }

    /// Bytes not yet read.  Every entry takes at least two of them (a digit
    /// and a separator), so this bounds how many entries the input can
    /// still hold, whatever its header claims.
    int64 remaining() const
    {
        return pos_ < text_.size() ? static_cast<int64>(text_.size() - pos_)
                                   : 0;
    }

private:
    std::string_view text_;
    std::size_t pos_{0};
};

/// Reads numbers off one line the way chained operator>> calls would: each
/// read skips leading whitespace and stops at the first character that
/// cannot extend the number, and whatever follows the last read is ignored.
class field_reader {
public:
    explicit field_reader(std::string_view line)
        : cur_{line.data()}, end_{line.data() + line.size()}
    {}

    bool read(int64& value)
    {
        skip_space();
        const auto result = parse_int(cur_, end_, value);
        cur_ = result.ptr;
        return result.ec == std::errc{};
    }

    bool read(double& value)
    {
        skip_space();
        const char* start = cur_;
        const auto result = parse_real(cur_, end_, value);
        cur_ = result.ptr;
        // operator>> consumes an exponent marker even when no digits follow
        // it ("1e", "2E+") and then fails; from_chars stops before it.
        const auto is_exponent = [](char c) { return c == 'e' || c == 'E'; };
        return result.ec == std::errc{} &&
               !(cur_ != end_ && is_exponent(*cur_) &&
                 std::none_of(start, cur_, is_exponent));
    }

private:
    void skip_space()
    {
        while (cur_ != end_ && is_space(*cur_)) {
            ++cur_;
        }
    }

    const char* cur_;
    const char* end_;
};

}  // namespace


matrix_data<double, int64> parse_mtx(std::string_view text,
                                     const std::string& path)
{
    line_reader lines{text};
    std::string_view line;
    if (!lines.next(line)) {
        fail(path, "empty file");
    }
    const header h = parse_header(std::string{line}, path);

    if (!lines.next_content(line)) {
        fail(path, "missing size line");
    }
    field_reader size_line{line};
    matrix_data<double, int64> data;
    int64 rows = 0, cols = 0, nnz = 0;
    if (h.coordinate) {
        if (!(size_line.read(rows) && size_line.read(cols) &&
              size_line.read(nnz))) {
            fail(path, "malformed coordinate size line: " + std::string{line});
        }
    } else {
        if (!(size_line.read(rows) && size_line.read(cols))) {
            fail(path, "malformed array size line: " + std::string{line});
        }
    }
    if (rows < 0 || cols < 0 || nnz < 0) {
        fail(path, "negative dimensions");
    }
    if (!h.coordinate) {
        if (rows > 0 && cols > std::numeric_limits<int64>::max() / rows) {
            fail(path, "array dimensions overflow: " + std::string{line});
        }
        nnz = rows * cols;
    }
    data.size = dim2{rows, cols};
    // The header is untrusted: reserve only what the remaining text can
    // hold, so a tiny body declaring a huge nnz fails on its missing
    // entries instead of on the allocation.
    data.entries.reserve(
        static_cast<std::size_t>(std::min(nnz, lines.remaining() / 2)));

    if (h.coordinate) {
        for (int64 i = 0; i < nnz; ++i) {
            if (!lines.next_content(line)) {
                fail(path, "unexpected end of file at entry " +
                               std::to_string(i) + " of " +
                               std::to_string(nnz));
            }
            field_reader entry_line{line};
            int64 r = 0, c = 0;
            double v = 1.0;
            if (!(entry_line.read(r) && entry_line.read(c))) {
                fail(path, "malformed entry: " + std::string{line});
            }
            if (h.field_kind != header::field::pattern && !entry_line.read(v)) {
                fail(path, "missing value in entry: " + std::string{line});
            }
            // Matrix Market is 1-based; check before shifting, so that
            // INT64_MIN cannot overflow.
            if (r < 1 || r > rows || c < 1 || c > cols) {
                fail(path, "entry index out of bounds: " + std::string{line});
            }
            r -= 1;
            c -= 1;
            // Symmetric storage keeps only the lower triangle; an
            // upper-triangle entry would silently duplicate after
            // mirroring, so it is a hard error, as is a diagonal entry in
            // a skew-symmetric file (which must be zero by definition).
            if (h.symmetry_kind != header::symmetry::general && c > r) {
                fail(path,
                     "entry above the diagonal in symmetric storage "
                     "(expected lower-triangle coordinates): " +
                         std::string{line});
            }
            if (h.symmetry_kind == header::symmetry::skew && r == c) {
                fail(path,
                     "diagonal entry in skew-symmetric storage (the "
                     "diagonal of a skew-symmetric matrix is zero): " +
                         std::string{line});
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
                if (!lines.next_content(line)) {
                    fail(path, "unexpected end of dense data");
                }
                double v = 0.0;
                if (!field_reader{line}.read(v)) {
                    fail(path, "malformed dense value: " + std::string{line});
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


matrix_data<double, int64> read_mtx(std::istream& stream,
                                    const std::string& path)
{
    std::ostringstream text;
    text << stream.rdbuf();
    return parse_mtx(std::move(text).str(), path);
}


matrix_data<double, int64> read_mtx(const std::string& path)
{
    std::ifstream stream{path, std::ios::binary};
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
