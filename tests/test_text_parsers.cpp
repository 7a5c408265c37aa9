// Differential test of the text front ends: parse_mtx/read_mtx and
// Json::parse/dump against the istringstream/strtod readers they replaced,
// which are kept below as the oracle.  A fixed-seed mutator derives
// thousands of near-miss documents from a small corpus (byte flips,
// truncation, digit/sign/exponent edits, CR/LF and tab noise); for every
// mutant both readers must agree on accept/reject and on every parsed value,
// bit for bit.  The only disagreements allowed are the deliberate grammar
// changes of DESIGN.md §20:
//   * a JSON real that overflows (1e400) or an integer that overflows int64
//     is rejected, where the oracle read inf or INT64_MAX/INT64_MIN;
//   * a JSON \u escape needs exactly four hex digits, where the oracle's
//     stoul read a partial or signed escape (or threw std::invalid_argument,
//     which the server answered with a 500).
//   * a raw control byte (below 0x20) inside a JSON string is rejected
//     (RFC 8259), where the oracle copied it into the string.
// The Matrix Market grammar has no deliberate change.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "config/json.hpp"
#include "core/exception.hpp"
#include "core/mtx_io.hpp"

namespace {

using namespace mgko;
using config::Json;


// --- oracle: the stream-based Matrix Market reader ---------------------------

namespace oracle {

std::string to_lower(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    return s;
}

[[noreturn]] void fail(const std::string& what)
{
    throw FileError(__FILE__, __LINE__, "<oracle>", what);
}

struct header {
    bool coordinate = true;
    enum class field { real, integer, pattern } field_kind = field::real;
    enum class symmetry { general, symmetric, skew } symmetry_kind =
        symmetry::general;
};

header parse_header(const std::string& line)
{
    std::istringstream is{line};
    std::string banner, object, format, field, symmetry;
    is >> banner >> object >> format >> field >> symmetry;
    if (banner != "%%MatrixMarket") {
        fail("missing banner");
    }
    if (to_lower(object) != "matrix") {
        fail("object");
    }
    header h;
    const auto fmt = to_lower(format);
    if (fmt == "coordinate") {
        h.coordinate = true;
    } else if (fmt == "array") {
        h.coordinate = false;
    } else {
        fail("format");
    }
    const auto fld = to_lower(field);
    if (fld == "real" || fld == "double") {
        h.field_kind = header::field::real;
    } else if (fld == "integer") {
        h.field_kind = header::field::integer;
    } else if (fld == "pattern") {
        h.field_kind = header::field::pattern;
    } else {
        fail("field");
    }
    const auto sym = to_lower(symmetry);
    if (sym == "general") {
        h.symmetry_kind = header::symmetry::general;
    } else if (sym == "symmetric") {
        h.symmetry_kind = header::symmetry::symmetric;
    } else if (sym == "skew-symmetric") {
        h.symmetry_kind = header::symmetry::skew;
    } else {
        fail("symmetry");
    }
    return h;
}

void strip_carriage_return(std::string& line)
{
    if (!line.empty() && line.back() == '\r') {
        line.pop_back();
    }
}

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

matrix_data<double, int64> read_mtx(std::istream& stream)
{
    std::string line;
    if (!std::getline(stream, line)) {
        fail("empty file");
    }
    strip_carriage_return(line);
    const header h = parse_header(line);
    if (!next_content_line(stream, line)) {
        fail("missing size line");
    }
    std::istringstream size_line{line};
    matrix_data<double, int64> data;
    int64 rows = 0, cols = 0, nnz = 0;
    if (h.coordinate) {
        if (!(size_line >> rows >> cols >> nnz)) {
            fail("malformed coordinate size line");
        }
    } else {
        if (!(size_line >> rows >> cols)) {
            fail("malformed array size line");
        }
    }
    if (rows < 0 || cols < 0 || nnz < 0) {
        fail("negative dimensions");
    }
    if (!h.coordinate) {
        if (rows > 0 && cols > std::numeric_limits<int64>::max() / rows) {
            fail("array dimensions overflow");
        }
        nnz = rows * cols;
    }
    data.size = dim2{rows, cols};
    data.entries.reserve(
        static_cast<std::size_t>(std::min(nnz, remaining_bytes(stream) / 2)));
    if (h.coordinate) {
        for (int64 i = 0; i < nnz; ++i) {
            if (!next_content_line(stream, line)) {
                fail("unexpected end of file");
            }
            std::istringstream entry_line{line};
            int64 r = 0, c = 0;
            double v = 1.0;
            if (!(entry_line >> r >> c)) {
                fail("malformed entry");
            }
            if (h.field_kind != header::field::pattern &&
                !(entry_line >> v)) {
                fail("missing value");
            }
            // The old reader shifted first, which overflows on an index of
            // INT64_MIN; this is the same test without the overflow.
            if (r < 1 || r > rows || c < 1 || c > cols) {
                fail("out of bounds");
            }
            r -= 1;
            c -= 1;
            if (h.symmetry_kind != header::symmetry::general && c > r) {
                fail("upper triangle");
            }
            if (h.symmetry_kind == header::symmetry::skew && r == c) {
                fail("skew diagonal");
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
        for (int64 c = 0; c < cols; ++c) {
            const int64 row_begin =
                h.symmetry_kind == header::symmetry::general ? 0 : c;
            for (int64 r = row_begin; r < rows; ++r) {
                if (!next_content_line(stream, line)) {
                    fail("unexpected end of dense data");
                }
                double v = 0.0;
                std::istringstream entry_line{line};
                if (!(entry_line >> v)) {
                    fail("malformed dense value");
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


// --- oracle: the strtod/strtoll JSON parser ----------------------------------

class Parser {
public:
    explicit Parser(const std::string& text) : text_{text} {}

    Json parse_document()
    {
        auto result = parse_value();
        skip_whitespace();
        if (pos_ != text_.size()) {
            fail("trailing characters");
        }
        return result;
    }

private:
    [[noreturn]] void fail(const std::string& what) const
    {
        throw BadParameter(__FILE__, __LINE__, "oracle: " + what);
    }

    void skip_whitespace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
        }
    }

    char peek()
    {
        if (pos_ >= text_.size()) {
            fail("unexpected end of input");
        }
        return text_[pos_];
    }

    char next() { return text_[pos_++]; }

    void expect_literal(const char* literal)
    {
        for (const char* c = literal; *c != '\0'; ++c) {
            if (pos_ >= text_.size() || text_[pos_] != *c) {
                fail("expected literal");
            }
            ++pos_;
        }
    }

    Json parse_value()
    {
        skip_whitespace();
        switch (peek()) {
        case '{':
            return parse_object();
        case '[':
            return parse_array();
        case '"':
            return Json{parse_string()};
        case 't':
            expect_literal("true");
            return Json{true};
        case 'f':
            expect_literal("false");
            return Json{false};
        case 'n':
            expect_literal("null");
            return Json{nullptr};
        default:
            return parse_number();
        }
    }

    Json parse_object()
    {
        next();
        auto result = Json::make_object();
        skip_whitespace();
        if (peek() == '}') {
            next();
            return result;
        }
        while (true) {
            skip_whitespace();
            if (peek() != '"') {
                fail("expected string key");
            }
            auto key = parse_string();
            skip_whitespace();
            if (next() != ':') {
                fail("expected ':'");
            }
            result[key] = parse_value();
            skip_whitespace();
            const char c = next();
            if (c == '}') {
                return result;
            }
            if (c != ',') {
                fail("expected ',' or '}'");
            }
        }
    }

    Json parse_array()
    {
        next();
        auto result = Json::make_array();
        skip_whitespace();
        if (peek() == ']') {
            next();
            return result;
        }
        while (true) {
            result.push_back(parse_value());
            skip_whitespace();
            const char c = next();
            if (c == ']') {
                return result;
            }
            if (c != ',') {
                fail("expected ',' or ']'");
            }
        }
    }

    std::string parse_string()
    {
        next();
        std::string result;
        while (true) {
            if (pos_ >= text_.size()) {
                fail("unterminated string");
            }
            const char c = next();
            if (c == '"') {
                return result;
            }
            if (c != '\\') {
                result.push_back(c);
                continue;
            }
            const char esc = next();
            switch (esc) {
            case '"':
                result.push_back('"');
                break;
            case '\\':
                result.push_back('\\');
                break;
            case '/':
                result.push_back('/');
                break;
            case 'b':
                result.push_back('\b');
                break;
            case 'f':
                result.push_back('\f');
                break;
            case 'n':
                result.push_back('\n');
                break;
            case 'r':
                result.push_back('\r');
                break;
            case 't':
                result.push_back('\t');
                break;
            case 'u': {
                if (pos_ + 4 > text_.size()) {
                    fail("truncated \\u escape");
                }
                const auto code =
                    std::stoul(text_.substr(pos_, 4), nullptr, 16);
                pos_ += 4;
                if (code < 0x80) {
                    result.push_back(static_cast<char>(code));
                } else if (code < 0x800) {
                    result.push_back(static_cast<char>(0xc0 | (code >> 6)));
                    result.push_back(static_cast<char>(0x80 | (code & 0x3f)));
                } else {
                    result.push_back(static_cast<char>(0xe0 | (code >> 12)));
                    result.push_back(
                        static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
                    result.push_back(static_cast<char>(0x80 | (code & 0x3f)));
                }
                break;
            }
            default:
                fail("invalid escape character");
            }
        }
    }

    Json parse_number()
    {
        const auto start = pos_;
        bool is_real = false;
        if (peek() == '-') {
            next();
        }
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (std::isdigit(static_cast<unsigned char>(c))) {
                ++pos_;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' ||
                       c == '-') {
                is_real = is_real || c == '.' || c == 'e' || c == 'E';
                ++pos_;
            } else {
                break;
            }
        }
        const auto token = text_.substr(start, pos_ - start);
        if (token.empty() || token == "-") {
            fail("invalid number");
        }
        char* end = nullptr;
        if (is_real) {
            const double v = std::strtod(token.c_str(), &end);
            if (end != token.c_str() + token.size()) {
                fail("invalid number");
            }
            return Json{v};
        }
        const long long v = std::strtoll(token.c_str(), &end, 10);
        if (end != token.c_str() + token.size()) {
            fail("invalid number");
        }
        return Json{static_cast<std::int64_t>(v)};
    }

    const std::string& text_;
    std::size_t pos_{0};
};

Json parse_json(const std::string& text) { return Parser{text}.parse_document(); }

}  // namespace oracle


// --- comparison -------------------------------------------------------------

bool same_bits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool same(const matrix_data<double, int64>& a,
          const matrix_data<double, int64>& b)
{
    if (a.size != b.size || a.entries.size() != b.entries.size()) {
        return false;
    }
    for (std::size_t i = 0; i < a.entries.size(); ++i) {
        if (a.entries[i].row != b.entries[i].row ||
            a.entries[i].col != b.entries[i].col ||
            !same_bits(a.entries[i].value, b.entries[i].value)) {
            return false;
        }
    }
    return true;
}

/// Structural equality with reals compared bit for bit (so -0.0 differs
/// from 0.0, which Json::operator== would not tell apart).
bool same(const Json& a, const Json& b)
{
    if (a.get_kind() != b.get_kind()) {
        return false;
    }
    switch (a.get_kind()) {
    case Json::kind::real:
        return same_bits(a.as_double(), b.as_double());
    case Json::kind::array: {
        const auto& x = a.elements();
        const auto& y = b.elements();
        if (x.size() != y.size()) {
            return false;
        }
        for (std::size_t i = 0; i < x.size(); ++i) {
            if (!same(x[i], y[i])) {
                return false;
            }
        }
        return true;
    }
    case Json::kind::object: {
        const auto& x = a.items();
        const auto& y = b.items();
        if (x.size() != y.size()) {
            return false;
        }
        for (auto i = x.begin(), j = y.begin(); i != x.end(); ++i, ++j) {
            if (i->first != j->first || !same(i->second, j->second)) {
                return false;
            }
        }
        return true;
    }
    default:
        return a == b;
    }
}

/// Whether the oracle's document holds a value only an overflow produces:
/// a non-finite real or an integer clamped to the int64 range.
bool holds_overflow(const Json& value)
{
    switch (value.get_kind()) {
    case Json::kind::real:
        return !std::isfinite(value.as_double());
    case Json::kind::integer:
        return value.as_int() == std::numeric_limits<std::int64_t>::max() ||
               value.as_int() == std::numeric_limits<std::int64_t>::min();
    case Json::kind::array:
        return std::any_of(value.elements().begin(), value.elements().end(),
                           holds_overflow);
    case Json::kind::object:
        return std::any_of(value.items().begin(), value.items().end(),
                           [](const auto& kv) {
                               return holds_overflow(kv.second);
                           });
    default:
        return false;
    }
}

/// Whether the oracle's document holds a string (value or key) with a
/// control byte, which only a raw one in the text can have produced when
/// the new parser rejects the text for it.
bool holds_control_byte(const Json& value)
{
    const auto has = [](const std::string& text) {
        return std::any_of(text.begin(), text.end(), [](char c) {
            return static_cast<unsigned char>(c) < 0x20;
        });
    };
    switch (value.get_kind()) {
    case Json::kind::string:
        return has(value.as_string());
    case Json::kind::array:
        return std::any_of(value.elements().begin(), value.elements().end(),
                           holds_control_byte);
    case Json::kind::object:
        return std::any_of(value.items().begin(), value.items().end(),
                           [&](const auto& kv) {
                               return has(kv.first) ||
                                      holds_control_byte(kv.second);
                           });
    default:
        return false;
    }
}

template <typename T>
struct outcome {
    bool accepted{false};
    T value{};
    std::string error;
};

template <typename T, typename Exception, typename Parse>
outcome<T> run(Parse&& parse)
{
    outcome<T> result;
    try {
        result.value = parse();
        result.accepted = true;
    } catch (const Exception& e) {
        result.error = e.what();
    }
    return result;
}

/// The oracle may also fail with untyped exceptions (std::stoul's).
template <typename T, typename Parse>
outcome<T> run_oracle(Parse&& parse)
{
    return run<T, std::exception>(parse);
}

std::string printable(const std::string& text)
{
    std::string out;
    for (const unsigned char c : text) {
        if (c == '\n') {
            out += "\\n";
        } else if (c == '\r') {
            out += "\\r";
        } else if (c == '\t') {
            out += "\\t";
        } else if (c < 0x20 || c >= 0x7f) {
            char buffer[8];
            std::snprintf(buffer, sizeof(buffer), "\\x%02x", c);
            out += buffer;
        } else {
            out += static_cast<char>(c);
        }
    }
    return out;
}


// --- corpus and mutator -----------------------------------------------------

std::string poisson_mtx(int n)
{
    std::string lines;
    int lower = 0;
    for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
            const int row = i * n + j + 1;
            if (i > 0) {
                lines += std::to_string(row) + " " +
                         std::to_string(row - n) + " -1\n";
                ++lower;
            }
            if (j > 0) {
                lines += std::to_string(row) + " " +
                         std::to_string(row - 1) + " -1.0e0\n";
                ++lower;
            }
            lines += std::to_string(row) + " " + std::to_string(row) + " 4\n";
            ++lower;
        }
    }
    return "%%MatrixMarket matrix coordinate real symmetric\n" +
           std::to_string(n * n) + " " + std::to_string(n * n) + " " +
           std::to_string(lower) + "\n" + lines;
}

std::vector<std::string> mtx_corpus()
{
    return {
        "%%MatrixMarket matrix coordinate real general\n"
        "% a comment\n"
        "4 4 6\n"
        "1 1 1.5\n"
        "2 1 -2.5e-3\n"
        "2 2 +3\n"
        "3 3 .25\n"
        "4 2 1E+2\n"
        "4 4 -0\n",
        "%%MatrixMarket matrix coordinate real symmetric\r\n"
        "%\r\n"
        "3 3 4\r\n"
        "1 1\t4.0\r\n"
        "2 1 -1.0\r\n"
        "3 2  -1.\r\n"
        "  3\t3 4e0\r\n",
        "%%MatrixMarket matrix coordinate real skew-symmetric\n"
        "3 3 2\n"
        "2 1 3.0\n"
        "3 1 -0.5\n",
        "%%MatrixMarket matrix coordinate pattern general\n"
        "3 3 3\n"
        "1 1\n"
        "2 3\n"
        "3 2\n",
        "%%MatrixMarket matrix coordinate integer symmetric\n"
        "2 2 2\n"
        "1 1 7\n"
        "2 1 -3\n",
        "%%MatrixMarket matrix array real general\n"
        "3 2\n"
        "1.0\n0.0\n-2.5\n"
        "4e-1\n0\n6.02214076e23\n",
        "%%MatrixMarket matrix array real symmetric\n"
        "3 3\n"
        "1\n2\n3\n4\n5\n6\n",
        "%%MatrixMarket matrix coordinate real general\n"
        "3 3 5\n"
        "1 1 1e-310\n"
        "2 2 4.9e-324\n"
        "3 3 1.7976931348623157e308\n"
        "1 2 123456789012345678901234567890\n"
        "2 1 0.1\n",
        poisson_mtx(4),
    };
}

std::vector<std::string> json_corpus()
{
    return {
        "[1, -2.5, 1e-6, 3E+2, -0, 0.1, 12345678901234, 5., .5, 007]",
        R"({"b": [0.30000000000000004, -1.7976931348623157e308,)"
        R"( 2.2250738585072014e-308, 4.9e-324],)"
        R"( "n": 9223372036854775807, "m": -9223372036854775808})",
        "[1e-400, -1e-400, +1, +2.5e3, -0.0, 1E5]",
        R"({"config": {"type": "solver::Cg", "max_iters": 100,)"
        R"( "reduction_factor": 1e-8}, "b": [0.84018771715470952,)"
        R"( -0.39438292681909304, 0.78309922375860586, 1.0, -1.0,)"
        R"( 0.79844003347607329, 9.1164735793678431e-05]})",
        R"({"s": "a\nb\u0041\u00e9", "x": [1, 2], "t": true, "z": null})",
    };
}

class mutator {
public:
    explicit mutator(std::uint64_t seed) : engine_{seed} {}

    std::string mutate(std::string text)
    {
        const auto edits = 1 + pick(3);
        for (std::size_t i = 0; i < edits; ++i) {
            edit(text);
        }
        return text;
    }

private:
    std::size_t pick(std::size_t n) { return n == 0 ? 0 : engine_() % n; }

    template <std::size_t N>
    const char* pick_from(const char* const (&choices)[N])
    {
        return choices[pick(N)];
    }

    /// A random position holding a digit, or npos when there is none.
    std::size_t digit_at(const std::string& text)
    {
        const auto from = pick(text.size() + 1);
        for (std::size_t i = 0; i < text.size(); ++i) {
            const auto at = (from + i) % text.size();
            if (std::isdigit(static_cast<unsigned char>(text[at]))) {
                return at;
            }
        }
        return std::string::npos;
    }

    void edit(std::string& text)
    {
        static const char* const exponents[] = {
            "e", "E", "e+", "e-", "e5", "E-7", "e400", "e-400", "e-320",
            "e308", "e99999", "e-99999"};
        static const char* const noise[] = {"\r", "\n", "\t", "\r\n", " ",
                                            "\n\n", "\v", "\r\r"};
        static const char* const structural[] = {
            "%", ".", ",", "-", "+", "e", "E", "[", "]", "\"", "\\", " ",
            "\n", "x", "inf", "nan", "0x"};
        const auto at = pick(text.size() + 1);
        switch (pick(7)) {
        case 0:  // flip one bit of one byte
            if (!text.empty()) {
                text[pick(text.size())] ^= static_cast<char>(1u << pick(8));
            }
            break;
        case 1:  // truncate
            text.resize(at);
            break;
        case 2: {  // rewrite, drop, or repeat a digit
            const auto d = digit_at(text);
            if (d == std::string::npos) {
                break;
            }
            const char digit = static_cast<char>('0' + pick(10));
            switch (pick(3)) {
            case 0:
                text[d] = digit;
                break;
            case 1:
                text.erase(d, 1);
                break;
            default:
                text.insert(d, 1 + pick(24), digit);
            }
            break;
        }
        case 3: {  // a sign in front of a digit
            const auto d = digit_at(text);
            text.insert(d == std::string::npos ? at : d, 1,
                        "+-"[pick(2)]);
            break;
        }
        case 4: {  // an exponent after a digit
            const auto d = digit_at(text);
            text.insert(d == std::string::npos ? at : d + 1,
                        pick_from(exponents));
            break;
        }
        case 5:  // CR/LF, tab and other whitespace noise
            text.insert(at, pick_from(noise));
            break;
        default:  // a structural or number-adjacent character
            text.insert(at, pick_from(structural));
        }
    }

    std::mt19937_64 engine_;
};

constexpr std::uint64_t seed = 20260415;
constexpr int mutants_per_document = 600;


// --- Matrix Market ------------------------------------------------------------

outcome<matrix_data<double, int64>> parse_new_mtx(const std::string& text)
{
    return run<matrix_data<double, int64>, FileError>(
        [&] { return parse_mtx(text, "<mutant>"); });
}

outcome<matrix_data<double, int64>> parse_oracle_mtx(const std::string& text)
{
    return run_oracle<matrix_data<double, int64>>([&] {
        std::istringstream stream{text};
        return oracle::read_mtx(stream);
    });
}

TEST(TextParsers, MtxCorpusParsesLikeTheOracle)
{
    for (const auto& doc : mtx_corpus()) {
        const auto fresh = parse_new_mtx(doc);
        const auto old = parse_oracle_mtx(doc);
        ASSERT_TRUE(old.accepted) << old.error << "\n" << printable(doc);
        ASSERT_TRUE(fresh.accepted) << fresh.error << "\n" << printable(doc);
        EXPECT_TRUE(same(fresh.value, old.value)) << printable(doc);
        // The stream entry point reads through the same parser.
        std::istringstream stream{doc};
        EXPECT_TRUE(same(read_mtx(stream), old.value)) << printable(doc);
    }
}

TEST(TextParsers, MtxMutantsAgreeWithTheOracle)
{
    mutator mutate{seed};
    int accepted = 0;
    int rejected = 0;
    int failures = 0;
    for (const auto& doc : mtx_corpus()) {
        for (int i = 0; i < mutants_per_document && failures < 10; ++i) {
            const auto text = mutate.mutate(doc);
            const auto fresh = parse_new_mtx(text);
            const auto old = parse_oracle_mtx(text);
            if (fresh.accepted != old.accepted ||
                (fresh.accepted && !same(fresh.value, old.value))) {
                ++failures;
                ADD_FAILURE() << "parse_mtx "
                              << (fresh.accepted ? "accepts" : "rejects")
                              << ", oracle "
                              << (old.accepted ? "accepts" : "rejects")
                              << (fresh.accepted == old.accepted
                                      ? " with different values"
                                      : "")
                              << ": " << printable(text) << "\n"
                              << fresh.error << old.error;
            }
            (fresh.accepted ? accepted : rejected) += 1;
        }
    }
    // Both sides of the grammar are exercised, not just the error paths.
    EXPECT_GT(accepted, 500);
    EXPECT_GT(rejected, 500);
}

TEST(TextParsers, MtxNumberSpellingsAgreeWithTheOracle)
{
    // Values and indices spelled every way the stream extractor treats
    // specially: partial exponents, signs, hex and inf/nan, extreme
    // magnitudes, and trailing characters it stops before.
    const char* spellings[] = {
        "1",        "+1",        "-1",          "+-1",       "-+1",
        "--1",      "- 1",       "1e",          "1e+",       "1E-",
        "1e5e3",    "1.e5",      "1.e",         ".5",        "-.5",
        "+.5",      ".",         "-.",          "1.",        "1..5",
        "0x1p3",    "0x10",      "inf",         "-inf",      "nan",
        "infinity", "1e-400",    "-1e-400",     "2e-324",    "4.9e-324",
        "1e-310",   "1e400",     "-1e400",      "1e308",     "1.8e308",
        "007",      "1x",        "1,5",         "1\v",       "1\r",
        "99999999999999999999",  "9223372036854775807",
        "9223372036854775808",   "-9223372036854775808",
        "-9223372036854775809",  "1e+-5",       "e5",        "+",
        "-",        "",          "\t2",         "2\t\t"};
    for (const char* s : spellings) {
        const std::string spelled{s};
        for (const auto& doc :
             {"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 " +
                  spelled + "\n",
              "%%MatrixMarket matrix coordinate real general\n2 2 1\n" +
                  spelled + " 1 1.0\n",
              "%%MatrixMarket matrix array real general\n1 1\n" + spelled +
                  "\n",
              "%%MatrixMarket matrix coordinate real general\n" + spelled +
                  " 2 1\n1 1 1.0\n"}) {
            const auto fresh = parse_new_mtx(doc);
            const auto old = parse_oracle_mtx(doc);
            EXPECT_EQ(fresh.accepted, old.accepted)
                << printable(doc) << "\n"
                << fresh.error << old.error;
            if (fresh.accepted && old.accepted) {
                EXPECT_TRUE(same(fresh.value, old.value)) << printable(doc);
            }
        }
    }
}


// --- JSON ---------------------------------------------------------------------

outcome<Json> parse_new_json(const std::string& text)
{
    return run<Json, BadParameter>([&] { return Json::parse(text); });
}

outcome<Json> parse_oracle_json(const std::string& text)
{
    return run_oracle<Json>([&] { return oracle::parse_json(text); });
}

/// Whether a disagreement is one of the deliberate grammar changes.
bool deliberate_change(const outcome<Json>& fresh, const outcome<Json>& old,
                       const std::string& text)
{
    if (fresh.accepted) {
        return false;  // nothing the oracle rejected is accepted now
    }
    if (fresh.error.find("out of range") != std::string::npos) {
        return old.accepted && holds_overflow(old.value);
    }
    if (fresh.error.find("raw control character") != std::string::npos) {
        return old.accepted && holds_control_byte(old.value);
    }
    return fresh.error.find("\\u escape") != std::string::npos &&
           text.find("\\u") != std::string::npos;
}

TEST(TextParsers, JsonCorpusParsesLikeTheOracle)
{
    for (const auto& doc : json_corpus()) {
        const auto fresh = parse_new_json(doc);
        const auto old = parse_oracle_json(doc);
        ASSERT_TRUE(old.accepted) << old.error << "\n" << doc;
        ASSERT_TRUE(fresh.accepted) << fresh.error << "\n" << doc;
        EXPECT_TRUE(same(fresh.value, old.value)) << doc;
    }
}

TEST(TextParsers, JsonMutantsAgreeWithTheOracle)
{
    mutator mutate{seed + 1};
    int accepted = 0;
    int rejected = 0;
    int deliberate = 0;
    int failures = 0;
    for (const auto& doc : json_corpus()) {
        for (int i = 0; i < mutants_per_document && failures < 10; ++i) {
            const auto text = mutate.mutate(doc);
            const auto fresh = parse_new_json(text);
            const auto old = parse_oracle_json(text);
            if (fresh.accepted == old.accepted &&
                (!fresh.accepted || same(fresh.value, old.value))) {
                (fresh.accepted ? accepted : rejected) += 1;
                continue;
            }
            if (deliberate_change(fresh, old, text)) {
                ++deliberate;
                continue;
            }
            ++failures;
            ADD_FAILURE() << "Json::parse "
                          << (fresh.accepted ? "accepts" : "rejects")
                          << ", oracle "
                          << (old.accepted ? "accepts" : "rejects")
                          << (fresh.accepted == old.accepted
                                  ? " with different values"
                                  : "")
                          << ": " << printable(text) << "\n"
                          << fresh.error << old.error;
        }
    }
    EXPECT_GT(accepted, 300);
    EXPECT_GT(rejected, 300);
    // The mutator reaches the overflow change, so its exemption is live.
    EXPECT_GT(deliberate, 0);
}

TEST(TextParsers, JsonNumberSpellingsAgreeWithTheOracle)
{
    const char* spellings[] = {
        "1",     "+1",     "-1",      "+-1",     "-+1",    "--1",
        "1e",    "1e+",    "1E-",     "1e5e3",   "1.e5",   ".5",
        "-.5",   "+.5",    ".",       "-.",      "1.",     "1..5",
        "007",   "-0",     "-0.0",    "0e0",     "1e-400", "-1e-400",
        "2e-324", "4.9e-324", "1e-310", "1e308", "1.8e308", "1e400",
        "-1e400", "9223372036854775807", "-9223372036854775808",
        "99999999999999999999", "-99999999999999999999",
        "9223372036854775808", "1e+-5", "+",   "-",      "1-2",
        "1+2",   "0.1",    "1E5",     "123456789012345678901234567890.5"};
    for (const char* s : spellings) {
        const auto doc = std::string{"["} + s + "]";
        const auto fresh = parse_new_json(doc);
        const auto old = parse_oracle_json(doc);
        if (fresh.accepted == old.accepted) {
            if (fresh.accepted) {
                EXPECT_TRUE(same(fresh.value, old.value)) << doc;
            }
            continue;
        }
        EXPECT_TRUE(deliberate_change(fresh, old, doc))
            << doc << "\n"
            << fresh.error << old.error;
    }
}

TEST(TextParsers, ShortestRoundTripOutputParsesBackToTheSameDoubles)
{
    std::vector<double> values = {
        0.0,
        -0.0,
        0.1,
        1.0 / 3.0,
        1e16,
        123456789012345678.0,
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::lowest(),
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::epsilon()};
    std::mt19937_64 engine{seed};
    while (values.size() < 20000) {
        const std::uint64_t bits = engine();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        if (std::isfinite(v)) {
            values.push_back(v);
        }
    }
    Json array = Json::make_array();
    for (const double v : values) {
        array.push_back(Json{v});
    }
    const auto text = array.dump();
    const auto back = Json::parse(text);
    ASSERT_EQ(back.size(), static_cast<size_type>(values.size()));
    for (std::size_t i = 0; i < values.size(); ++i) {
        const auto& cell = back.elements()[i];
        ASSERT_TRUE(cell.is_real()) << i;
        ASSERT_TRUE(same_bits(cell.as_double(), values[i]))
            << values[i] << " printed as " << Json{values[i]}.dump();
        // The oracle's strtod reads the same bits back, too.
        ASSERT_TRUE(same_bits(
            oracle::parse_json(Json{values[i]}.dump()).as_double(),
            values[i]));
    }
}


}  // namespace
