// Number parsing for the text front ends (Matrix Market, JSON) on top of
// std::from_chars, with the grammar those readers had when they went through
// strtod and the stream extractor: an optional leading '+', no inf/nan/hex,
// and an underflowing real reads as strtod's signed zero or denormal instead
// of failing.  An overflowing real or integer reports
// std::errc::result_out_of_range; anything else unreadable reports
// std::errc::invalid_argument with ptr == first.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <string>
#include <system_error>

#include "core/types.hpp"

namespace mgko {


/// Skips the '+' that strtod and operator>> accept and from_chars does not;
/// a '+' followed by a '-' is left in place so the caller rejects it.
inline const char* skip_plus(const char* first, const char* last)
{
    if (first != last && *first == '+' &&
        (first + 1 == last || first[1] != '-')) {
        return first + 1;
    }
    return first;
}


inline std::from_chars_result parse_int(const char* first, const char* last,
                                        int64& value)
{
    const auto result = std::from_chars(skip_plus(first, last), last, value);
    if (result.ec == std::errc::invalid_argument) {
        return {first, result.ec};
    }
    return result;
}


inline std::from_chars_result parse_real(const char* first, const char* last,
                                         double& value)
{
    const char* start = skip_plus(first, last);
    // from_chars reads "inf" and "nan" too; a mantissa must start with a
    // digit or the decimal point.
    const char* mantissa = start != last && *start == '-' ? start + 1 : start;
    if (mantissa == last ||
        !((*mantissa >= '0' && *mantissa <= '9') || *mantissa == '.')) {
        return {first, std::errc::invalid_argument};
    }
    auto result = std::from_chars(start, last, value);
    if (result.ec == std::errc::invalid_argument) {
        return {first, result.ec};
    }
    if (result.ec == std::errc::result_out_of_range) {
        // from_chars reports underflow as out of range; strtod rounds it to
        // a (signed) zero or denormal, which is what callers always got.
        const std::string token{start, result.ptr};
        const double rounded = std::strtod(token.c_str(), nullptr);
        if (!std::isinf(rounded)) {
            value = rounded;
            result.ec = std::errc{};
        }
    }
    return result;
}


}  // namespace mgko
