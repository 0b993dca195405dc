// Small string helpers shared by the text-format parsers (tech files,
// Liberty-lite, SoC specs) and the table/CSV writers.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace pim {

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view text);

/// Splits on `separator`, trimming each piece; empty pieces are kept.
std::vector<std::string> split(std::string_view text, char separator);

/// Splits on runs of whitespace; empty tokens are never produced.
std::vector<std::string> split_whitespace(std::string_view text);

/// True if `text` begins with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix);

/// Parses a floating-point number exactly as strtod does in the C locale
/// (same accepted set, same bits); throws pim::Error on any trailing junk.
/// Plain decimals take the from_chars fast path.
double parse_double(std::string_view text);

/// Parses a decimal integer; throws pim::Error (bad_input) on trailing
/// junk or a value outside the range of long.
long parse_long(std::string_view text);

/// printf-style formatting into std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Formats `value` with `digits` significant digits, trimming zeros: the
/// bytes of printf("%.*g", digits, value), written by std::to_chars.
std::string format_sig(double value, int digits);

/// Appends format_sig(value, digits) to `out` without a temporary string.
void append_sig(std::string& out, double value, int digits);

/// Most chars format_sig(value, digits) writes: a sign, max(digits, 6)
/// digits, a point, up to four leading zeros or a five-character exponent.
constexpr size_t max_sig_chars(int digits) {
  return static_cast<size_t>(digits > 6 ? digits : 6) + 8;
}

/// Writes format_sig(value, digits) at `first`, which must have room for
/// max_sig_chars(digits) chars; returns one past the last char written.
char* write_sig(char* first, double value, int digits);

}  // namespace pim
