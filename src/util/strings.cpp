#include "util/strings.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

#include "util/error.hpp"

namespace pim {

std::string_view trim(std::string_view text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) --end;
  return text.substr(begin, end - begin);
}

std::vector<std::string> split(std::string_view text, char separator) {
  std::vector<std::string> pieces;
  size_t start = 0;
  while (true) {
    const size_t pos = text.find(separator, start);
    if (pos == std::string_view::npos) {
      pieces.emplace_back(trim(text.substr(start)));
      break;
    }
    pieces.emplace_back(trim(text.substr(start, pos - start)));
    start = pos + 1;
  }
  return pieces;
}

std::vector<std::string> split_whitespace(std::string_view text) {
  std::vector<std::string> tokens;
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) ++i;
    size_t start = i;
    while (i < text.size() && !std::isspace(static_cast<unsigned char>(text[i]))) ++i;
    if (i > start) tokens.emplace_back(text.substr(start, i - start));
  }
  return tokens;
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

double parse_double(std::string_view text) {
  const std::string_view token = trim(text);
  require(!token.empty(), "parse_double: empty input", ErrorCode::bad_input);
  double value = 0.0;
  const char* last = token.data() + token.size();
  const auto [stop, ec] = std::from_chars(token.data(), last, value);
  if (ec == std::errc{} && stop == last && std::isfinite(value)) return value;
  // strtod also takes a leading '+', hex, out-of-range values and NaN
  // payloads; it decides every token from_chars does not take whole.
  const std::string buffer{token};
  char* end = nullptr;
  value = std::strtod(buffer.c_str(), &end);
  require(end == buffer.c_str() + buffer.size(),
          "parse_double: trailing characters in '" + buffer + "'",
          ErrorCode::bad_input);
  return value;
}

long parse_long(std::string_view text) {
  const std::string buffer{trim(text)};
  require(!buffer.empty(), "parse_long: empty input", ErrorCode::bad_input);
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(buffer.c_str(), &end, 10);
  require(end == buffer.c_str() + buffer.size(),
          "parse_long: trailing characters in '" + buffer + "'",
          ErrorCode::bad_input);
  require(errno != ERANGE, "parse_long: '" + buffer + "' is out of range",
          ErrorCode::bad_input);
  return value;
}

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out(static_cast<size_t>(needed), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  va_end(args);
  return out;
}

char* write_sig(char* first, double value, int digits) {
  return std::to_chars(first, first + max_sig_chars(digits), value,
                       std::chars_format::general, digits)
      .ptr;
}

void append_sig(std::string& out, double value, int digits) {
  const size_t at = out.size();
  out.resize(at + max_sig_chars(digits));
  out.resize(static_cast<size_t>(write_sig(out.data() + at, value, digits) - out.data()));
}

std::string format_sig(double value, int digits) {
  std::string out;
  append_sig(out, value, digits);
  return out;
}

}  // namespace pim
