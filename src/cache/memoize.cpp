#include "cache/memoize.hpp"

#include <algorithm>
#include <cstring>

namespace pim::cache {

void PayloadWriter::line(const char* name, std::string_view value) {
  out_.append(name).append(1, ' ').append(value).append(1, '\n');
}

void PayloadWriter::field(const char* name, double v) { line(name, format_sig(v, 17)); }

void PayloadWriter::field(const char* name, const std::vector<double>& v) {
  out_ += name;
  for (double d : v) out_.append(1, ' ').append(format_sig(d, 17));
  out_ += '\n';
}

std::string_view PayloadReader::values(const char* name) const {
  const size_t n = std::strlen(name);
  for (std::string_view rest = text_; !rest.empty();) {
    const std::string_view line = rest.substr(0, rest.find('\n'));
    rest.remove_prefix(std::min(rest.size(), line.size() + 1));
    if (line.substr(0, n) == name && (line.size() == n || line[n] == ' '))
      return line.substr(n);
  }
  throw Error(std::string("cache payload: missing field '") + name + "'",
              ErrorCode::io_parse);
}

void PayloadReader::field(const char* name, double& v) { v = parse_double(values(name)); }

void PayloadReader::field(const char* name, std::vector<double>& v) {
  v.clear();
  for (std::string_view rest = values(name); !rest.empty();) {
    rest.remove_prefix(1);  // the space before each value
    const std::string_view token = rest.substr(0, rest.find(' '));
    v.push_back(parse_double(token));
    rest.remove_prefix(token.size());
  }
}

}  // namespace pim::cache
