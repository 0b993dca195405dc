#include "util/textfile.hpp"

#include <fstream>
#include <sstream>

#include "util/error.hpp"

namespace pim {

std::string read_text_file(const std::string& path, const std::string& who) {
  std::ifstream in(path);
  require(in.good(), who + ": cannot open '" + path + "'", ErrorCode::io_parse);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_text_file(const std::string& path, const std::string& text,
                     const std::string& who) {
  std::ofstream out(path);
  require(out.good(), who + ": cannot open '" + path + "'", ErrorCode::io_parse);
  out << text;
  require(out.good(), who + ": write failed", ErrorCode::io_parse);
}

}  // namespace pim
