#include "util/csv.hpp"

#include <sstream>

#include "util/error.hpp"
#include "util/textfile.hpp"

namespace pim {
namespace {
bool needs_quoting(const std::string& cell) {
  return cell.find_first_of(",\"\n") != std::string::npos;
}

std::string quote(const std::string& cell) {
  if (!needs_quoting(cell)) return cell;
  std::string out = "\"";
  for (char ch : cell) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += '"';
  return out;
}

void emit(std::ostringstream& os, const std::vector<std::string>& row) {
  for (size_t c = 0; c < row.size(); ++c) {
    if (c) os << ',';
    os << quote(row[c]);
  }
  os << '\n';
}
}  // namespace

CsvWriter::CsvWriter(std::vector<std::string> header) : header_(std::move(header)) {
  require(!header_.empty(), "CsvWriter: header must not be empty");
}

void CsvWriter::add_row(const std::vector<std::string>& cells) {
  require(cells.size() == header_.size(), "CsvWriter: row arity does not match header");
  rows_.push_back(cells);
}

std::string CsvWriter::to_string() const {
  std::ostringstream os;
  emit(os, header_);
  for (const auto& row : rows_) emit(os, row);
  return os.str();
}

void CsvWriter::write_file(const std::string& path) const {
  write_text_file(path, to_string(), "CsvWriter");
}

}  // namespace pim
