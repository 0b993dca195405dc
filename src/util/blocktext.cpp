#include "util/blocktext.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace pim::blocktext {

void Writer::line(std::string_view key, std::string_view value) {
  out_.append(2 * depth_, ' ').append(key).append(1, ' ').append(value).append(1, '\n');
}

void Writer::field(std::string_view key, double v) { line(key, format_sig(v, digits_)); }

void Writer::field(std::string_view key, const std::vector<double>& v) {
  formatted(key, v.size() * value_bytes(),
            [&](char* first) { return values(first, v.data(), v.data() + v.size()); });
}

char* Writer::values(char* first, const double* begin, const double* end) const {
  for (const double* d = begin; d != end; ++d) {
    *first++ = ' ';
    first = write_sig(first, *d, digits_);
  }
  return first;
}

size_t Writer::value_bytes() const { return 1 + max_sig_chars(digits_); }

void Writer::open(std::string_view key, const std::string* label) {
  out_.append(2 * depth_++, ' ').append(key);
  if (label != nullptr) out_.append(" \"").append(*label).append(1, '"');
  out_ += " {\n";
}

void Writer::close() { out_.append(2 * --depth_, ' ').append("}\n"); }

Reader::Reader(std::string_view text, const char* what) : what_(what) {
  std::vector<size_t> open;  // entries of the blocks not yet closed
  int line = 0;
  while (!text.empty()) {
    const size_t newline = std::min(text.find('\n'), text.size());
    std::string_view ln = text.substr(0, newline);
    text.remove_prefix(std::min(newline + 1, text.size()));
    ++line;
    ln = trim(ln.substr(0, ln.find('#')));
    if (ln.empty()) continue;
    if (ln == "}") {
      if (open.empty()) fail(line, "'}' closes no block");
      open.pop_back();
      continue;
    }
    Entry& e = entries_.emplace_back();
    e.line = line;
    e.parent = open.empty() ? kNone : open.back();
    const size_t cut = std::min(ln.find_first_of(" \t"), ln.size());
    e.key = ln.substr(0, cut);
    e.rest = trim(ln.substr(cut));
    if (e.rest != "{" && !e.rest.ends_with(" {") && !e.rest.ends_with("\t{")) continue;
    // A block: `key {` or `key "label" {`.
    const std::string_view label = trim(e.rest.substr(0, e.rest.size() - 1));
    const bool quoted = label.size() >= 2 && label.front() == '"' && label.back() == '"';
    if (!label.empty() && !quoted)
      fail(line, "expected 'key value...', 'key [\"label\"] {' or '}'");
    e.block = true;
    e.rest = label;  // with its quotes; open() strips them
    open.push_back(entries_.size() - 1);
  }
  if (!open.empty())
    fail(entries_[open.back()].line, kind(open.back()) + " is never closed");
  last_line_ = std::max(line, 1);
}

size_t Reader::find(std::string_view key) const {
  for (size_t i = 0; i < entries_.size(); ++i)
    if (entries_[i].parent == block_ && entries_[i].key == key) return i;
  return kNone;
}

size_t Reader::take(std::string_view key, bool block) {
  const size_t at = find(key);
  if (at == kNone)
    fail(block_ == kNone ? last_line_ : entries_[block_].line,
         (block ? "missing block '" : "missing field '") + std::string(key) + "'" +
             where());
  if (entries_[at].block != block)
    fail(entries_[at].line, kind(at) + (block ? " must open a block, on its own line"
                                              : " must be a field, not a block"));
  entries_[at].used = true;
  return at;
}

size_t Reader::open(size_t at, std::string* label) const {
  const Entry& e = entries_[at];
  if (e.rest.empty() != (label == nullptr))
    fail(e.line, kind(at) + (label ? " needs a \"label\"" : " takes no label"));
  if (label != nullptr) *label = e.rest.substr(1, e.rest.size() - 2);
  return at;
}

size_t Reader::list(std::string_view key) {
  const size_t at = open(take(key, true), nullptr);
  if (at + 1 == entries_.size() || entries_[at + 1].parent != at)
    fail(entries_[at].line, kind(at) + " is empty");
  return at;
}

size_t Reader::list_item(size_t i) {
  if (take(entries_[i].key, true) != i)
    fail(entries_[i].line, "duplicate " + kind(i) + where());
  return open(i, nullptr);
}

double Reader::number(size_t at, std::string_view token) const {
  try {
    return parse_double(token);
  } catch (const Error& e) {
    fail(entries_[at].line, kind(at) + ": " + e.message());
  }
}

long Reader::integer(size_t at) const {
  try {
    return parse_long(entries_[at].rest);
  } catch (const Error& e) {
    fail(entries_[at].line, kind(at) + ": " + e.message());
  }
}

void Reader::field(std::string_view key, double& v) {
  const size_t at = take(key, false);
  v = number(at, entries_[at].rest);
}

void Reader::field(std::string_view key, std::vector<double>& v) {
  const size_t at = take(key, false);
  const std::string_view values = entries_[at].rest;
  v.clear();
  for (size_t i = 0, end = 0; i < values.size(); i = end + 1) {
    end = std::min(values.find(' ', i), values.size());  // one space apart
    v.push_back(number(at, values.substr(i, end - i)));
  }
}

void Reader::finish() const {
  for (size_t i = 0; i < entries_.size(); ++i)
    if (entries_[i].parent == block_ && !entries_[i].used)
      fail(entries_[i].line,
           (find(entries_[i].key) != i ? "duplicate " : "unknown ") + kind(i) + where());
}

std::string Reader::kind(size_t i) const {
  return (entries_[i].block ? "block '" : "key '") + std::string(entries_[i].key) + "'";
}

std::string Reader::where() const {
  if (block_ == kNone) return "";
  return " in block '" + std::string(entries_[block_].key) + "'";
}

void Reader::fail(int line, const std::string& message) const {
  throw Error(std::string(what_) + ": line " + std::to_string(line) + ": " + message,
              ErrorCode::io_parse);
}

}  // namespace pim::blocktext
