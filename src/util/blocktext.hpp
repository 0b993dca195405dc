// Block text — the one codec behind `.tech` files, `.pimfit` files and
// result-cache payloads; docs/formats.md ("Block text") has the grammar.
// Each struct spells its fields once, in a `template <typename B> void
// bind(B&, T&)` that both the Writer and the Reader drive, so the two
// directions cannot disagree on a name or an order. The reader is strict:
// every bound field is required unless bound with optional(), and each
// block rejects unknown and duplicate keys when it closes. Every reader
// error is io_parse and reads "<what>: line N: ...".
#pragma once

#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace pim::blocktext {

/// Written and read as a decimal integer.
template <typename T>
concept Integer = std::is_integral_v<T> || std::is_enum_v<T>;

class Writer {
 public:
  /// `digits`: significant digits of every double, fixed per format.
  explicit Writer(int digits) : digits_(digits) {}

  void field(std::string_view key, double v);
  template <Integer T>
  void field(std::string_view key, T v) {
    line(key, std::to_string(static_cast<long long>(v)));
  }
  void field(std::string_view key, const std::vector<double>& v);
  /// A field line whose values the caller formats: `fill(first)` writes
  /// at most `max_bytes` chars of values, each led by a space (values()),
  /// at `first` and returns one past the last. Formatting lands straight
  /// in the output, so a caller can format a long line in pieces.
  template <typename Fill>
  void formatted(std::string_view key, size_t max_bytes, Fill&& fill) {
    out_.append(2 * depth_, ' ').append(key);
    const size_t at = out_.size();
    out_.reserve(at + max_bytes + 1);
    out_.resize(at + max_bytes);
    out_.resize(static_cast<size_t>(fill(out_.data() + at) - out_.data()));
    out_ += '\n';
  }
  /// Writes " v" for each of [begin, end) at `first`; returns one past the
  /// last char. Needs at most value_bytes() chars per value.
  char* values(char* first, const double* begin, const double* end) const;
  size_t value_bytes() const;
  /// Always written; only the reader lets it be absent.
  void optional(std::string_view key, double v) { field(key, v); }
  /// `key {` (or `key "label" {`), v's fields one level deeper, `}`.
  template <typename T>
  void block(std::string_view key, const T& v, const std::string* label = nullptr) {
    open(key, label);
    bind(*this, const_cast<T&>(v));  // the writer only reads
    close();
  }
  /// `key {` around one block per item, keyed by its name; none if no items.
  template <typename T>
  void named_blocks(std::string_view key, const std::vector<T>& items) {
    if (items.empty()) return;
    open(key, nullptr);
    for (const T& item : items) block(item.name, item);
    close();
  }

  std::string finish() { return std::move(out_); }

 private:
  void line(std::string_view key, std::string_view value);
  void open(std::string_view key, const std::string* label);
  void close();

  std::string out_;
  int digits_;
  int depth_ = 0;
};

class Reader {
 public:
  /// Splits `text` into lines once; a value is parsed only when asked for.
  /// `what` names the format in errors; `text` must outlive the reader.
  Reader(std::string_view text, const char* what);

  void field(std::string_view key, double& v);
  template <Integer T>
  void field(std::string_view key, T& v) {
    v = static_cast<T>(integer(take(key, false)));
  }
  void field(std::string_view key, std::vector<double>& v);
  /// Like field(), but an absent key keeps `v`.
  void optional(std::string_view key, double& v) {
    if (find(key) != kNone) field(key, v);
  }
  /// Reads `key {` into v; given `label`, the block must be `key "label" {`.
  template <typename T>
  void block(std::string_view key, T& v, std::string* label = nullptr) {
    read(open(take(key, true), label), v);
  }
  /// Every block inside `key { }`, in file order, each named by its key;
  /// an absent `key` reads as no items.
  template <typename T>
  void named_blocks(std::string_view key, std::vector<T>& items) {
    items.clear();
    if (find(key) == kNone) return;
    const size_t outer = std::exchange(block_, list(key));
    for (size_t i = block_ + 1; i < entries_.size(); ++i) {
      if (entries_[i].parent != block_) continue;
      T& item = items.emplace_back();
      item.name = entries_[i].key;
      read(list_item(i), item);
    }
    finish();
    block_ = outer;
  }

  /// Rejects an unknown or duplicate key in the block being read (at the
  /// top level: anything the caller did not bind).
  void finish() const;

 private:
  static constexpr size_t kNone = static_cast<size_t>(-1);

  struct Entry {
    std::string_view key;
    std::string_view rest;  ///< a field's values, or a block's "label"
    int line = 0;
    size_t parent = kNone;  ///< the enclosing block's entry; kNone at depth 0
    bool block = false;
    bool used = false;
  };

  template <typename T>
  void read(size_t at, T& v) {
    const size_t outer = std::exchange(block_, at);
    bind(*this, v);
    finish();
    block_ = outer;
  }
  size_t find(std::string_view key) const;
  size_t take(std::string_view key, bool block);
  size_t open(size_t at, std::string* label) const;
  size_t list(std::string_view key);
  size_t list_item(size_t i);
  double number(size_t at, std::string_view token) const;
  long integer(size_t at) const;
  std::string kind(size_t i) const;  ///< "block 'key'" or "key 'key'"
  std::string where() const;         ///< " in block 'key'" below depth 0
  [[noreturn]] void fail(int line, const std::string& message) const;

  const char* what_;
  std::vector<Entry> entries_;
  size_t block_ = kNone;  ///< the block being read
  int last_line_ = 1;
};

}  // namespace pim::blocktext
