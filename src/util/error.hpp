// Library-wide error type, error taxonomy, and contract-checking helpers.
//
// Every failure inside the pim library carries an ErrorCode so callers can
// distinguish recoverable solver conditions (singular matrix, Newton
// non-convergence) from caller mistakes (bad_input) and malformed files
// (io_parse) without string-matching messages. Errors also carry a context
// chain: each layer that re-throws can append a "while ..." note via
// with_context(), so a singular pivot deep inside a characterization sweep
// surfaces with the full story attached. See docs/robustness.md.
#pragma once

#include <concepts>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace pim {

/// Failure taxonomy. Keep this small: codes drive recovery policy and CLI
/// exit codes, not logging detail (that is what the message is for).
enum class ErrorCode {
  bad_input,        ///< caller violated a precondition / usage error
  singular_matrix,  ///< linear system is singular to working precision
  no_convergence,   ///< iterative solve exhausted its budget
  io_parse,         ///< file missing, unreadable, or malformed
  internal,         ///< invariant violation inside the library
  deadline_exceeded,///< wall-clock budget expired before the work finished
  cancelled,        ///< external cancellation (SIGINT/SIGTERM or API cancel)
  overloaded,       ///< admission control rejected the request (queue full);
                    ///< retryable by contract — the work was never started
};

/// Stable lowercase name of a code, e.g. "singular_matrix".
const char* error_code_name(ErrorCode code);

/// Exception thrown on any contract violation or unrecoverable failure
/// inside the pim library. what() renders the root message, the code name,
/// and the context chain (innermost first).
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& message, ErrorCode code = ErrorCode::internal);
  Error(const std::string& message, ErrorCode code, std::vector<std::string> context);

  ErrorCode code() const { return code_; }

  /// Root-cause message without code name or context chain.
  const std::string& message() const { return message_; }

  /// Context notes, innermost (closest to the failure) first.
  const std::vector<std::string>& context() const { return context_; }

  /// Copy of this error with one more context note appended.
  Error with_context(const std::string& note) const;

 private:
  static std::string render(const std::string& message, ErrorCode code,
                            const std::vector<std::string>& context);

  ErrorCode code_;
  std::string message_;
  std::vector<std::string> context_;
};

/// Unconditionally throws pim::Error; use for unreachable branches.
[[noreturn]] void fail(const std::string& message);
[[noreturn]] void fail(const std::string& message, ErrorCode code);
[[noreturn]] void fail(const char* message);
[[noreturn]] void fail(const char* message, ErrorCode code);

/// Throws pim::Error with `message` when `condition` is false.
/// Used to establish preconditions at public API boundaries.
void require(bool condition, const std::string& message);
void require(bool condition, const std::string& message, ErrorCode code);

/// require() for a literal message, the common case: the condition is
/// tested inline and the message becomes a std::string only on failure,
/// inside the out-of-line fail(). A passing check therefore never
/// allocates, which matters on per-sample paths such as the Monte-Carlo
/// loop. The thrown Error is the same as the std::string overload's.
inline void require(bool condition, const char* message) {
  if (!condition) [[unlikely]] fail(message);
}
inline void require(bool condition, const char* message, ErrorCode code) {
  if (!condition) [[unlikely]] fail(message, code);
}

/// One piece of an error message built only on failure: text, one
/// character or an integer. A piece refers to its argument without
/// copying it, so it lives only as long as the call it was made for.
class MessagePiece {
 public:
  MessagePiece(std::string_view text) : text_(text) {}
  MessagePiece(const std::string& text) : text_(text) {}
  MessagePiece(const char* text) : text_(text) {}
  MessagePiece(const char& c) : text_(&c, 1) {}
  template <std::integral T>
    requires(!std::same_as<T, char> && !std::same_as<T, bool>)
  MessagePiece(T value)
      : number_(static_cast<long long>(value)), unsigned_(std::unsigned_integral<T>),
        is_number_(true) {}

  /// Appends the piece; an integer as std::to_string renders it.
  void append_to(std::string& out) const;

 private:
  std::string_view text_;
  long long number_ = 0;
  bool unsigned_ = false;
  bool is_number_ = false;
};

/// Throws pim::Error with `code` and the concatenation of `pieces`.
[[noreturn]] void fail(ErrorCode code, std::initializer_list<MessagePiece> pieces);

/// require() whose message is the concatenation of `pieces` (strings,
/// characters, integers), e.g.
///   require(ok, ErrorCode::bad_input, who, ": field '", name, "' must be a string");
/// The pieces are only referenced until the check fails; the string is
/// built inside fail(), so a passing check never allocates. The thrown
/// Error carries the same text the eager `a + b + ...` form would.
template <typename... Pieces>
inline void require(bool condition, ErrorCode code, const Pieces&... pieces) {
  if (!condition) [[unlikely]] fail(code, {MessagePiece(pieces)...});
}

}  // namespace pim
