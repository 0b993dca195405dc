#include "util/error.hpp"

namespace pim {

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::bad_input: return "bad_input";
    case ErrorCode::singular_matrix: return "singular_matrix";
    case ErrorCode::no_convergence: return "no_convergence";
    case ErrorCode::io_parse: return "io_parse";
    case ErrorCode::internal: return "internal";
    case ErrorCode::deadline_exceeded: return "deadline_exceeded";
    case ErrorCode::cancelled: return "cancelled";
    case ErrorCode::overloaded: return "overloaded";
  }
  return "internal";
}

std::string Error::render(const std::string& message, ErrorCode code,
                          const std::vector<std::string>& context) {
  std::string out = message;
  out += " [";
  out += error_code_name(code);
  out += "]";
  for (const std::string& note : context) {
    out += "\n  while ";
    out += note;
  }
  return out;
}

Error::Error(const std::string& message, ErrorCode code)
    : Error(message, code, {}) {}

Error::Error(const std::string& message, ErrorCode code, std::vector<std::string> context)
    : std::runtime_error(render(message, code, context)),
      code_(code),
      message_(message),
      context_(std::move(context)) {}

Error Error::with_context(const std::string& note) const {
  std::vector<std::string> chain = context_;
  chain.push_back(note);
  return Error(message_, code_, std::move(chain));
}

void require(bool condition, const std::string& message) {
  if (!condition) throw Error(message);
}

void require(bool condition, const std::string& message, ErrorCode code) {
  if (!condition) throw Error(message, code);
}

void fail(const std::string& message) { throw Error(message); }

void fail(const std::string& message, ErrorCode code) { throw Error(message, code); }

void fail(const char* message) { throw Error(message); }

void fail(const char* message, ErrorCode code) { throw Error(message, code); }

void fail_at(const char* file, int line, const std::string& message, ErrorCode code) {
  // Strip the directory: call sites only need the basename to be findable.
  const std::string path(file);
  const size_t slash = path.find_last_of('/');
  const std::string base = slash == std::string::npos ? path : path.substr(slash + 1);
  throw Error(message + " (" + base + ":" + std::to_string(line) + ")", code);
}

}  // namespace pim
