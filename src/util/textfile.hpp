// Whole-file text I/O behind every load_* / save_* pair. A missing or
// unwritable file is a runtime failure of the run, not an internal
// defect, so both throw pim::Error(io_parse), with the messages
// "<who>: cannot open '<path>'" and "<who>: write failed".
#pragma once

#include <string>

namespace pim {

/// The whole content of `path`.
std::string read_text_file(const std::string& path, const std::string& who);

/// Replaces the content of `path` with `text`.
void write_text_file(const std::string& path, const std::string& text,
                     const std::string& who);

}  // namespace pim
