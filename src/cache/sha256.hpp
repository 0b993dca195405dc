// Minimal SHA-256 (FIPS 180-4) for content-addressed cache keys and
// payload integrity checks. Self-contained — no external crypto
// dependency — and streaming, so large blobs (tech files, coefficient
// tables) hash without an extra copy.
//
// Every 64-byte block goes through one compression entry point. On
// x86-64 CPUs with the SHA extensions (chosen once, from CPUID) it runs
// the SHA-NI instructions; everywhere else it runs the portable loop,
// which also serves as the oracle in tests. Both give the same digest
// (docs/caching.md, "Digest path").
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace pim::cache {

/// Incremental SHA-256 hasher.
class Sha256 {
 public:
  Sha256() { reset(); }

  void reset();
  void update(const void* data, size_t len);
  void update(std::string_view text) { update(text.data(), text.size()); }

  /// Finalizes and returns the 64-character lowercase hex digest. The
  /// hasher must be reset() before further use.
  std::string hex_digest();

 private:
  uint32_t state_[8];
  uint64_t total_bytes_ = 0;
  uint8_t buffer_[64];
  size_t buffered_ = 0;
};

/// One-shot convenience: hex SHA-256 of `text`.
std::string sha256_hex(std::string_view text);

namespace detail {

/// Folds `blocks` consecutive 64-byte blocks at `data` into `state`:
/// SHA-NI when sha_extensions() holds, the portable loop otherwise.
void compress(uint32_t state[8], const uint8_t* data, size_t blocks);

/// The portable compression loop, whatever the CPU offers.
void compress_portable(uint32_t state[8], const uint8_t* data, size_t blocks);

/// sha256_hex(text) through compress_portable() alone, padded without
/// Sha256's buffering: the oracle for the dispatched path.
std::string sha256_hex_portable(std::string_view text);

/// True when compress() runs the SHA-NI body: an x86-64 build on a CPU
/// whose CPUID reports SHA, SSSE3 and SSE4.1.
bool sha_extensions();

}  // namespace detail

}  // namespace pim::cache
