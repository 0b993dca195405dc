#include "host_speed.hpp"

#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>

#include "stats.hpp"

namespace e2e {
namespace {

constexpr int kN = 32;  ///< dense system size
constexpr int kSolves = 48;
constexpr int kTranscendental = 12000;
constexpr int kTableBits = 15;  ///< 32 Ki entries x 8 bytes = 256 KiB
constexpr int kLookups = 120000;
constexpr int kStrings = 2000;
constexpr int kNumbersPerString = 40;

volatile double g_sink = 0.0;

double eliminate(double shift) {
  std::array<double, kN * kN> a;
  std::array<double, kN> b;
  for (int i = 0; i < kN; ++i) {
    for (int j = 0; j < kN; ++j) a[i * kN + j] = 1.0 / (1.0 + i + j + shift);
    a[i * kN + i] += kN;
    b[i] = 1.0 + 0.5 * i;
  }
  for (int k = 0; k < kN; ++k)
    for (int i = k + 1; i < kN; ++i) {
      const double f = a[i * kN + k] / a[k * kN + k];
      for (int j = k; j < kN; ++j) a[i * kN + j] -= f * a[k * kN + j];
      b[i] -= f * b[k];
    }
  double x = 0.0;
  for (int i = kN - 1; i >= 0; --i) x = (b[i] - x * a[i * kN + kN - 1]) / a[i * kN + i];
  return x;
}

uint64_t mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double floating_point_loop() {
  double acc = 0.0;
  for (int s = 0; s < kSolves; ++s) acc += eliminate(0.01 * s);
  for (int i = 1; i <= kTranscendental; ++i) acc += std::exp(-1e-4 * i) * std::log1p(1e-3 * i);
  static const std::array<uint64_t, size_t{1} << kTableBits> table = [] {
    std::array<uint64_t, size_t{1} << kTableBits> t{};
    for (size_t i = 0; i < t.size(); ++i) t[i] = mix(i);
    return t;
  }();
  uint64_t h = 0;
  for (int i = 0; i < kLookups; ++i) h = mix(h ^ table[(h + i) & (table.size() - 1)]);
  return acc + static_cast<double>(h >> 40);
}

double allocation_loop() {
  size_t total = 0;
  for (int k = 0; k < kStrings; ++k) {
    std::string text;
    for (int j = 0; j < kNumbersPerString; ++j) text += std::to_string(j * k) + ",";
    std::map<std::string, int> keys;
    keys[text.substr(0, 20)] = k;
    total += text.size() + keys.size();
  }
  return static_cast<double>(total);
}

double file_system_loop(const std::filesystem::path& scratch) {
  const std::filesystem::path dir = scratch / "d" / "e";
  std::filesystem::create_directories(dir);
  std::ofstream(dir / "f") << "reference";
  return static_cast<double>(std::filesystem::remove_all(scratch / "d"));
}

}  // namespace

double reference_ms(Work work) {
  switch (work) {
    case Work::kFloatingPoint:
      return 2.2;
    case Work::kAllocation:
      return 2.0;
    case Work::kFileSystem:
      return 0.25;
  }
  return 1.0;
}

HostSpeed::HostSpeed(Work work, int loops, Reading reading, std::filesystem::path scratch)
    : work_(work), loops_(loops), reading_(reading), scratch_(std::move(scratch)) {
  loop();  // first touch of the tables, outside any reading
}

void HostSpeed::loop() {
  switch (work_) {
    case Work::kFloatingPoint:
      g_sink = g_sink + floating_point_loop();
      break;
    case Work::kAllocation:
      g_sink = g_sink + allocation_loop();
      break;
    case Work::kFileSystem:
      g_sink = g_sink + file_system_loop(scratch_);
      break;
  }
}

double HostSpeed::read() {
  std::vector<double> loop_ms;
  double total = 0.0;
  for (int i = 0; i < loops_; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    loop();
    loop_ms.push_back(
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count());
    total += loop_ms.back();
  }
  const double ms = reading_ == Reading::kMean ? total / loops_ : median(loop_ms);
  readings_.push_back(ms);
  return ms;
}

double HostSpeed::factor() {
  const double before = readings_.empty() ? read() : readings_.back();
  const double after = read();
  return reference_ms(work_) / (0.5 * (before + after));
}

double HostSpeed::speed() const {
  return readings_.empty() ? 0.0 : reference_ms(work_) / median(readings_);
}

}  // namespace e2e
