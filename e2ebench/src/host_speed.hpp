// Host-speed reference for timings made on a shared virtual machine.
//
// The virtual machines this benchmark runs on change speed by tens of
// percent from one minute to the next, and within seconds (other guests on
// the same physical cores, clock frequency, time the host steals), so a
// wall time measured at one moment does not compare with one measured at
// another. Every workload therefore times a fixed reference loop (code of
// this file only, nothing of pim) right before and right after the ops it
// gates on, and reports each op at the reference speed:
//
//   op wall time x reference_ms(work) / mean(reading before, reading after)
//
// On a quiet host the readings are close to reference_ms and the scaled
// time is the wall time; when the host runs the process at 70 % speed,
// both the op and the readings take ~1/0.7 as long and the scaled time
// stays put. Wall time stays the measure, so an op that gets faster by
// using more threads still shows it.
#pragma once

#include <filesystem>
#include <vector>

namespace e2e {

/// The kind of work a reference loop does. A slow host does not slow every
/// kind of work alike: on the machine the benchmark was tuned on, the
/// in-process serving requests (allocation and string heavy) slowed in
/// proportion to the allocation loop, and ~1.3x as much (in log terms) as
/// the floating-point loop. Each workload reads the kind closest to its
/// ops.
enum class Work {
  /// Elimination on a small dense system, exp/log calls and integer
  /// hashing over a table in L2: the simulator and Monte-Carlo ops.
  kFloatingPoint,
  /// Number formatting into short strings and std::map inserts: the
  /// request codec and the cache keys.
  kAllocation,
  /// Creating a directory, writing a small file and removing both:
  /// cold_calibrate's set-up, which empties and recreates the cache
  /// directory. (Its time moved with this loop, not with the
  /// floating-point loop.)
  kFileSystem,
};

/// How the loops of one reading make the reading.
enum class Reading {
  /// Mean loop time: a stretch of stolen or time-sliced time counts as
  /// much as it does for an op of many milliseconds.
  kMean,
  /// Median loop time: the speed while the process runs, which is what
  /// the median of sub-millisecond ops sees (a preemption hits few of
  /// them, and few loops).
  kMedian,
};

/// Wall time of one reference loop of `work` on a quiet host of the
/// machine type the benchmark was tuned on (4-core Xeon virtual machine)
/// [ms].
double reference_ms(Work work);

/// Probe readings of one run.
class HostSpeed {
 public:
  /// `loops` reference loops of `work` make one reading. The file-system
  /// loop works in `scratch`, which it creates and removes.
  HostSpeed(Work work, int loops, Reading reading, std::filesystem::path scratch = {});

  /// Takes a reading [ms per reference loop] and keeps it.
  double read();

  /// Takes a reading and returns the factor that scales a wall time
  /// measured since the previous reading to the reference speed:
  /// reference_ms / mean(previous reading, this one).
  double factor();

  /// reference_ms over the median reading: 1 on a quiet host, below 1
  /// when the host ran slower than the reference.
  double speed() const;

 private:
  /// Runs one reference loop.
  void loop();

  Work work_;
  int loops_;
  Reading reading_;
  std::filesystem::path scratch_;
  std::vector<double> readings_;
};

}  // namespace e2e
