// SoC communication specification: the input to NoC synthesis.
//
// A spec is a set of placed cores and point-to-point flows with bandwidth
// requirements, plus the bus data width — the same abstraction COSI-OCC
// consumes. Distances are Manhattan (on-chip routes are rectilinear).
#pragma once

#include <string>
#include <vector>

namespace pim {

/// One IP core with its floorplan position (center) and extent.
struct Core {
  std::string name;
  double x = 0.0;       ///< center [m]
  double y = 0.0;       ///< center [m]
  double width = 0.0;   ///< [m]
  double height = 0.0;  ///< [m]
};

/// One directed communication requirement.
struct Flow {
  int src = 0;             ///< core index
  int dst = 0;             ///< core index
  double bandwidth = 0.0;  ///< required throughput [bit/s]
};

/// The whole SoC communication problem.
struct SocSpec {
  std::string name;
  std::vector<Core> cores;
  std::vector<Flow> flows;
  int data_width = 128;    ///< link width [bits]
  double die_width = 0.0;  ///< [m]
  double die_height = 0.0; ///< [m]

  /// Throws pim::Error unless the spec is self-consistent (indices in
  /// range, positive bandwidths, cores inside the die, no self-flows).
  void validate() const;

  /// Sum of all flow bandwidths [bit/s].
  double total_bandwidth() const;
};

}  // namespace pim
