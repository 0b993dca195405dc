// Golden sign-off analysis of buffered interconnects — the library's
// stand-in for the paper's SOC Encounter + extraction + PrimeTime SI flow
// (paper §IV): the full line is *implemented* as a transistor-level
// netlist with distributed-pi wire segments and explicit neighbor wires,
// then simulated end-to-end.
//
// Victim and two aggressors run in parallel; each aggressor is an
// identically buffered line. Worst-case switching (Opposing) drives the
// aggressors with the opposite edge at the same instant — the condition
// the Miller factor 1.51 approximates. Shielded design styles have no
// aggressors (their coupling is grounded in extraction).
#pragma once

#include "models/link.hpp"
#include "tech/technology.hpp"

namespace pim {

/// Neighbor activity during the victim transition.
enum class AggressorMode {
  Opposing,      ///< both neighbors switch against the victim (worst case)
  SameDirection, ///< both neighbors switch with the victim (best case)
  Quiet,         ///< neighbors held at ground
  VictimQuiet,   ///< noise analysis: victim input held low (its wire sits
                 ///< high), all neighbors switch upward (their wires fall)
};

/// Controls for the golden analysis.
struct SignoffOptions {
  int pi_per_segment = 6;      ///< distributed-pi sections per wire segment
  AggressorMode aggressors = AggressorMode::Opposing;
  double dt = 0.5e-12;         ///< transient timestep [s]
  double window_margin = 1.0e-9;  ///< extra simulated time beyond the estimate [s]


  bool operator==(const SignoffOptions&) const = default;
};

/// What the golden analysis reports.
struct SignoffResult {
  double delay = 0.0;       ///< worst-case 50 % input-to-far-end delay [s]
  double output_slew = 0.0; ///< far-end slew on the worst polarity [s]
  size_t node_count = 0;    ///< circuit size, for reporting
};

/// Implements and simulates the buffered line described by
/// (context, design); returns the sign-off delay and far-end slew.
/// Both launch polarities are analyzed and the worst is returned.
SignoffResult signoff_link(const Technology& tech, const LinkContext& context,
                           const LinkDesign& design,
                           const SignoffOptions& options = {});

/// The implemented line's transistor-level netlist (what signoff_link
/// simulates), exposed for deck export and inspection.
struct LinkNetlist {
  Circuit circuit;
  NodeId victim_in = 0;
  NodeId victim_out = 0;
};

/// Builds (without simulating) the netlist of the implemented line for
/// the given launch polarity.
LinkNetlist build_link_netlist(const Technology& tech, const LinkContext& context,
                               const LinkDesign& design,
                               const SignoffOptions& options = {},
                               bool launch_rising = true);

}  // namespace pim
