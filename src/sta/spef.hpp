// SPEF-lite parasitic export: writes the victim net of an implemented
// buffered line in an IEEE-1481-flavored Standard Parasitic Exchange
// Format — the artifact a place-and-route extraction flow would hand to a
// sign-off timer (the paper's flow reads "the parasitics output from SOC
// Encounter in SPEF" into PrimeTime SI).
//
// One *D_NET per inter-repeater wire segment of the victim, with
// distributed *RES sections, grounded *CAP entries, and coupling *CAP
// entries to the neighboring aggressor nets.
#pragma once

#include <string>

#include "models/link.hpp"
#include "tech/technology.hpp"

namespace pim {

/// SPEF serialization controls.
struct SpefOptions {
  int sections_per_segment = 6;  ///< distributed RC sections per wire segment
  std::string design_name = "pim_link";
};

/// Writes the victim-net parasitics of the line (context, design) in
/// SPEF-lite. Totals per segment match the LinkGeometry extraction
/// exactly.
std::string write_spef(const Technology& tech, const LinkContext& context,
                       const LinkDesign& design, const SpefOptions& options = {});

}  // namespace pim
