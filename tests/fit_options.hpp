// Trimmed characterization / composition decks for the suites that
// calibrate a fit in their fixtures: small enough that the cold pass
// stays fast (benches use the full defaults). Every value feeds the fit's
// cache key, so editing one here re-keys those suites' fits.
#pragma once

#include "charlib/characterize.hpp"
#include "sta/composition.hpp"

namespace pim {

/// Drives 2/8/32 on the default slew and fanout axes, inverters and
/// buffers.
inline CharacterizationOptions trimmed_characterization() {
  CharacterizationOptions copt;
  copt.drives = {2, 8, 32};
  return copt;
}

/// trimmed_characterization() without the buffer cells.
inline CharacterizationOptions trimmed_inverter_characterization() {
  CharacterizationOptions copt = trimmed_characterization();
  copt.buffers = false;
  return copt;
}

/// Two drives, two segment lengths, two slews, chains of 1 and 3.
inline CompositionOptions trimmed_composition() {
  CompositionOptions comp;
  comp.drives = {8, 32};
  comp.segment_lengths = {0.5e-3, 1.5e-3};
  comp.input_slews = {50e-12, 300e-12};
  comp.chain_lengths = {1, 3};
  return comp;
}

}  // namespace pim
