// SPICE-deck text writer for pim netlists.
//
// A classic deck subset: comment lines (*), `.model` cards for the
// alpha-power MOSFET parameters, element cards (R/C/V/M), and `.end`.
// `pim export --deck` writes the golden sign-off netlist this way so it
// can be inspected, archived, or replayed in another simulator:
//
//   * pim spice deck
//   .model nm0 alpha_power type=nmos vth=0.3 k_sat=1050 ...
//   V1 vdd 0 DC 1
//   V2 in 0 PWL(0 0 2e-11 0 1.2e-10 1)
//   R1 in n3 250
//   C1 n3 0 2e-14
//   M1 out in 0 nm0 w=2.6e-06
//   .end
//
// Voltage sources are grounded (the only kind the engine supports); PWL
// breakpoints reproduce the waveform exactly, and values carry 17
// significant digits. pim itself reads no decks: the tests keep a reader
// for this subset as the round-trip oracle (tests/deck_parser.hpp).
#pragma once

#include <string>

#include "spice/circuit.hpp"

namespace pim {

/// Serializes the circuit as a SPICE-like deck.
std::string write_deck(const Circuit& circuit);

}  // namespace pim
