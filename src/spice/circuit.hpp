// Netlist container for the pim circuit simulator.
//
// Supported elements: resistors, capacitors, grounded ideal voltage
// sources (PWL waveforms), and alpha-power-law MOSFETs. This covers the
// paper's whole characterization and sign-off space: repeater chains,
// distributed RC wires, coupled aggressors, and ramp-driven inputs.
//
// Node 0 is ground. Nodes are created through add_node(); element
// endpoints must be valid node ids. A node may carry at most one voltage
// source.
#pragma once

#include <string>
#include <vector>

#include "spice/mosfet.hpp"
#include "spice/waveform.hpp"

namespace pim {

using NodeId = int;

/// Resistor between nodes a and b.
struct Resistor {
  NodeId a;
  NodeId b;
  double conductance;  // 1/ohms
};

/// Capacitor between nodes a and b.
struct Capacitor {
  NodeId a;
  NodeId b;
  double farads;
};

/// Ideal grounded voltage source fixing `node` to `wave`(t).
struct VoltageSource {
  NodeId node;
  Waveform wave;
};

/// MOSFET instance. For Nmos the source is conventionally the lower-rail
/// side; for Pmos the upper-rail side. Any node wiring is accepted.
struct Mosfet {
  MosType type;
  MosfetParams params;
  double width;  // meters of gate width
  NodeId gate;
  NodeId drain;
  NodeId source;
};

/// A CMOS inverter's device pair, used by netlist-building helpers.
struct InverterDevices {
  MosfetParams nmos;
  MosfetParams pmos;
};

/// The netlist. Plain data with validated mutation methods; the transient
/// engine consumes it read-only.
class Circuit {
 public:
  Circuit();

  NodeId ground() const { return 0; }

  /// Creates a node and returns its id. The optional name is kept for
  /// diagnostics only.
  NodeId add_node(std::string name = {});

  size_t node_count() const { return names_.size(); }
  const std::string& node_name(NodeId n) const;

  void add_resistor(NodeId a, NodeId b, double ohms);
  void add_capacitor(NodeId a, NodeId b, double farads);

  /// Fixes `node` to the waveform. A node can only be driven by one
  /// source, and the ground node cannot be driven.
  void add_vsource(NodeId node, Waveform wave);

  void add_mosfet(MosType type, const MosfetParams& params, double width,
                  NodeId gate, NodeId drain, NodeId source);

  /// Adds a static CMOS inverter: NMOS (width wn) to ground, PMOS (width
  /// wp) to `vdd_node`, plus the lumped gate capacitance at `in` and drain
  /// junction capacitance at `out` implied by the device parameters.
  void add_inverter(const InverterDevices& devices, double wn, double wp,
                    NodeId in, NodeId out, NodeId vdd_node);

  const std::vector<Resistor>& resistors() const { return resistors_; }
  const std::vector<Capacitor>& capacitors() const { return capacitors_; }
  const std::vector<VoltageSource>& vsources() const { return vsources_; }
  const std::vector<Mosfet>& mosfets() const { return mosfets_; }

 private:
  void check_node(NodeId n, const char* what) const;

  std::vector<std::string> names_;
  std::vector<Resistor> resistors_;
  std::vector<Capacitor> capacitors_;
  std::vector<VoltageSource> vsources_;
  std::vector<Mosfet> mosfets_;
  std::vector<char> has_source_;  // indexed by node id
};

}  // namespace pim
