#include "spice/circuit.hpp"

#include "util/error.hpp"

namespace pim {

Circuit::Circuit() {
  names_.push_back("0");  // ground
  has_source_.push_back(0);
}

NodeId Circuit::add_node(std::string name) {
  const NodeId id = static_cast<NodeId>(names_.size());
  if (name.empty()) name = "n" + std::to_string(id);
  names_.push_back(std::move(name));
  has_source_.push_back(0);
  return id;
}

const std::string& Circuit::node_name(NodeId n) const {
  check_node(n, "node_name");
  return names_[static_cast<size_t>(n)];
}

void Circuit::check_node(NodeId n, const char* what) const {
  require(n >= 0 && static_cast<size_t>(n) < names_.size(),
          std::string("Circuit::") + what + ": invalid node id");
}

void Circuit::add_resistor(NodeId a, NodeId b, double ohms) {
  check_node(a, "add_resistor");
  check_node(b, "add_resistor");
  require(a != b, "Circuit::add_resistor: endpoints must differ");
  require(ohms > 0.0, "Circuit::add_resistor: resistance must be positive");
  resistors_.push_back({a, b, 1.0 / ohms});
}

void Circuit::add_capacitor(NodeId a, NodeId b, double farads) {
  check_node(a, "add_capacitor");
  check_node(b, "add_capacitor");
  require(a != b, "Circuit::add_capacitor: endpoints must differ");
  require(farads >= 0.0, "Circuit::add_capacitor: capacitance must be non-negative");
  if (farads == 0.0) return;  // harmless no-op, keeps builders simple
  capacitors_.push_back({a, b, farads});
}

void Circuit::add_vsource(NodeId node, Waveform wave) {
  check_node(node, "add_vsource");
  require(node != ground(), "Circuit::add_vsource: cannot drive ground");
  require(!has_source_[static_cast<size_t>(node)],
          "Circuit::add_vsource: node already has a source");
  has_source_[static_cast<size_t>(node)] = 1;
  vsources_.push_back({node, std::move(wave)});
}

void Circuit::add_mosfet(MosType type, const MosfetParams& params, double width,
                         NodeId gate, NodeId drain, NodeId source) {
  check_node(gate, "add_mosfet");
  check_node(drain, "add_mosfet");
  check_node(source, "add_mosfet");
  require(width > 0.0, "Circuit::add_mosfet: width must be positive");
  mosfets_.push_back({type, params, width, gate, drain, source});
}

void Circuit::add_inverter(const InverterDevices& devices, double wn, double wp,
                           NodeId in, NodeId out, NodeId vdd_node) {
  add_mosfet(MosType::Nmos, devices.nmos, wn, in, out, ground());
  add_mosfet(MosType::Pmos, devices.pmos, wp, in, out, vdd_node);
  // Lumped device parasitics: total gate capacitance at the input, drain
  // junction capacitance at the output.
  add_capacitor(in, ground(), wn * devices.nmos.c_gate + wp * devices.pmos.c_gate);
  add_capacitor(out, ground(), wn * devices.nmos.c_drain + wp * devices.pmos.c_drain);
}

}  // namespace pim
