#include "spice/deck.hpp"

#include <map>
#include <sstream>
#include <string>
#include <tuple>

#include "util/strings.hpp"

namespace pim {
namespace {

// Model-card key for deduplication.
struct ModelKey {
  MosType type;
  MosfetParams p;

  bool operator<(const ModelKey& o) const {
    auto tie = [](const ModelKey& k) {
      return std::tuple(k.type == MosType::Nmos ? 0 : 1, k.p.vth, k.p.k_sat, k.p.alpha,
                        k.p.k_vdsat, k.p.lambda, k.p.n_sub, k.p.c_gate, k.p.c_drain);
    };
    return tie(*this) < tie(o);
  }
};

std::string fmt(double v) { return format_sig(v, 17); }

}  // namespace

std::string write_deck(const Circuit& circuit) {
  std::ostringstream os;
  os << "* pim spice deck\n";

  // Model cards, deduplicated across devices.
  std::map<ModelKey, std::string> models;
  for (const Mosfet& m : circuit.mosfets()) {
    const ModelKey key{m.type, m.params};
    if (models.count(key)) continue;
    const std::string name = "m" + std::to_string(models.size());
    models.emplace(key, name);
  }
  for (const auto& [key, name] : models) {
    os << ".model " << name << " alpha_power type="
       << (key.type == MosType::Nmos ? "nmos" : "pmos") << " vth=" << fmt(key.p.vth)
       << " k_sat=" << fmt(key.p.k_sat) << " alpha=" << fmt(key.p.alpha)
       << " k_vdsat=" << fmt(key.p.k_vdsat) << " lambda=" << fmt(key.p.lambda)
       << " n_sub=" << fmt(key.p.n_sub) << " c_gate=" << fmt(key.p.c_gate)
       << " c_drain=" << fmt(key.p.c_drain) << "\n";
  }

  auto node = [&](NodeId n) { return circuit.node_name(n); };

  int counter = 0;
  for (const VoltageSource& v : circuit.vsources()) {
    os << 'V' << ++counter << ' ' << node(v.node) << " 0 ";
    const auto& times = v.wave.times();
    const auto& values = v.wave.values();
    if (times.size() == 1) {
      os << "DC " << fmt(values[0]);
    } else {
      os << "PWL(";
      for (size_t i = 0; i < times.size(); ++i) {
        if (i) os << ' ';
        os << fmt(times[i]) << ' ' << fmt(values[i]);
      }
      os << ')';
    }
    os << "\n";
  }
  counter = 0;
  for (const Resistor& r : circuit.resistors())
    os << 'R' << ++counter << ' ' << node(r.a) << ' ' << node(r.b) << ' '
       << fmt(1.0 / r.conductance) << "\n";
  counter = 0;
  for (const Capacitor& c : circuit.capacitors())
    os << 'C' << ++counter << ' ' << node(c.a) << ' ' << node(c.b) << ' ' << fmt(c.farads)
       << "\n";
  counter = 0;
  for (const Mosfet& m : circuit.mosfets())
    os << 'M' << ++counter << ' ' << node(m.drain) << ' ' << node(m.gate) << ' '
       << node(m.source) << ' ' << models.at({m.type, m.params}) << " w=" << fmt(m.width)
       << "\n";

  os << ".end\n";
  return os.str();
}

}  // namespace pim
