// Technology descriptors for the six nodes the paper covers
// (90/65/45/32/22/16 nm).
//
// The built-in parameter values are synthesized from published ITRS/PTM-era
// trends (see DESIGN.md, substitutions): absolute numbers are plausible for
// each node, and — more importantly for reproducing the paper's tables —
// the *trends* are faithful: effective wire resistivity blows up at small
// widths (scattering + barrier), coupling dominates ground capacitance,
// leakage grows with scaling, and the supply steps 1.0 V -> 1.1 V between
// the 65 and 45 nm library files (the anomaly the paper calls out in its
// Table III discussion).
#pragma once

#include <string>
#include <vector>

#include "scenario/scenario.hpp"
#include "spice/circuit.hpp"
#include "spice/mosfet.hpp"

namespace pim {

enum class TechNode { N90, N65, N45, N32, N22, N16 };

/// All six nodes, largest feature first.
const std::vector<TechNode>& all_tech_nodes();

/// "90nm", "65nm", ...
std::string tech_node_name(TechNode node);

/// Parses "90nm" / "90" style names. An unknown name throws pim::Error
/// (io_parse): the library reads these names from files (.tech and
/// .pimfit labels, Liberty `technology`) and checks any other first.
TechNode tech_node_from_name(const std::string& name);

/// Wire geometry of one routing-layer class.
struct WireLayerGeometry {
  double width = 0.0;       ///< drawn wire width [m]
  double spacing = 0.0;     ///< minimum spacing to the neighbor [m]
  double thickness = 0.0;   ///< metal thickness [m]
  double ild_height = 0.0;  ///< dielectric height to the return plane [m]
  double k_dielectric = 0.0;///< relative permittivity of the surrounding ILD
};

/// Copper/barrier parameters driving the resistivity model.
struct InterconnectTech {
  WireLayerGeometry global;        ///< top-level global routing layer
  WireLayerGeometry intermediate;  ///< intermediate routing layer
  double barrier_thickness = 0.0;  ///< liner thickness eating the cross-section [m]
  double rho_bulk = 0.0;           ///< bulk resistivity [ohm*m]
  double scattering_coeff = 0.0;   ///< prefactor of the mean-free-path term
};

/// Layout quantities feeding the predictive area model (paper §III-C).
struct AreaTech {
  double feature_size = 0.0;   ///< [m]
  double contact_pitch = 0.0;  ///< [m]
  double row_height = 0.0;     ///< standard-cell row height [m]
};

/// One technology node: devices, interconnect, layout, and defaults.
struct Technology {
  TechNode node = TechNode::N90;
  std::string name;
  double vdd = 0.0;                ///< nominal supply [V]
  MosfetParams nmos;
  MosfetParams pmos;
  InterconnectTech interconnect;
  AreaTech area;
  double pn_ratio = 2.0;           ///< repeater wp / wn sizing ratio
  double unit_nmos_width = 0.0;    ///< NMOS width of a 1x (D1) repeater [m]
  double clock_frequency = 0.0;    ///< NoC synthesis default clock [Hz]
  ScenarioSet corners;             ///< techfile-defined corners (empty = builtin)

  /// Device pair in the form the netlist builders take.
  InverterDevices devices() const { return {nmos, pmos}; }

  /// PMOS width of a repeater whose NMOS width is wn.
  double pmos_width(double wn) const { return pn_ratio * wn; }

  /// NMOS width of a repeater of integer drive strength `drive` (Dk).
  double drive_nmos_width(int drive) const {
    return unit_nmos_width * static_cast<double>(drive);
  }

  /// The corner set this technology is signed off against: the techfile
  /// `corners { ... }` block when present, ScenarioSet::builtin() otherwise.
  const ScenarioSet& scenario_set() const {
    return corners.empty() ? ScenarioSet::builtin() : corners;
  }

  /// Copy of this descriptor derated to `corner`: device strength scales
  /// saturation current per polarity, device_cap scales gate/junction
  /// capacitance, wire_res the bulk resistivity, wire_cap the ILD
  /// permittivity, vdd_scale the supply. Every factor is applied as a
  /// plain multiplication, so the nominal corner (all 1.0) reproduces
  /// this descriptor bit-for-bit.
  Technology derated(const Corner& corner) const;
};

/// The built-in calibrated descriptor for `node`.
const Technology& technology(TechNode node);

/// Stable-reference registry of derated descriptors: `base.derated(corner)`,
/// keyed by the base's content hash plus the corner id, so the same
/// (content, corner) pair always returns the same Technology object —
/// model layers that hold `const Technology*` may point at it safely, and
/// equal-content bases (a built-in node, or the same tech file parsed
/// twice) share entries regardless of where they came from.
const Technology& corner_technology(const Technology& base, const Corner& corner);

}  // namespace pim
