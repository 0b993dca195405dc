// NoC synthesis walkthrough: synthesize an on-chip network for a SoC
// communication spec with the calibrated interconnect model, report the
// figures of merit, audit the links, and export the topology as Graphviz
// DOT plus the spec in the text format.
//
// Usage:   ./examples/noc_synthesis [dvopd|vproc|<spec-file>] [tech]
// e.g.     ./examples/noc_synthesis dvopd 45nm
#include <cstdio>
#include <fstream>
#include <string>

#include "cosi/specfile.hpp"
#include "cosi/synthesis.hpp"
#include "cosi/testcases.hpp"
#include "models/baseline.hpp"
#include "models/proposed.hpp"
#include "sta/calibrated.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

using namespace pim;
using namespace pim::unit;

int main(int argc, char** argv) {
  const std::string which = argc > 1 ? argv[1] : "dvopd";
  const TechNode node = argc > 2 ? tech_node_from_name(argv[2]) : TechNode::N45;

  SocSpec spec;
  if (which == "dvopd") {
    spec = dvopd_spec();
  } else if (which == "vproc") {
    spec = vproc_spec();
  } else {
    spec = load_soc_spec(which);
  }

  const Technology& tech = technology(node);
  printf("SoC '%s': %zu cores, %zu flows, %d-bit data, %.1f x %.1f mm die\n",
         spec.name.c_str(), spec.cores.size(), spec.flows.size(), spec.data_width,
         spec.die_width / mm, spec.die_height / mm);
  printf("technology %s @ %.2f GHz\n\n", tech.name.c_str(),
         unit::to_GHz(tech.clock_frequency));

  const TechnologyFit fit =
      calibrated_fit(tech, Corner{}, "pim_coeffs_" + tech.name + ".pimfit");
  const ProposedModel proposed(tech, fit);
  const BakogluModel original(tech);

  Table table({"model", "Pdyn (mW)", "Pleak (mW)", "worst delay (ps)", "area (mm2)",
               "hops avg/max", "routers", "links", "audit"});
  NocSynthesisResult keep{NocArchitecture(spec), {}, 0, 0, {}, 0};
  for (const InterconnectModel* model :
       {static_cast<const InterconnectModel*>(&original),
        static_cast<const InterconnectModel*>(&proposed)}) {
    NocSynthesisResult r = synthesize_noc(spec, *model);
    const AuditResult audit =
        audit_links(r.architecture, proposed, r.base_context, r.delay_budget);
    const NocMetrics& m = r.metrics;
    table.add_row({model->name(), format("%.2f", m.dynamic_power() / mW),
                   format("%.2f", m.leakage_power() / mW),
                   format("%.0f", m.worst_link_delay / ps),
                   format("%.3f", m.total_area() / mm2),
                   format("%.2f / %d", m.avg_hops, m.max_hops),
                   format("%d", m.num_routers), format("%d", m.num_links),
                   format("%d/%d viol", audit.violations, audit.links_checked)});
    if (model == static_cast<const InterconnectModel*>(&proposed)) keep = std::move(r);
  }
  printf("%s\n", table.to_string().c_str());
  printf("('audit' re-times every chosen link with the calibrated model against the\n"
         " %.0f ps per-hop budget — the original model's optimism shows up here)\n\n",
         0.5 / tech.clock_frequency / ps);

  // Export artifacts for the proposed-model architecture.
  const std::string dot_path = spec.name + "_noc.dot";
  std::ofstream dot(dot_path);
  dot << to_dot(keep.architecture);
  printf("wrote %s (render with: dot -Tpng %s -o noc.png)\n", dot_path.c_str(),
         dot_path.c_str());
  const std::string spec_path = spec.name + ".soc";
  save_soc_spec(spec, spec_path);
  printf("wrote %s (the spec in pim's text format)\n", spec_path.c_str());
  return 0;
}
