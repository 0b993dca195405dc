// EXTENSION bench: parametric timing yield of a whole synthesized NoC
// under die-to-die process variation. One variation corner is drawn per
// die and applied to EVERY link; the die passes when its worst link still
// meets the per-hop budget. Connects the variation extension to the NoC
// synthesis flow: how much budget slack must synthesis keep for a target
// network yield?
#include <algorithm>
#include <cstdio>
#include <vector>

#include "cosi/synthesis.hpp"
#include "cosi/testcases.hpp"
#include "models/proposed.hpp"
#include "util/csv.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/units.hpp"
#include "variation/variation.hpp"

#include "common.hpp"

using namespace pim;
using namespace pim::unit;

int main() {
  pim::bench::MetricsArtifact metrics("noc_yield");
  const TechNode node = TechNode::N45;
  const auto& [tech, fit, model] = pim::bench::cached_model(node);

  const SocSpec spec = vproc_spec();
  printf("NoC timing yield under die-to-die variation — %s at %s @ %.2f GHz\n\n",
         spec.name.c_str(), tech.name.c_str(), unit::to_GHz(tech.clock_frequency));

  const NocSynthesisResult r = synthesize_noc(spec, model);
  printf("synthesized: %d links, %d routers, nominal worst link %.0f ps "
         "(budget %.0f ps)\n\n",
         r.metrics.num_links, r.metrics.num_routers, r.metrics.worst_link_delay / ps,
         r.delay_budget / ps);

  // Collect the live links once, each as the frame its dies step.
  std::vector<LinkFrame> links;
  const NocArchitecture& arch = r.architecture;
  for (size_t i = 0; i < arch.edges().size(); ++i) {
    const NocEdge& e = arch.edges()[i];
    if (!e.alive || !e.impl.feasible) continue;
    LinkContext ctx = r.base_context;
    ctx.length = arch.edge_length(static_cast<int>(i));
    ctx.layer = e.impl.layer;
    links.emplace_back(model.tech(), ctx, e.impl.design);
  }

  // Monte Carlo over dies.
  const int dies = 1000;
  Rng rng(2026);
  std::vector<double> worst_delays;
  worst_delays.reserve(dies);
  for (int die = 0; die < dies; ++die) {
    const VariationSample sample = sample_variation(rng, {});
    double worst = 0.0;
    for (const LinkFrame& link : links)
      worst = std::max(worst, evaluate_with_variation(model, link, sample).delay);
    worst_delays.push_back(worst);
  }
  std::sort(worst_delays.begin(), worst_delays.end());

  Table table({"budget (x nominal)", "budget (ps)", "network yield %"});
  CsvWriter csv({"budget_ratio", "budget_ps", "yield_pct"});
  const double nominal = r.metrics.worst_link_delay;
  for (double ratio : {1.0, 1.05, 1.1, 1.15, 1.2, 1.3}) {
    const double budget = ratio * nominal;
    const auto it = std::upper_bound(worst_delays.begin(), worst_delays.end(), budget);
    const double yield = 100.0 * (it - worst_delays.begin()) / dies;
    table.add_row({format("%.2f", ratio), format("%.0f", budget / ps),
                   format("%.1f", yield)});
    csv.add_row({format("%.2f", ratio), format("%.1f", budget / ps),
                 format("%.2f", yield)});
  }
  printf("%s\n", table.to_string().c_str());
  printf("p99 die worst-link delay: %.0f ps (%.1f %% over nominal) — the guard\n"
         "band NoC synthesis must reserve for 99 %% parametric timing yield\n",
         worst_delays[static_cast<size_t>(0.99 * dies)] / ps,
         100.0 * (worst_delays[static_cast<size_t>(0.99 * dies)] / nominal - 1.0));

  pim::bench::export_csv(csv, "noc_yield.csv");
  return 0;
}
