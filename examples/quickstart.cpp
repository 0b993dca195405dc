// Quickstart: the whole modeling flow on one global link.
//
//   1. Build the calibrated coefficient set for 65 nm (characterization
//      runs transistor-level simulations; the result is cached in
//      ./pim_coeffs_65nm.pimfit so the second run is instant).
//   2. Ask the proposed model about a 5 mm worst-case-coupled link.
//   3. Let the buffering optimizer pick repeaters under a delay budget.
//   4. Cross-check the model's prediction against golden sign-off.
//
// Build & run:   ./examples/quickstart
#include <cstdio>

#include "buffering/optimize.hpp"
#include "models/proposed.hpp"
#include "sta/calibrated.hpp"
#include "sta/signoff.hpp"
#include "util/log.hpp"
#include "util/units.hpp"

using namespace pim;
using namespace pim::unit;

int main() {
  set_log_level(LogLevel::Info);

  // 1. Calibrated coefficients (cached across runs).
  const Technology& tech = technology(TechNode::N65);
  const TechnologyFit fit = calibrated_fit(tech, Corner{}, "pim_coeffs_65nm.pimfit");
  printf("technology %s: vdd=%.2f V, clock=%.2f GHz\n", tech.name.c_str(), tech.vdd,
         unit::to_GHz(tech.clock_frequency));
  printf("composition calibration (coupled): kappa_c=%.3f kappa_c1=%.3f kappa_w=%.3f\n"
         "(worst training error %.1f %%)\n\n",
         fit.comp_coupled.kappa_c, fit.comp_coupled.kappa_c1, fit.comp_coupled.kappa_w,
         100 * fit.comp_coupled.worst_rel_error);

  // 2. A 5 mm global link, minimum pitch, worst-case neighbors.
  const ProposedModel model(tech, fit);
  LinkContext ctx;
  ctx.length = 5 * mm;
  ctx.input_slew = 100 * ps;
  ctx.frequency = tech.clock_frequency;
  ctx.activity = 0.15;

  // 3. Buffering under a half-cycle delay budget, balanced objective.
  BufferingOptions bopt;
  bopt.weight = 0.6;
  bopt.max_delay = 0.5 / tech.clock_frequency;
  const BufferingResult best = optimize_buffering(model, ctx, bopt);
  if (!best.feasible) {
    printf("no buffering meets the %.0f ps budget — wire must be split\n",
           unit::to_ps(bopt.max_delay));
    return 1;
  }
  printf("chosen buffering: %d x %sD%d, miller=%.2f (searched %ld candidates)\n",
         best.design.num_repeaters, cell_kind_name(best.design.kind).c_str(),
         best.design.drive, best.design.miller_factor, best.evaluations);
  printf("model estimate:  delay %.1f ps | slew %.1f ps | power %.3f mW/bit | area %.1f um2\n",
         unit::to_ps(best.estimate.delay), unit::to_ps(best.estimate.output_slew),
         unit::to_mW(best.estimate.total_power()),
         unit::to_um2(best.estimate.repeater_area));

  // 4. Golden cross-check: implement the line and simulate it.
  printf("\nrunning golden sign-off (distributed transistor-level line"
         " with opposing aggressors)...\n");
  const SignoffResult golden = signoff_link(tech, ctx, best.design);
  printf("golden:          delay %.1f ps | slew %.1f ps  (%zu circuit nodes)\n",
         unit::to_ps(golden.delay), unit::to_ps(golden.output_slew), golden.node_count);
  printf("model error:     %+.1f %% (paper Table II: within ~12 %%)\n",
         100.0 * (best.estimate.delay - golden.delay) / golden.delay);
  return 0;
}
