// Multi-corner calibration and signoff — the scenario layer's face inside
// pim::sta.
//
// corner_models() takes each corner's resident model (resident_model,
// fanned out over pim::exec; each corner's own deck sweeps then run
// inline on that worker); `CornerModelSet(corner_models(base, corners))`
// packages the results, and signoff_corners() answers the signoff
// question: per-corner delay/slack/noise for one link, plus which corner
// dominates.
#pragma once

#include <string>
#include <vector>

#include "models/corners.hpp"
#include "sta/calibrated.hpp"

namespace pim {

/// Calibrated model of `base` per corner, in `corners` order: each
/// corner's resident_model, shared with the resident tier, so a warm
/// call decodes nothing and returns the instances an earlier call did.
/// Corners are fanned out over pim::exec (deterministic ordered results
/// at any --threads); each corner caches independently. `cache_path`
/// follows the calibrated_fit contract (nominal corner only).
std::vector<CornerModel> corner_models(
    const Technology& base, const std::vector<Corner>& corners,
    const std::string& cache_path = "",
    const CharacterizationOptions& characterization = {},
    const CompositionOptions& composition = {});

/// Knobs for signoff_corners.
struct CornerSignoffOptions {
  /// Timing target the slack is measured against [s]; 0 uses one clock
  /// period at the link context's frequency.
  double target_period = 0.0;
  /// Noise-model calibration scalar (see calibrate_noise); 1 = raw
  /// charge-divider model.
  double kappa_n = 1.0;
};

/// One corner's row in a multi-corner signoff report.
struct CornerTiming {
  Corner corner;
  double delay = 0.0;       ///< model delay at this corner [s]
  double output_slew = 0.0; ///< far-end slew [s]
  double slack = 0.0;       ///< target_period - delay [s]
  double noise_peak = 0.0;  ///< modeled glitch peak [V]
};

/// The multi-corner verdict: every corner's timing plus the dominating
/// (minimum-slack) one.
struct CornerSignoffResult {
  std::vector<CornerTiming> corners;  ///< in model-set order
  size_t worst_index = 0;
  double target_period = 0.0;

  const CornerTiming& worst() const { return corners[worst_index]; }
  double worst_slack() const { return worst().slack; }
};

/// Evaluates (context, design) at every corner of `set` and reports
/// per-corner slack/noise and the dominating corner. Counts
/// corner.<name>.signoff obs metrics per evaluated corner.
CornerSignoffResult signoff_corners(const CornerModelSet& set,
                                    const LinkContext& context,
                                    const LinkDesign& design,
                                    const CornerSignoffOptions& options = {});

}  // namespace pim
