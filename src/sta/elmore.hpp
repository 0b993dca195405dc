// Elmore (first-moment) delay estimate of a buffered link — a quick
// sanity bound on the golden simulator. An Elmore estimate upper-bounds
// the 50 % step delay of an RC tree, and the step response of a
// distributed line lands near 0.69x the lumped Elmore.
#pragma once

#include "models/link.hpp"
#include "tech/technology.hpp"

namespace pim {

/// Elmore-style delay of the buffered link: per stage, first-principles
/// drive resistance times total stage load plus the distributed wire
/// contribution. Crude by design — a bracketing estimate, not a model.
double elmore_buffered_line(const Technology& tech, const LinkContext& context,
                            const LinkDesign& design);

}  // namespace pim
