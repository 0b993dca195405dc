// Text serialization of fitted model coefficients (a Table I column).
// Lets tools characterize once and reload instantly — characterization
// runs thousands of transistor-level simulations, the coefficient file is
// a handful of numbers.
//
// Format: block text (docs/formats.md) at 17 significant digits: a
// `coefficients "90nm" {}` block with one sub-block per (kind, edge) fit.
#pragma once

#include <string>

#include "charlib/fit.hpp"

namespace pim {

std::string write_fit(const TechnologyFit& fit);
TechnologyFit parse_fit(const std::string& text);

void save_fit(const TechnologyFit& fit, const std::string& path);
TechnologyFit load_fit(const std::string& path);

}  // namespace pim
