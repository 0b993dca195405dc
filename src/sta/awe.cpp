#include "sta/awe.hpp"

#include <cmath>

#include "util/error.hpp"

namespace pim {

RcTree::RcTree(double root_cap) {
  require(root_cap >= 0.0, "RcTree: negative capacitance");
  parent_.push_back(-1);
  res_.push_back(0.0);
  cap_.push_back(root_cap);
}

int RcTree::add_node(int parent, double resistance, double capacitance) {
  require(parent >= 0 && parent < node_count(), "RcTree::add_node: bad parent");
  require(resistance > 0.0, "RcTree::add_node: resistance must be positive");
  require(capacitance >= 0.0, "RcTree::add_node: negative capacitance");
  parent_.push_back(parent);
  res_.push_back(resistance);
  cap_.push_back(capacitance);
  return node_count() - 1;
}

RcTree::Moments RcTree::moments(int node, double root_resistance) const {
  require(node >= 0 && node < node_count(), "RcTree::moments: bad node");
  require(root_resistance >= 0.0, "RcTree::moments: negative resistance");
  const size_t n = parent_.size();

  // Downstream capacitance per node (indices are topological: parents
  // precede children).
  std::vector<double> c_down(cap_);
  for (size_t i = n; i-- > 1;) c_down[static_cast<size_t>(parent_[i])] += c_down[i];

  // First moment: resistance-weighted downstream capacitance along the
  // path, plus the driver term.
  std::vector<double> m1(n);
  m1[0] = root_resistance * c_down[0];
  for (size_t i = 1; i < n; ++i)
    m1[i] = m1[static_cast<size_t>(parent_[i])] + res_[i] * c_down[i];

  // Downstream sum of C_k * m1_k.
  std::vector<double> s_down(n);
  for (size_t i = 0; i < n; ++i) s_down[i] = cap_[i] * m1[i];
  for (size_t i = n; i-- > 1;) s_down[static_cast<size_t>(parent_[i])] += s_down[i];

  // Second moment along the path.
  std::vector<double> m2(n);
  m2[0] = root_resistance * s_down[0];
  for (size_t i = 1; i < n; ++i)
    m2[i] = m2[static_cast<size_t>(parent_[i])] + res_[i] * s_down[i];

  return {m1[static_cast<size_t>(node)], m2[static_cast<size_t>(node)]};
}

double two_pole_delay(double m1, double m2, double threshold) {
  require(m1 > 0.0, "two_pole_delay: m1 must be positive");
  require(threshold > 0.0 && threshold < 1.0, "two_pole_delay: threshold in (0,1)");

  // Pade(0,2): H(s) = 1 / (1 + b1 s + b2 s^2) with b1 = m1,
  // b2 = m1^2 - m2.
  const double b1 = m1;
  const double b2 = m1 * m1 - m2;
  const double disc = b1 * b1 - 4.0 * b2;

  // Degenerate second moment: fall back to the dominant single pole.
  if (b2 <= 0.0 || disc < 0.0) return -m1 * std::log(1.0 - threshold);

  const double sq = std::sqrt(disc);
  const double p1 = (b1 - sq) / (2.0 * b2);  // slow (dominant) rate
  const double p2 = (b1 + sq) / (2.0 * b2);  // fast rate
  if (p1 <= 0.0) return -m1 * std::log(1.0 - threshold);

  auto v = [&](double t) {
    if (p2 - p1 < 1e-9 * p2) {
      // Nearly repeated pole: v = 1 - (1 + p t) e^{-p t}.
      const double p = 0.5 * (p1 + p2);
      return 1.0 - (1.0 + p * t) * std::exp(-p * t);
    }
    return 1.0 - (p2 * std::exp(-p1 * t) - p1 * std::exp(-p2 * t)) / (p2 - p1);
  };

  // Bracket and bisect the threshold crossing (v is monotone for RC).
  double lo = 0.0;
  double hi = 2.0 * m1;
  while (v(hi) < threshold) {
    hi *= 2.0;
    require(hi < 1e6 * m1, "two_pole_delay: response never reaches threshold");
  }
  for (int iter = 0; iter < 80; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (v(mid) < threshold) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

}  // namespace pim
