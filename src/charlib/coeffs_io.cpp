#include "charlib/coeffs_io.hpp"

#include "util/blocktext.hpp"
#include "util/textfile.hpp"

namespace pim {

// Field bindings of the .pimfit block text (util/blocktext.hpp), in file
// order; the writer and the parser share them.

template <typename B>
void bind(B& b, RepeaterEdgeFit& f) {
  b.field("a0", f.a0);
  b.field("a1", f.a1);
  b.field("a2", f.a2);
  b.field("rho0", f.rho0);
  b.field("rho1", f.rho1);
  b.field("b0", f.b0);
  b.field("b1", f.b1);
  b.field("b2", f.b2);
  b.field("r2_intrinsic", f.r2_intrinsic);
  b.field("r2_drive_res", f.r2_drive_res);
}

// Everything but the node, which is the block label.
template <typename B>
void bind(B& b, TechnologyFit& fit) {
  b.field("vdd", fit.vdd);
  b.field("gamma", fit.gamma);
  b.field("leak_n0", fit.leakage.n0);
  b.field("leak_n1", fit.leakage.n1);
  b.field("leak_p0", fit.leakage.p0);
  b.field("leak_p1", fit.leakage.p1);
  b.field("area0", fit.area0);
  b.field("area1", fit.area1);
  b.field("kappa_c_coupled", fit.comp_coupled.kappa_c);
  b.field("kappa_c1_coupled", fit.comp_coupled.kappa_c1);
  b.field("kappa_w_coupled", fit.comp_coupled.kappa_w);
  b.field("worst_err_coupled", fit.comp_coupled.worst_rel_error);
  b.field("kappa_c_shielded", fit.comp_shielded.kappa_c);
  b.field("kappa_c1_shielded", fit.comp_shielded.kappa_c1);
  b.field("kappa_w_shielded", fit.comp_shielded.kappa_w);
  b.field("worst_err_shielded", fit.comp_shielded.worst_rel_error);
  b.block("inv_rise", fit.inv_rise);
  b.block("inv_fall", fit.inv_fall);
  b.block("buf_rise", fit.buf_rise);
  b.block("buf_fall", fit.buf_fall);
}

constexpr int kDigits = 17;

std::string write_fit(const TechnologyFit& fit) {
  blocktext::Writer w(kDigits);
  const std::string node = tech_node_name(fit.node);
  w.block("coefficients", fit, &node);
  return w.finish();
}

TechnologyFit parse_fit(const std::string& text) {
  blocktext::Reader r(text, "coefficients");
  TechnologyFit fit;
  std::string node;
  r.block("coefficients", fit, &node);
  r.finish();
  fit.node = tech_node_from_name(node);
  return fit;
}

void save_fit(const TechnologyFit& fit, const std::string& path) {
  write_text_file(path, write_fit(fit), "save_fit");
}

TechnologyFit load_fit(const std::string& path) {
  return parse_fit(read_text_file(path, "load_fit"));
}

}  // namespace pim
