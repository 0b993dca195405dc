#include "charlib/coeffs_io.hpp"

#include <map>
#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/textfile.hpp"

namespace pim {
namespace {

void emit_edge(std::ostringstream& os, const char* name, const RepeaterEdgeFit& f) {
  os << "  " << name << " {\n";
  os << "    a0 " << format_sig(f.a0, 17) << "\n";
  os << "    a1 " << format_sig(f.a1, 17) << "\n";
  os << "    a2 " << format_sig(f.a2, 17) << "\n";
  os << "    rho0 " << format_sig(f.rho0, 17) << "\n";
  os << "    rho1 " << format_sig(f.rho1, 17) << "\n";
  os << "    b0 " << format_sig(f.b0, 17) << "\n";
  os << "    b1 " << format_sig(f.b1, 17) << "\n";
  os << "    b2 " << format_sig(f.b2, 17) << "\n";
  os << "    r2_intrinsic " << format_sig(f.r2_intrinsic, 17) << "\n";
  os << "    r2_drive_res " << format_sig(f.r2_drive_res, 17) << "\n";
  os << "  }\n";
}

}  // namespace

std::string write_fit(const TechnologyFit& fit) {
  std::ostringstream os;
  os << "coefficients \"" << tech_node_name(fit.node) << "\" {\n";
  os << "  vdd " << format_sig(fit.vdd, 17) << "\n";
  os << "  gamma " << format_sig(fit.gamma, 17) << "\n";
  os << "  leak_n0 " << format_sig(fit.leakage.n0, 17) << "\n";
  os << "  leak_n1 " << format_sig(fit.leakage.n1, 17) << "\n";
  os << "  leak_p0 " << format_sig(fit.leakage.p0, 17) << "\n";
  os << "  leak_p1 " << format_sig(fit.leakage.p1, 17) << "\n";
  os << "  area0 " << format_sig(fit.area0, 17) << "\n";
  os << "  area1 " << format_sig(fit.area1, 17) << "\n";
  os << "  kappa_c_coupled " << format_sig(fit.comp_coupled.kappa_c, 17) << "\n";
  os << "  kappa_c1_coupled " << format_sig(fit.comp_coupled.kappa_c1, 17) << "\n";
  os << "  kappa_w_coupled " << format_sig(fit.comp_coupled.kappa_w, 17) << "\n";
  os << "  worst_err_coupled " << format_sig(fit.comp_coupled.worst_rel_error, 17) << "\n";
  os << "  kappa_c_shielded " << format_sig(fit.comp_shielded.kappa_c, 17) << "\n";
  os << "  kappa_c1_shielded " << format_sig(fit.comp_shielded.kappa_c1, 17) << "\n";
  os << "  kappa_w_shielded " << format_sig(fit.comp_shielded.kappa_w, 17) << "\n";
  os << "  worst_err_shielded " << format_sig(fit.comp_shielded.worst_rel_error, 17) << "\n";
  emit_edge(os, "inv_rise", fit.inv_rise);
  emit_edge(os, "inv_fall", fit.inv_fall);
  emit_edge(os, "buf_rise", fit.buf_rise);
  emit_edge(os, "buf_fall", fit.buf_fall);
  os << "}\n";
  return os.str();
}

namespace {

struct Cursor {
  std::vector<std::vector<std::string>> lines;
  size_t pos = 0;

  const std::vector<std::string>& next() {
    require(pos < lines.size(), "coefficients: unexpected end of input");
    return lines[pos++];
  }
};

RepeaterEdgeFit parse_edge(Cursor& cur) {
  std::map<std::string, double> values;
  while (true) {
    const auto& tokens = cur.next();
    if (tokens.size() == 1 && tokens[0] == "}") break;
    require(tokens.size() == 2, "coefficients: expected 'key value' in edge block");
    values[tokens[0]] = parse_double(tokens[1]);
  }
  auto need = [&](const char* key) {
    const auto it = values.find(key);
    require(it != values.end(), std::string("coefficients: missing edge field '") + key + "'");
    return it->second;
  };
  RepeaterEdgeFit f;
  f.a0 = need("a0");
  f.a1 = need("a1");
  f.a2 = need("a2");
  f.rho0 = need("rho0");
  f.rho1 = need("rho1");
  f.b0 = need("b0");
  f.b1 = need("b1");
  f.b2 = need("b2");
  f.r2_intrinsic = need("r2_intrinsic");
  f.r2_drive_res = need("r2_drive_res");
  return f;
}

}  // namespace

TechnologyFit parse_fit(const std::string& text) {
  Cursor cur;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const auto tokens = split_whitespace(line);
    if (!tokens.empty()) cur.lines.push_back(tokens);
  }

  const auto& head = cur.next();
  require(head.size() == 3 && head[0] == "coefficients" && head[2] == "{",
          "coefficients: expected 'coefficients \"node\" {'");
  std::string name = head[1];
  if (name.size() >= 2 && name.front() == '"' && name.back() == '"')
    name = name.substr(1, name.size() - 2);

  TechnologyFit fit;
  fit.node = tech_node_from_name(name);
  std::map<std::string, double> scalars;
  while (true) {
    const auto& tokens = cur.next();
    if (tokens.size() == 1 && tokens[0] == "}") break;
    if (tokens.size() == 2 && tokens[1] == "{") {
      const std::string& block = tokens[0];
      if (block == "inv_rise") {
        fit.inv_rise = parse_edge(cur);
      } else if (block == "inv_fall") {
        fit.inv_fall = parse_edge(cur);
      } else if (block == "buf_rise") {
        fit.buf_rise = parse_edge(cur);
      } else if (block == "buf_fall") {
        fit.buf_fall = parse_edge(cur);
      } else {
        fail("coefficients: unknown block '" + block + "'");
      }
    } else if (tokens.size() == 2) {
      scalars[tokens[0]] = parse_double(tokens[1]);
    } else {
      fail("coefficients: malformed line");
    }
  }
  auto need = [&](const char* key) {
    const auto it = scalars.find(key);
    require(it != scalars.end(), std::string("coefficients: missing field '") + key + "'");
    return it->second;
  };
  fit.vdd = need("vdd");
  fit.gamma = need("gamma");
  fit.leakage.n0 = need("leak_n0");
  fit.leakage.n1 = need("leak_n1");
  fit.leakage.p0 = need("leak_p0");
  fit.leakage.p1 = need("leak_p1");
  fit.area0 = need("area0");
  fit.area1 = need("area1");
  fit.comp_coupled.kappa_c = need("kappa_c_coupled");
  fit.comp_coupled.kappa_c1 = need("kappa_c1_coupled");
  fit.comp_coupled.kappa_w = need("kappa_w_coupled");
  fit.comp_coupled.worst_rel_error = need("worst_err_coupled");
  fit.comp_shielded.kappa_c = need("kappa_c_shielded");
  fit.comp_shielded.kappa_c1 = need("kappa_c1_shielded");
  fit.comp_shielded.kappa_w = need("kappa_w_shielded");
  fit.comp_shielded.worst_rel_error = need("worst_err_shielded");
  return fit;
}

void save_fit(const TechnologyFit& fit, const std::string& path) {
  write_text_file(path, write_fit(fit), "save_fit");
}

TechnologyFit load_fit(const std::string& path) {
  return parse_fit(read_text_file(path, "load_fit"));
}

}  // namespace pim
