#include "cosi/specfile.hpp"

#include <map>
#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/textfile.hpp"

namespace pim {

std::string write_soc_spec(const SocSpec& spec) {
  spec.validate();
  std::ostringstream os;
  os << "soc \"" << spec.name << "\" {\n";
  os << "  die " << format_sig(spec.die_width, 17) << ' ' << format_sig(spec.die_height, 17)
     << "\n";
  os << "  data_width " << spec.data_width << "\n";
  for (const Core& c : spec.cores) {
    os << "  core " << c.name << ' ' << format_sig(c.x, 17) << ' ' << format_sig(c.y, 17)
       << ' ' << format_sig(c.width, 17) << ' ' << format_sig(c.height, 17) << "\n";
  }
  for (const Flow& f : spec.flows) {
    os << "  flow " << spec.cores[static_cast<size_t>(f.src)].name << ' '
       << spec.cores[static_cast<size_t>(f.dst)].name << ' '
       << format_sig(f.bandwidth, 17) << "\n";
  }
  os << "}\n";
  return os.str();
}

SocSpec parse_soc_spec(const std::string& text) {
  SocSpec spec;
  std::map<std::string, int> core_index;
  std::istringstream is(text);
  std::string line;
  int lineno = 0;
  bool in_block = false;
  bool closed = false;

  auto syntax = [&](const std::string& msg) {
    fail("soc spec: line " + std::to_string(lineno) + ": " + msg, ErrorCode::io_parse);
  };

  while (std::getline(is, line)) {
    ++lineno;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const auto tokens = split_whitespace(line);
    if (tokens.empty()) continue;
    require(!closed, "soc spec: content after closing brace", ErrorCode::io_parse);

    if (!in_block) {
      if (tokens[0] != "soc" || tokens.size() != 3 || tokens.back() != "{")
        syntax("expected 'soc \"name\" {'");
      std::string name = tokens[1];
      if (name.size() >= 2 && name.front() == '"' && name.back() == '"')
        name = name.substr(1, name.size() - 2);
      spec.name = name;
      in_block = true;
      continue;
    }

    if (tokens[0] == "}") {
      if (tokens.size() != 1) syntax("unexpected tokens after '}'");
      closed = true;
    } else if (tokens[0] == "die") {
      if (tokens.size() != 3) syntax("die takes width and height");
      spec.die_width = parse_double(tokens[1]);
      spec.die_height = parse_double(tokens[2]);
    } else if (tokens[0] == "data_width") {
      if (tokens.size() != 2) syntax("data_width takes one value");
      spec.data_width = static_cast<int>(parse_long(tokens[1]));
    } else if (tokens[0] == "core") {
      if (tokens.size() != 6) syntax("core takes name x y width height");
      Core c;
      c.name = tokens[1];
      c.x = parse_double(tokens[2]);
      c.y = parse_double(tokens[3]);
      c.width = parse_double(tokens[4]);
      c.height = parse_double(tokens[5]);
      require(core_index.emplace(c.name, static_cast<int>(spec.cores.size())).second,
              "soc spec: duplicate core '" + c.name + "'", ErrorCode::io_parse);
      spec.cores.push_back(c);
    } else if (tokens[0] == "flow") {
      if (tokens.size() != 4) syntax("flow takes src dst bandwidth");
      const auto src = core_index.find(tokens[1]);
      const auto dst = core_index.find(tokens[2]);
      if (src == core_index.end()) syntax("unknown core '" + tokens[1] + "'");
      if (dst == core_index.end()) syntax("unknown core '" + tokens[2] + "'");
      spec.flows.push_back({src->second, dst->second, parse_double(tokens[3])});
    } else {
      syntax("unknown statement '" + tokens[0] + "'");
    }
  }
  require(closed, "soc spec: missing closing brace", ErrorCode::io_parse);
  spec.validate();
  return spec;
}

void save_soc_spec(const SocSpec& spec, const std::string& path) {
  write_text_file(path, write_soc_spec(spec), "save_soc_spec");
}

SocSpec load_soc_spec(const std::string& path) {
  return parse_soc_spec(read_text_file(path, "load_soc_spec"));
}

}  // namespace pim
