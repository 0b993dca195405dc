#include "liberty/libertyfile.hpp"
#include <algorithm>

#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/textfile.hpp"

namespace pim {
namespace {

void emit_axis(std::ostringstream& os, const char* key, const Vector& axis,
               const char* indent) {
  os << indent << key;
  for (double v : axis) os << ' ' << format_sig(v, 17);
  os << ";\n";
}

void emit_matrix(std::ostringstream& os, const char* key, const Matrix& m,
                 const char* indent) {
  os << indent << key << " {\n";
  for (size_t r = 0; r < m.rows(); ++r) {
    os << indent << "  row";
    for (size_t c = 0; c < m.cols(); ++c) os << ' ' << format_sig(m(r, c), 17);
    os << ";\n";
  }
  os << indent << "}\n";
}

void emit_timing(std::ostringstream& os, const char* edge, const TimingTable& t) {
  os << "      timing (" << edge << ") {\n";
  emit_axis(os, "index_1", t.slew_axis, "        ");
  emit_axis(os, "index_2", t.load_axis, "        ");
  emit_matrix(os, "delay", t.delay, "        ");
  emit_matrix(os, "out_slew", t.out_slew, "        ");
  os << "      }\n";
}

}  // namespace

std::string write_liberty(const CellLibrary& library) {
  std::ostringstream os;
  os << "library (" << library.name() << ") {\n";
  os << "  technology " << tech_node_name(library.node()) << ";\n";
  os << "  voltage " << format_sig(library.vdd(), 17) << ";\n";
  for (const auto& cell : library.cells()) {
    require(cell.rise.valid() && cell.fall.valid(),
            "write_liberty: cell '" + cell.name + "' has unpopulated timing tables");
    os << "  cell (" << cell.name << ") {\n";
    os << "      kind " << cell_kind_name(cell.kind) << ";\n";
    os << "      drive " << cell.drive << ";\n";
    os << "      wn " << format_sig(cell.wn, 17) << ";\n";
    os << "      wp " << format_sig(cell.wp, 17) << ";\n";
    os << "      input_cap " << format_sig(cell.input_cap, 17) << ";\n";
    os << "      area " << format_sig(cell.area, 17) << ";\n";
    os << "      leakage_nmos " << format_sig(cell.leakage_nmos, 17) << ";\n";
    os << "      leakage_pmos " << format_sig(cell.leakage_pmos, 17) << ";\n";
    emit_timing(os, "rise", cell.rise);
    emit_timing(os, "fall", cell.fall);
    os << "  }\n";
  }
  os << "}\n";
  return os.str();
}

namespace {

// One logical statement: either a group opener (has_block) with a
// parenthesized argument, an attribute with value tokens, or '}'.
struct Statement {
  int lineno = 0;
  std::string key;
  std::string arg;                  // inside (...), if present
  std::vector<std::string> values;  // attribute values
  bool opens_block = false;
  bool closes_block = false;
};

class LibertyParser {
 public:
  explicit LibertyParser(const std::string& text) {
    std::istringstream is(text);
    std::string line;
    int lineno = 0;
    while (std::getline(is, line)) {
      ++lineno;
      const size_t hash = line.find('#');
      if (hash != std::string::npos) line.erase(hash);
      std::string_view t = trim(line);
      // Allow multiple statements per line (e.g. "kind INV; drive 4;").
      while (!t.empty()) {
        const size_t brace_open = t.find('{');
        const size_t semi = t.find(';');
        const size_t brace_close = t.find('}');
        size_t cut = std::min({brace_open, semi, brace_close});
        require(cut != std::string_view::npos,
                "liberty: line " + std::to_string(lineno) + ": statement missing terminator",
                ErrorCode::io_parse);
        parse_statement(t.substr(0, cut + 1), t[cut], lineno);
        t = trim(t.substr(cut + 1));
      }
    }
  }

  CellLibrary parse() {
    pos_ = 0;
    const Statement& top = expect_open("library");
    CellLibrary lib;
    std::string lib_name = top.arg;
    TechNode node = TechNode::N90;
    double vdd = 0.0;
    std::vector<RepeaterCell> cells;
    while (!peek_close()) {
      const Statement& st = next();
      if (st.key == "technology" && !st.opens_block) {
        require(st.values.size() == 1, err(st, "technology takes one value"), ErrorCode::io_parse);
        node = tech_node_from_name(st.values[0]);
      } else if (st.key == "voltage" && !st.opens_block) {
        require(st.values.size() == 1, err(st, "voltage takes one value"), ErrorCode::io_parse);
        vdd = parse_double(st.values[0]);
      } else if (st.key == "cell" && st.opens_block) {
        cells.push_back(parse_cell(st.arg));
      } else {
        fail(err(st, "unexpected statement '" + st.key + "'"), ErrorCode::io_parse);
      }
    }
    consume_close();
    require(vdd > 0.0, "liberty: missing voltage", ErrorCode::io_parse);
    CellLibrary out(lib_name, node, vdd);
    for (auto& c : cells) out.add_cell(std::move(c));
    return out;
  }

 private:
  static std::string err(const Statement& st, const std::string& msg) {
    return "liberty: line " + std::to_string(st.lineno) + ": " + msg;
  }

  void parse_statement(std::string_view text, char terminator, int lineno) {
    Statement st;
    st.lineno = lineno;
    std::string_view body = trim(text.substr(0, text.size() - 1));
    if (terminator == '}') {
      require(body.empty(),
              "liberty: line " + std::to_string(lineno) + ": content before '}'",
              ErrorCode::io_parse);
      st.closes_block = true;
      statements_.push_back(std::move(st));
      return;
    }
    st.opens_block = (terminator == '{');
    // Optional parenthesized argument.
    const size_t paren = body.find('(');
    if (paren != std::string_view::npos) {
      const size_t close = body.find(')', paren);
      require(close != std::string_view::npos,
              "liberty: line " + std::to_string(lineno) + ": unclosed '('", ErrorCode::io_parse);
      st.arg = std::string(trim(body.substr(paren + 1, close - paren - 1)));
      body = trim(body.substr(0, paren));
      st.key = std::string(body);
      require(!st.key.empty(), "liberty: line " + std::to_string(lineno) + ": missing key",
              ErrorCode::io_parse);
    } else {
      auto tokens = split_whitespace(body);
      require(!tokens.empty(), "liberty: line " + std::to_string(lineno) + ": empty statement",
              ErrorCode::io_parse);
      st.key = tokens.front();
      st.values.assign(tokens.begin() + 1, tokens.end());
    }
    statements_.push_back(std::move(st));
  }

  const Statement& next() {
    require(pos_ < statements_.size(), "liberty: unexpected end of input", ErrorCode::io_parse);
    return statements_[pos_++];
  }

  bool peek_close() const {
    require(pos_ < statements_.size(), "liberty: unexpected end of input", ErrorCode::io_parse);
    return statements_[pos_].closes_block;
  }

  void consume_close() {
    const Statement& st = next();
    require(st.closes_block, err(st, "expected '}'"), ErrorCode::io_parse);
  }

  const Statement& expect_open(const char* key) {
    const Statement& st = next();
    require(st.opens_block && st.key == key,
            err(st, std::string("expected '") + key + " (...) {'"), ErrorCode::io_parse);
    return st;
  }

  Vector parse_values(const Statement& st) {
    Vector out;
    out.reserve(st.values.size());
    for (const auto& v : st.values) out.push_back(parse_double(v));
    return out;
  }

  Matrix parse_matrix_block() {
    std::vector<Vector> rows;
    while (!peek_close()) {
      const Statement& st = next();
      require(st.key == "row" && !st.opens_block, err(st, "expected 'row ...;'"),
              ErrorCode::io_parse);
      rows.push_back(parse_values(st));
      require(rows.back().size() == rows.front().size(),
              err(st, "ragged rows in table"), ErrorCode::io_parse);
    }
    consume_close();
    require(!rows.empty(), "liberty: empty table block", ErrorCode::io_parse);
    Matrix m(rows.size(), rows.front().size());
    for (size_t r = 0; r < rows.size(); ++r)
      for (size_t c = 0; c < rows[r].size(); ++c) m(r, c) = rows[r][c];
    return m;
  }

  TimingTable parse_timing() {
    TimingTable t;
    while (!peek_close()) {
      const Statement& st = next();
      if (st.key == "index_1" && !st.opens_block) {
        t.slew_axis = parse_values(st);
      } else if (st.key == "index_2" && !st.opens_block) {
        t.load_axis = parse_values(st);
      } else if (st.key == "delay" && st.opens_block) {
        t.delay = parse_matrix_block();
      } else if (st.key == "out_slew" && st.opens_block) {
        t.out_slew = parse_matrix_block();
      } else {
        fail(err(st, "unexpected statement in timing block"), ErrorCode::io_parse);
      }
    }
    consume_close();
    require(t.valid(), "liberty: incomplete timing table", ErrorCode::io_parse);
    return t;
  }

  RepeaterCell parse_cell(const std::string& name) {
    RepeaterCell cell;
    cell.name = name;
    bool have_rise = false;
    bool have_fall = false;
    while (!peek_close()) {
      const Statement& st = next();
      auto one = [&](const char* what) {
        require(st.values.size() == 1, err(st, std::string(what) + " takes one value"),
                ErrorCode::io_parse);
        return st.values[0];
      };
      if (st.key == "kind") {
        const std::string v = one("kind");
        if (v == "INV") {
          cell.kind = CellKind::Inverter;
        } else if (v == "BUF") {
          cell.kind = CellKind::Buffer;
        } else {
          fail(err(st, "unknown cell kind '" + v + "'"), ErrorCode::io_parse);
        }
      } else if (st.key == "drive") {
        cell.drive = static_cast<int>(parse_long(one("drive")));
      } else if (st.key == "wn") {
        cell.wn = parse_double(one("wn"));
      } else if (st.key == "wp") {
        cell.wp = parse_double(one("wp"));
      } else if (st.key == "input_cap") {
        cell.input_cap = parse_double(one("input_cap"));
      } else if (st.key == "area") {
        cell.area = parse_double(one("area"));
      } else if (st.key == "leakage_nmos") {
        cell.leakage_nmos = parse_double(one("leakage_nmos"));
      } else if (st.key == "leakage_pmos") {
        cell.leakage_pmos = parse_double(one("leakage_pmos"));
      } else if (st.key == "timing" && st.opens_block) {
        if (st.arg == "rise") {
          cell.rise = parse_timing();
          have_rise = true;
        } else if (st.arg == "fall") {
          cell.fall = parse_timing();
          have_fall = true;
        } else {
          fail(err(st, "timing edge must be rise or fall"), ErrorCode::io_parse);
        }
      } else {
        fail(err(st, "unexpected statement '" + st.key + "' in cell"), ErrorCode::io_parse);
      }
    }
    consume_close();
    require(have_rise && have_fall, "liberty: cell '" + name + "' missing timing tables",
            ErrorCode::io_parse);
    return cell;
  }

  std::vector<Statement> statements_;
  size_t pos_ = 0;
};

}  // namespace

CellLibrary parse_liberty(const std::string& text) { return LibertyParser(text).parse(); }

void save_liberty(const CellLibrary& library, const std::string& path) {
  write_text_file(path, write_liberty(library), "save_liberty");
}

CellLibrary load_liberty(const std::string& path) {
  return parse_liberty(read_text_file(path, "load_liberty"));
}

}  // namespace pim
