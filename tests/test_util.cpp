// Unit tests for pim::util — units, errors, strings, block text, tables,
// CSV, RNG.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "util/blocktext.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/expected.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace pim {
namespace {

TEST(Units, RoundTripConversions) {
  EXPECT_DOUBLE_EQ(unit::to_ps(5.0 * unit::ps), 5.0);
  EXPECT_DOUBLE_EQ(unit::to_fF(2.5 * unit::fF), 2.5);
  EXPECT_DOUBLE_EQ(unit::to_mm(15.0 * unit::mm), 15.0);
  EXPECT_DOUBLE_EQ(unit::to_mW(3.0 * unit::mW), 3.0);
  EXPECT_DOUBLE_EQ(unit::to_GHz(2.25 * unit::GHz), 2.25);
  EXPECT_DOUBLE_EQ(unit::to_um2(7.0 * unit::um2), 7.0);
}

TEST(Units, RelativeMagnitudes) {
  EXPECT_LT(unit::ps, unit::ns);
  EXPECT_LT(unit::fF, unit::pF);
  EXPECT_LT(unit::nm, unit::um);
  EXPECT_GT(unit::GHz, unit::MHz);
}

TEST(Error, RequireThrowsOnlyWhenFalse) {
  EXPECT_NO_THROW(require(true, "ok"));
  EXPECT_THROW(require(false, "boom"), Error);
  try {
    require(false, "specific message");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_EQ(e.message(), "specific message");
    // what() appends the taxonomy code (internal when unspecified).
    EXPECT_STREQ(e.what(), "specific message [internal]");
  }
}

// require() with a literal message takes the inline overload that builds
// the string only on failure; the Error it throws must be the one the
// std::string overload throws, text and code alike.
TEST(Error, LiteralRequireKeepsMessageAndCode) {
  const auto thrown = [](const auto& check) {
    try {
      check();
    } catch (const Error& e) {
      return e;
    }
    ADD_FAILURE() << "should have thrown";
    return Error("no throw");
  };
  EXPECT_NO_THROW(require(true, "ok", ErrorCode::bad_input));
  const char* const text = "delay_quantile: q must be in [0, 1]";
  const Error literal = thrown([&] { require(false, text); });
  const Error owned = thrown([&] { require(false, std::string(text)); });
  EXPECT_EQ(literal.message(), text);
  EXPECT_EQ(literal.code(), ErrorCode::internal);
  EXPECT_STREQ(literal.what(), owned.what());
  const Error coded = thrown([] { require(false, "bad drive", ErrorCode::bad_input); });
  const Error coded_owned =
      thrown([] { require(false, std::string("bad drive"), ErrorCode::bad_input); });
  EXPECT_EQ(coded.message(), "bad drive");
  EXPECT_EQ(coded.code(), ErrorCode::bad_input);
  EXPECT_STREQ(coded.what(), "bad drive [bad_input]");
  EXPECT_STREQ(coded.what(), coded_owned.what());
  EXPECT_EQ(thrown([] { fail("gone", ErrorCode::io_parse); }).code(), ErrorCode::io_parse);
}

TEST(Error, CarriesTaxonomyCode) {
  try {
    fail("cannot invert", ErrorCode::singular_matrix);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::singular_matrix);
    EXPECT_STREQ(e.what(), "cannot invert [singular_matrix]");
  }
  EXPECT_STREQ(error_code_name(ErrorCode::bad_input), "bad_input");
  EXPECT_STREQ(error_code_name(ErrorCode::io_parse), "io_parse");
}

TEST(Error, ContextChainRendersInnermostFirst) {
  const Error root("pivot vanished", ErrorCode::singular_matrix);
  const Error chained =
      root.with_context("factoring the MNA system").with_context("characterizing INVD8");
  EXPECT_EQ(chained.code(), ErrorCode::singular_matrix);
  EXPECT_EQ(chained.message(), "pivot vanished");
  ASSERT_EQ(chained.context().size(), 2u);
  EXPECT_EQ(chained.context()[0], "factoring the MNA system");
  const std::string what = chained.what();
  const size_t factor_at = what.find("while factoring");
  const size_t char_at = what.find("while characterizing");
  ASSERT_NE(factor_at, std::string::npos);
  ASSERT_NE(char_at, std::string::npos);
  EXPECT_LT(factor_at, char_at);  // innermost first
}

TEST(Expected, ValueAndErrorStates) {
  const Expected<int> good = 42;
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 42);
  EXPECT_EQ(good.value_or(7), 42);

  const Expected<int> bad = Error("nope", ErrorCode::no_convergence);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.value_or(7), 7);
  EXPECT_EQ(bad.error().code(), ErrorCode::no_convergence);
  EXPECT_THROW(bad.value(), Error);

  Expected<std::string> moved = std::string("payload");
  EXPECT_EQ(moved.take(), "payload");
}

TEST(Expected, WithContextPreservesSuccessAndChainsFailure) {
  Expected<int> good = 1;
  EXPECT_TRUE(std::move(good).with_context("stage A").ok());

  Expected<int> bad = Error("root", ErrorCode::io_parse);
  const Expected<int> chained = std::move(bad).with_context("loading deck");
  ASSERT_FALSE(chained.ok());
  ASSERT_EQ(chained.error().context().size(), 1u);
  EXPECT_EQ(chained.error().context()[0], "loading deck");
}

TEST(ExpectedVoid, DefaultIsSuccess) {
  const Expected<void> ok;
  EXPECT_TRUE(ok.ok());
  EXPECT_NO_THROW(ok.value());

  const Expected<void> bad = Error("broken", ErrorCode::internal);
  EXPECT_FALSE(bad.ok());
  EXPECT_THROW(bad.value(), Error);
  EXPECT_FALSE(Expected<void>(Error("x")).with_context("ctx").ok());
}

TEST(Error, FailAlwaysThrows) { EXPECT_THROW(fail("x"), Error); }

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  abc  "), "abc");
  EXPECT_EQ(trim("abc"), "abc");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("\t x \n"), "x");
}

TEST(Strings, Split) {
  const auto parts = split("a, b , c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
  EXPECT_EQ(split("", ',').size(), 1u);
  EXPECT_EQ(split("a,,b", ',')[1], "");
}

TEST(Strings, SplitWhitespace) {
  const auto parts = split_whitespace("  one\ttwo \n three ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "one");
  EXPECT_EQ(parts[2], "three");
  EXPECT_TRUE(split_whitespace("   ").empty());
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("liberty", "lib"));
  EXPECT_FALSE(starts_with("lib", "liberty"));
  EXPECT_TRUE(starts_with("x", ""));
}

TEST(Strings, ParseDouble) {
  EXPECT_DOUBLE_EQ(parse_double("3.5"), 3.5);
  EXPECT_DOUBLE_EQ(parse_double("  -2e-3 "), -2e-3);
  EXPECT_THROW(parse_double("abc"), Error);
  EXPECT_THROW(parse_double("1.5x"), Error);
  EXPECT_THROW(parse_double(""), Error);
}

uint64_t bits_of(double v) { return std::bit_cast<uint64_t>(v); }

uint64_t strtod_bits(const char* text) { return bits_of(std::strtod(text, nullptr)); }

TEST(Strings, ParseDoubleGivesTheBitsOfStrtod) {
  // Tokens from_chars takes whole, and tokens only strtod takes: a leading
  // '+', hex, out-of-range magnitudes, inf and NaN (with a payload too).
  for (const char* token :
       {"0", "-0", "4.9e-324", "-4.9e-324", "1e-310", "2.2250738585072014e-308",
        "2.2250738585072011e-308", "1e308", "-1e308", "1e-308", "1.7976931348623157e308",
        "+1", "+0.5e-3", "0x1p3", "-0X1.8p-2", "inf", "-inf", "INF", "Infinity", "nan",
        "-nan", "NAN", "nan(123)", "1e999", "-1e999", "1e-400", "-1e-400", ".5", "5.",
        "0.1", "123456789012345678901234567890", "9007199254740993"}) {
    EXPECT_EQ(bits_of(parse_double(token)), strtod_bits(token)) << token;
    EXPECT_EQ(bits_of(parse_double(std::string(" \t") + token + "\n ")), strtod_bits(token))
        << token;
  }
  for (const char* token : {"+", "-", ".", "e5", "1e5x", "0x", "1 2", "--1", "+-1", "in"})
    EXPECT_THROW(parse_double(token), Error) << token;
}

TEST(Strings, NumberCodecMatchesPrintfAndStrtod) {
  // Random bit patterns cover every exponent, subnormals, NaN payloads and
  // both zeros; the references are the C library calls the codec replaced.
  std::mt19937_64 bits(20261017);
  char ref[64];
  for (int i = 0; i < 120000; ++i) {
    const double v = std::bit_cast<double>(bits());
    for (int digits : {12, 17}) {
      std::snprintf(ref, sizeof ref, "%.*g", digits, v);
      const std::string text = format_sig(v, digits);
      ASSERT_EQ(text, ref) << std::hex << bits_of(v);
      ASSERT_EQ(bits_of(parse_double(text)), strtod_bits(ref)) << ref;
    }
  }
}

TEST(Strings, ParseLong) {
  EXPECT_EQ(parse_long("42"), 42);
  EXPECT_EQ(parse_long(" -7 "), -7);
  EXPECT_THROW(parse_long("4.2"), Error);
  EXPECT_THROW(parse_long(""), Error);
  // strtol saturates and sets ERANGE; the saturated value must not leak.
  EXPECT_EQ(parse_long("9223372036854775807"), 9223372036854775807L);
  EXPECT_THROW(parse_long("99999999999999999999"), Error);
  EXPECT_THROW(parse_long("-99999999999999999999"), Error);
}

TEST(Strings, Format) {
  EXPECT_EQ(format("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(format_sig(0.00123456, 3), "0.00123");
  // Any precision printf takes, including none, zero and more than 17.
  char ref[128];
  for (double v : {1.0 / 3.0, -0.0, 1e-5, 123456.0, -1.7976931348623157e308, 4.9e-324})
    for (int digits : {-1, 0, 1, 3, 6, 9, 16, 40, 100}) {
      std::snprintf(ref, sizeof ref, "%.*g", digits, v);
      EXPECT_EQ(format_sig(v, digits), ref) << digits;
    }
  std::string out = "x";
  append_sig(out, 0.1, 17);
  EXPECT_EQ(out, "x0.10000000000000001");
}

// ------------------------------------------------------------- block text

enum class Shade { Light, Dark };

struct Leaf {
  std::string name;
  double weight = 0.5;
  double spare = 9.0;
};

template <typename B>
void bind(B& b, Leaf& v) {
  b.field("weight", v.weight);
  b.optional("spare", v.spare);
}

struct Tree {
  double height = 0.0;
  long rings = 0;
  bool alive = false;
  Shade shade = Shade::Light;
  std::vector<double> samples;
  std::vector<double> none;
  Leaf crown;
  std::vector<Leaf> leaves;
};

template <typename B>
void bind(B& b, Tree& v) {
  b.field("height", v.height);
  b.field("rings", v.rings);
  b.field("alive", v.alive);
  b.field("shade", v.shade);
  b.field("samples", v.samples);
  b.field("none", v.none);
  b.block("crown", v.crown);
  b.named_blocks("leaves", v.leaves);
}

Tree sample_tree() {
  Tree t;
  t.height = 1.0 / 3.0;
  t.rings = -42;
  t.alive = true;
  t.shade = Shade::Dark;
  t.samples = {1.5, 2e-10};
  t.crown.weight = 2.0;
  t.leaves = {Leaf{"oak", 0.25, 9.0}, Leaf{"ash", 1.0, 3.0}};
  return t;
}

const char* const kTreeText =
    "height 0.33333\n"
    "rings -42\n"
    "alive 1\n"
    "shade 1\n"
    "samples 1.5 2e-10\n"
    "none\n"
    "crown {\n"
    "  weight 2\n"
    "  spare 9\n"
    "}\n"
    "leaves {\n"
    "  oak {\n"
    "    weight 0.25\n"
    "    spare 9\n"
    "  }\n"
    "  ash {\n"
    "    weight 1\n"
    "    spare 3\n"
    "  }\n"
    "}\n";

std::string write_tree(const Tree& t, int digits) {
  blocktext::Writer w(digits);
  bind(w, const_cast<Tree&>(t));
  return w.finish();
}

Tree read_tree(const std::string& text) {
  blocktext::Reader r(text, "tree");
  Tree t;
  bind(r, t);
  r.finish();
  return t;
}

// Reads `text` as a Tree and returns the io_parse message it must fail with.
std::string tree_error(const std::string& text) {
  try {
    (void)read_tree(text);
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::io_parse) << e.what();
    return e.message();
  }
  ADD_FAILURE() << "parsed:\n" << text;
  return "";
}

// `text` with lines [first, last] (1-based) replaced by `with`, a line
// or lines of its own unless empty.
std::string edit_lines(const std::string& text, int first, int last,
                       const std::string& with) {
  size_t begin = 0;
  for (int i = 1; i < first; ++i) begin = text.find('\n', begin) + 1;
  size_t end = begin;
  for (int i = first; i <= last; ++i) end = text.find('\n', end) + 1;
  return text.substr(0, begin) + with + (with.empty() ? "" : "\n") + text.substr(end);
}

std::string edit_line(const std::string& text, int line, const std::string& with) {
  return edit_lines(text, line, line, with);
}

TEST(BlockText, WriterSpellsTheGrammar) {
  EXPECT_EQ(write_tree(sample_tree(), 5), kTreeText);
  blocktext::Writer w(3);
  const std::string label = "x y";
  w.block("top", sample_tree().crown, &label);
  EXPECT_EQ(w.finish(), "top \"x y\" {\n  weight 2\n  spare 9\n}\n");
}

TEST(BlockText, ReaderRoundTripsTheWriter) {
  const Tree t = sample_tree();
  const Tree r = read_tree(write_tree(t, 17));
  EXPECT_EQ(r.height, t.height);
  EXPECT_EQ(r.rings, t.rings);
  EXPECT_EQ(r.alive, t.alive);
  EXPECT_EQ(r.shade, t.shade);
  EXPECT_EQ(r.samples, t.samples);
  EXPECT_TRUE(r.none.empty());
  EXPECT_EQ(r.crown.weight, t.crown.weight);
  ASSERT_EQ(r.leaves.size(), 2u);
  EXPECT_EQ(r.leaves[0].name, "oak");  // file order
  EXPECT_EQ(r.leaves[1].name, "ash");
  EXPECT_EQ(r.leaves[1].spare, 3.0);
}

TEST(BlockText, CommentsBlankLinesAndIndentationAreFree) {
  const Tree r = read_tree(
      "# a tree\n\nheight 2  # metres\n rings 3\nalive 0\nshade 0\nsamples\n"
      "none\n\t crown   {\nweight 1\n   }\n");
  EXPECT_EQ(r.height, 2.0);
  EXPECT_EQ(r.rings, 3);
  EXPECT_TRUE(r.samples.empty());
  EXPECT_EQ(r.crown.weight, 1.0);
  EXPECT_EQ(r.crown.spare, 9.0);  // optional and absent: keeps its value
  EXPECT_TRUE(r.leaves.empty());  // absent named blocks: no items
}

TEST(BlockText, ErrorsAreIoParseNamingTheKeyAndLine) {
  const std::string text = kTreeText;
  EXPECT_EQ(tree_error(edit_line(text, 2, "")), "tree: line 19: missing field 'rings'");
  EXPECT_EQ(tree_error(edit_line(text, 8, "")),
            "tree: line 7: missing field 'weight' in block 'crown'");
  EXPECT_EQ(tree_error(edit_line(text, 2, "rings -42\nrings 7")),
            "tree: line 3: duplicate key 'rings'");
  EXPECT_EQ(tree_error(edit_line(text, 9, "  spare 9\n  spar 9")),
            "tree: line 10: unknown key 'spar' in block 'crown'");
  EXPECT_EQ(tree_error(text + "extra {\n}\n"), "tree: line 21: unknown block 'extra'");
  EXPECT_EQ(tree_error(edit_line(text, 1, "height 0.3x")),
            "tree: line 1: key 'height': parse_double: trailing characters in '0.3x'");
  EXPECT_EQ(tree_error(edit_line(text, 2, "rings 4.2")),
            "tree: line 2: key 'rings': parse_long: trailing characters in '4.2'");
  EXPECT_EQ(tree_error(edit_line(text, 5, "samples 1 zz 3")),
            "tree: line 5: key 'samples': parse_double: trailing characters in 'zz'");
  EXPECT_EQ(tree_error(edit_line(text, 16, "  oak {\n    weight 1\n  }\n  ash {")),
            "tree: line 16: duplicate block 'oak' in block 'leaves'");
  EXPECT_EQ(tree_error(edit_lines(text, 12, 15, "  oak 1")),
            "tree: line 12: key 'oak' must open a block, on its own line");
}

TEST(BlockText, RejectsLinesOutsideTheGrammar) {
  const std::string text = kTreeText;
  // One-line blocks are not in the grammar.
  EXPECT_EQ(tree_error(edit_lines(text, 7, 10, "crown { weight 2 }")),
            "tree: line 7: key 'crown' must open a block, on its own line");
  EXPECT_EQ(tree_error(edit_line(text, 7, "crown 2 {")),
            "tree: line 7: expected 'key value...', 'key [\"label\"] {' or '}'");
  EXPECT_EQ(tree_error(edit_line(text, 7, "crown \"c\" {")),
            "tree: line 7: block 'crown' takes no label");
  EXPECT_EQ(tree_error(edit_line(text, 1, "height {\n}")),
            "tree: line 1: block 'height' must be a field, not a block");
  EXPECT_EQ(tree_error(text + "}\n"), "tree: line 21: '}' closes no block");
  EXPECT_EQ(tree_error(edit_line(text, 10, "")), "tree: line 7: block 'crown' is never closed");
  EXPECT_EQ(tree_error(edit_lines(text, 12, 19, "")),
            "tree: line 11: block 'leaves' is empty");
  EXPECT_EQ(tree_error(""), "tree: line 1: missing field 'height'");
}

TEST(BlockText, LabelledBlocksNeedTheirLabel) {
  const auto read_top = [](const std::string& text) {
    blocktext::Reader r(text, "top");
    Leaf leaf;
    std::string label;
    r.block("top", leaf, &label);
    r.finish();
    return label;
  };
  EXPECT_EQ(read_top("top \"a b\" {\nweight 1\n}\n"), "a b");
  EXPECT_EQ(read_top("top \"\" {\nweight 1\n}\n"), "");
  try {
    read_top("top {\nweight 1\n}\n");
    ADD_FAILURE() << "an unlabelled block parsed";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::io_parse);
    EXPECT_EQ(e.message(), "top: line 1: block 'top' needs a \"label\"");
  }
}

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, RowArityChecked) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Table, SeparatorRendered) {
  Table t({"a"});
  t.add_row({"1"});
  t.add_separator();
  t.add_row({"2"});
  // Two separators total: one under the header, one explicit.
  const std::string s = t.to_string();
  size_t count = 0;
  for (size_t pos = 0; (pos = s.find("-\n", pos)) != std::string::npos; ++pos) ++count;
  EXPECT_EQ(count, 2u);
}

TEST(Csv, QuotesSpecialCells) {
  CsvWriter w({"a", "b"});
  w.add_row({"x,y", "plain"});
  w.add_row({"with \"quote\"", "nl\nin"});
  const std::string s = w.to_string();
  EXPECT_NE(s.find("\"x,y\""), std::string::npos);
  EXPECT_NE(s.find("\"with \"\"quote\"\"\""), std::string::npos);
  EXPECT_EQ(w.row_count(), 2u);
}

TEST(Csv, ArityChecked) {
  CsvWriter w({"a"});
  EXPECT_THROW(w.add_row({"1", "2"}), Error);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformStaysInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform(2.0, 5.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, NextBelowBounds) {
  Rng r(99);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.next_below(17), 17u);
  EXPECT_EQ(r.next_below(0), 0u);
}

TEST(Rng, RoughlyUniformMean) {
  Rng r(42);
  double acc = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) acc += r.next_double();
  EXPECT_NEAR(acc / n, 0.5, 0.02);
}

}  // namespace
}  // namespace pim
