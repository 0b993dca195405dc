// Tests for the EDA exchange formats: SPICE-deck write/parse round trips
// (including simulation equivalence) and SPEF-lite export/digest.
#include <gtest/gtest.h>

#include "deck_parser.hpp"
#include "spef_digest.hpp"
#include "spice/deck.hpp"
#include "spice/transient.hpp"
#include "sta/signoff.hpp"
#include "sta/spef.hpp"
#include "tech/technology.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace pim {
namespace {

using namespace pim::unit;

Circuit make_inverter_circuit() {
  const Technology& t = technology(TechNode::N65);
  Circuit c;
  const NodeId vdd = c.add_node("vdd");
  const NodeId in = c.add_node("in");
  const NodeId out = c.add_node("out");
  c.add_vsource(vdd, Waveform::dc(t.vdd));
  c.add_vsource(in, Waveform::ramp(0.0, t.vdd, 20 * ps, 80 * ps));
  c.add_inverter(t.devices(), 2 * um, 4 * um, in, out, vdd);
  c.add_capacitor(out, c.ground(), 20 * fF);
  c.add_resistor(out, c.ground(), 1 * Mohm);  // bleeder, exercises R cards
  return c;
}

TEST(Deck, RoundTripPreservesStructure) {
  const Circuit original = make_inverter_circuit();
  const std::string deck = write_deck(original);
  const Circuit reparsed = parse_deck(deck);

  EXPECT_EQ(reparsed.node_count(), original.node_count());
  ASSERT_EQ(reparsed.resistors().size(), original.resistors().size());
  ASSERT_EQ(reparsed.capacitors().size(), original.capacitors().size());
  ASSERT_EQ(reparsed.vsources().size(), original.vsources().size());
  ASSERT_EQ(reparsed.mosfets().size(), original.mosfets().size());
  EXPECT_DOUBLE_EQ(reparsed.mosfets()[0].width, original.mosfets()[0].width);
  EXPECT_DOUBLE_EQ(reparsed.mosfets()[1].params.k_sat, original.mosfets()[1].params.k_sat);
  EXPECT_EQ(reparsed.mosfets()[0].type, MosType::Nmos);
  EXPECT_EQ(reparsed.mosfets()[1].type, MosType::Pmos);
}

TEST(Deck, RoundTripSimulatesIdentically) {
  const Circuit original = make_inverter_circuit();
  const Circuit reparsed = parse_deck(write_deck(original));

  TransientOptions opt;
  opt.t_stop = 0.5 * ns;
  opt.dt = 1 * ps;
  // Node ids are preserved by construction order, so probing by id works.
  const NodeId out = 3;
  const TransientResult a = run_transient(original, opt, {out});
  const TransientResult b = run_transient(reparsed, opt, {out});
  ASSERT_EQ(a.time.size(), b.time.size());
  for (size_t i = 0; i < a.time.size(); ++i)
    EXPECT_NEAR(a.trace(out)[i], b.trace(out)[i], 1e-9);
}

TEST(Deck, SignoffNetlistExportsAndReparses) {
  const Technology& t = technology(TechNode::N65);
  LinkContext ctx;
  ctx.length = 1 * mm;
  LinkDesign d;
  d.drive = 8;
  d.num_repeaters = 2;
  const LinkNetlist net = build_link_netlist(t, ctx, d);
  const Circuit reparsed = parse_deck(write_deck(net.circuit));
  EXPECT_EQ(reparsed.node_count(), net.circuit.node_count());
  EXPECT_EQ(reparsed.mosfets().size(), net.circuit.mosfets().size());
  EXPECT_EQ(reparsed.capacitors().size(), net.circuit.capacitors().size());
}

TEST(Deck, PwlWaveformRoundTrips) {
  Circuit c;
  const NodeId n = c.add_node("n");
  c.add_vsource(n, Waveform::pwl({0.0, 1e-10, 3e-10}, {0.0, 0.9, 0.2}));
  const Circuit r = parse_deck(write_deck(c));
  const Waveform& w = r.vsources()[0].wave;
  EXPECT_DOUBLE_EQ(w.value(0.0), 0.0);
  EXPECT_DOUBLE_EQ(w.value(1e-10), 0.9);
  EXPECT_NEAR(w.value(2e-10), 0.55, 1e-12);
  EXPECT_DOUBLE_EQ(w.value(1.0), 0.2);
}

// ------------------------------------------------------------------ SPEF

TEST(Spef, TotalsMatchExtraction) {
  const Technology& t = technology(TechNode::N65);
  LinkContext ctx;
  ctx.length = 3 * mm;
  LinkDesign d;
  d.drive = 16;
  d.num_repeaters = 3;
  const LinkGeometry g(t, ctx, d);

  const std::string spef = write_spef(t, ctx, d);
  const SpefDigest digest = digest_spef(spef);

  EXPECT_EQ(digest.nets, 3);
  // Per segment: npi resistances and (npi + 1) grounded + 2(npi + 1)
  // coupling caps.
  EXPECT_EQ(digest.res_entries, 3 * 6);
  EXPECT_EQ(digest.cap_entries, 3 * (7 + 2 * 7));
  EXPECT_NEAR(digest.total_res, 3 * g.seg_res, 1e-6 * digest.total_res);
  EXPECT_NEAR(digest.total_ground_cap, 3 * g.seg_cap_ground,
              1e-6 * digest.total_ground_cap);
  EXPECT_NEAR(digest.total_couple_cap, 3 * g.seg_cap_couple_total,
              1e-6 * digest.total_couple_cap);
}

TEST(Spef, ShieldedHasNoCouplingEntries) {
  const Technology& t = technology(TechNode::N45);
  LinkContext ctx;
  ctx.length = 2 * mm;
  ctx.style = DesignStyle::Shielded;
  LinkDesign d;
  d.num_repeaters = 2;
  const SpefDigest digest = digest_spef(write_spef(t, ctx, d));
  EXPECT_DOUBLE_EQ(digest.total_couple_cap, 0.0);
  EXPECT_GT(digest.total_ground_cap, 0.0);
}

TEST(Spef, HeaderAndStructurePresent) {
  const Technology& t = technology(TechNode::N90);
  LinkContext ctx;
  ctx.length = 1 * mm;
  LinkDesign d;
  SpefOptions opt;
  opt.design_name = "my_design";
  const std::string spef = write_spef(t, ctx, d, opt);
  EXPECT_NE(spef.find("*SPEF"), std::string::npos);
  EXPECT_NE(spef.find("*DESIGN \"my_design\""), std::string::npos);
  EXPECT_NE(spef.find("*D_NET victim_0"), std::string::npos);
  EXPECT_NE(spef.find("*CONN"), std::string::npos);
}

TEST(Spef, DigestRejectsMalformedInput) {
  EXPECT_THROW(digest_spef("*D_NET x 1\n*CAP\n1 2 3 4 5\n*END\n"), Error);
  EXPECT_THROW(digest_spef("*D_NET x 1\n"), Error);  // unterminated
  EXPECT_THROW(digest_spef("*CAP\n"), Error);        // cap outside a net
}

}  // namespace
}  // namespace pim
