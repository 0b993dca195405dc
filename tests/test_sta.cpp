// Tests for pim::sta — Elmore utilities, the golden sign-off analyzer's
// physical soundness (SI ordering, pi convergence), the composition
// calibration, coefficient-file round trips, and the headline Table II
// property: the calibrated proposed model tracks sign-off closely while
// the baselines do not.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "spice/plan.hpp"
#include "spice/transient.hpp"
#include "spice/measure.hpp"
#include "util/rng.hpp"

#include "buffering/optimize.hpp"
#include "cache/invalidate.hpp"
#include "cache/store.hpp"
#include "charlib/characterize.hpp"
#include "charlib/coeffs_io.hpp"
#include "exec/engine.hpp"
#include "models/baseline.hpp"
#include "models/proposed.hpp"
#include "obs/metrics.hpp"
#include "sta/awe.hpp"
#include "sta/calibrated.hpp"
#include "sta/composition.hpp"
#include "sta/elmore.hpp"
#include "sta/nldm_timer.hpp"
#include "sta/noise.hpp"
#include "sta/signoff.hpp"
#include "tech/techfile.hpp"
#include "util/alloc_counter.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

#include "fit_options.hpp"
#include "synthetic_fit.hpp"

namespace pim {
namespace {

using namespace pim::unit;

TEST(Elmore, BufferedLineGrowsWithLength) {
  const Technology& t = technology(TechNode::N65);
  LinkDesign d;
  d.drive = 16;
  d.num_repeaters = 4;
  LinkContext a;
  a.length = 2 * mm;
  LinkContext b;
  b.length = 6 * mm;
  EXPECT_GT(elmore_buffered_line(t, b, d), elmore_buffered_line(t, a, d));
  EXPECT_GT(elmore_buffered_line(t, a, d), 0.0);
}

// The batched engine is banded-only: CompiledCircuit::compile rejects a
// half-bandwidth above solver::kMaxHalfBandwidth. Every plan a
// production path compiles must fit under it: the sign-off line of every
// node, style, cell kind, launch polarity and aggressor mode (the
// VictimQuiet one is the noise netlist), and each characterization cell
// fixture.
TEST(ProductionPlans, EveryNetlistFitsTheBandedEngine) {
  for (TechNode node : all_tech_nodes()) {
    const Technology& tech = technology(node);
    for (DesignStyle style :
         {DesignStyle::SingleSpacing, DesignStyle::DoubleSpacing, DesignStyle::Shielded}) {
      LinkContext ctx;
      ctx.style = style;
      ctx.length = 2 * mm;
      for (CellKind kind : {CellKind::Inverter, CellKind::Buffer}) {
        LinkDesign design;
        design.kind = kind;
        for (int repeaters : {1, 4}) {
          design.num_repeaters = repeaters;
          for (AggressorMode mode : {AggressorMode::Opposing, AggressorMode::SameDirection,
                                     AggressorMode::Quiet, AggressorMode::VictimQuiet}) {
            SignoffOptions opt;
            opt.aggressors = mode;
            for (bool rising : {true, false}) {
              const LinkNetlist net = build_link_netlist(tech, ctx, design, opt, rising);
              EXPECT_LE(CompiledCircuit::compile(net.circuit).bandwidth,
                        solver::kMaxHalfBandwidth)
                  << tech_node_name(node) << " style " << static_cast<int>(style);
            }
          }
        }
      }
    }
    // The cell fixtures are private to charlib, which compiles one per
    // sweep and runs the input-cap deck through run_transient; both throw
    // bad_input over the limit, so a completed 2 x 2 sweep is the check.
    CharacterizationOptions copt;
    copt.slew_axis = {50 * ps, 120 * ps};
    copt.fanout_axis = {1.0, 4.0};
    for (CellKind kind : {CellKind::Inverter, CellKind::Buffer})
      EXPECT_NO_THROW(characterize_cell(tech, kind, 2, copt)) << tech_node_name(node);
  }
}

// Shared calibrated fit at 65 nm.
class StaFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    tech_ = &technology(TechNode::N65);
    fit_ = new TechnologyFit(calibrated_fit(*tech_, Corner{}, "", trimmed_characterization(),
                                            trimmed_composition()));
    model_ = new ProposedModel(*tech_, *fit_);
  }
  static void TearDownTestSuite() {
    delete model_;
    delete fit_;
    model_ = nullptr;
    fit_ = nullptr;
  }
  static const Technology* tech_;
  static TechnologyFit* fit_;
  static ProposedModel* model_;
};

const Technology* StaFixture::tech_ = nullptr;
TechnologyFit* StaFixture::fit_ = nullptr;
ProposedModel* StaFixture::model_ = nullptr;

LinkContext short_link(DesignStyle style) {
  LinkContext ctx;
  ctx.length = 1.5 * mm;
  ctx.input_slew = 100 * ps;
  ctx.style = style;
  return ctx;
}

TEST_F(StaFixture, AggressorModesOrderDelays) {
  // Worst-case opposing switching must be slower than quiet neighbors,
  // which must be slower than same-direction switching.
  const LinkContext ctx = short_link(DesignStyle::SingleSpacing);
  LinkDesign d;
  d.drive = 16;
  d.num_repeaters = 2;
  SignoffOptions opt;
  opt.aggressors = AggressorMode::Opposing;
  const double opposing = signoff_link(*tech_, ctx, d, opt).delay;
  opt.aggressors = AggressorMode::Quiet;
  const double quiet = signoff_link(*tech_, ctx, d, opt).delay;
  opt.aggressors = AggressorMode::SameDirection;
  const double same = signoff_link(*tech_, ctx, d, opt).delay;
  EXPECT_GT(opposing, quiet);
  EXPECT_GT(quiet, same);
}

TEST_F(StaFixture, PiDiscretizationConverged) {
  const LinkContext ctx = short_link(DesignStyle::Shielded);
  LinkDesign d;
  d.drive = 16;
  d.num_repeaters = 2;
  SignoffOptions coarse;
  coarse.pi_per_segment = 3;
  SignoffOptions fine;
  fine.pi_per_segment = 12;
  const double d_coarse = signoff_link(*tech_, ctx, d, coarse).delay;
  const double d_fine = signoff_link(*tech_, ctx, d, fine).delay;
  EXPECT_NEAR(d_coarse, d_fine, 0.05 * d_fine);
}

TEST_F(StaFixture, DelayGrowsWithLength) {
  LinkDesign d;
  d.drive = 16;
  d.num_repeaters = 2;
  LinkContext a = short_link(DesignStyle::Shielded);
  LinkContext b = a;
  b.length = 3 * mm;
  EXPECT_GT(signoff_link(*tech_, b, d).delay, signoff_link(*tech_, a, d).delay);
}

TEST_F(StaFixture, CompositionCalibrationIsSane) {
  for (const CompositionWeights* w : {&fit_->comp_coupled, &fit_->comp_shielded}) {
    EXPECT_GT(w->kappa_c, 0.1);
    EXPECT_LT(w->kappa_c, 1.5);
    EXPECT_GT(w->kappa_w, 0.1);
    EXPECT_LT(w->kappa_w, 1.6);
    // The calibration must reproduce its own training chains closely.
    EXPECT_LT(w->worst_rel_error, 0.25);
  }
}

// Composition runs every golden simulation in one parallel region; the
// fitted weights must not depend on how the engine splits it.
TEST_F(StaFixture, CompositionIsBitIdenticalAtAnyThreadCount) {
  std::vector<TechnologyFit> fits;
  for (int t : {1, 2, 3, 4}) {
    exec::set_threads(t);
    fits.push_back(calibrate_composition(*tech_, *fit_, trimmed_composition()));
  }
  exec::set_threads(0);
  const auto same = [](const CompositionWeights& a, const CompositionWeights& b) {
    return a.kappa_c == b.kappa_c && a.kappa_c1 == b.kappa_c1 && a.kappa_w == b.kappa_w &&
           a.worst_rel_error == b.worst_rel_error;
  };
  for (size_t k = 1; k < fits.size(); ++k) {
    EXPECT_TRUE(same(fits[k].comp_coupled, fits[0].comp_coupled)) << "threads=" << k + 1;
    EXPECT_TRUE(same(fits[k].comp_shielded, fits[0].comp_shielded)) << "threads=" << k + 1;
  }
}

// What signoff_link reports, or the error it throws.
struct SignoffOutcome {
  SignoffResult result;
  std::string error;
};

template <typename Run>
SignoffOutcome capture(Run run) {
  SignoffOutcome out;
  try {
    out.result = run();
  } catch (const Error& e) {
    out.error = std::string(error_code_name(e.code())) + ": " + e.what();
  }
  return out;
}

// The oracle for the two-lane signoff: two solo scalar reference runs,
// one per launch polarity, on the rising and the falling netlist, with
// the simulation window signoff.cpp uses (edge at 50 ps).
TransientOptions signoff_window(const Technology& tech, const LinkContext& ctx,
                                const LinkDesign& d, const SignoffOptions& opt) {
  TransientOptions sim;
  sim.dt = opt.dt;
  sim.t_stop = 50e-12 + ctx.input_slew + 3.0 * PamunuwaModel(tech).evaluate(ctx, d).delay +
               opt.window_margin;
  sim.t_settle = 2e-9;
  sim.settle_steps = 250;
  return sim;
}

SignoffResult reference_signoff(const Technology& tech, const LinkContext& ctx,
                                const LinkDesign& d, const SignoffOptions& opt) {
  const TransientOptions sim = signoff_window(tech, ctx, d, opt);
  const bool inverted = d.kind == CellKind::Inverter && d.num_repeaters % 2 == 1;
  SignoffResult worst;
  for (const bool rising : {true, false}) {
    const LinkNetlist net = build_link_netlist(tech, ctx, d, opt, rising);
    const TransientResult res =
        run_transient_reference(net.circuit, sim, {net.victim_in, net.victim_out});
    const EdgeKind in_edge = rising ? EdgeKind::Rising : EdgeKind::Falling;
    const EdgeKind out_edge = rising != inverted ? EdgeKind::Rising : EdgeKind::Falling;
    const double delay = delay_50(res.time, res.trace(net.victim_in), in_edge,
                                  res.trace(net.victim_out), out_edge, tech.vdd);
    if (delay > worst.delay) {
      worst.delay = delay;
      worst.output_slew = measure_slew(res.time, res.trace(net.victim_out), out_edge, tech.vdd);
      worst.node_count = net.circuit.node_count();
    }
  }
  return worst;
}

TEST_F(StaFixture, TwoLaneSignoffMatchesTwoReferenceRunsBitForBit) {
  for (const DesignStyle style : {DesignStyle::SingleSpacing, DesignStyle::Shielded}) {
    for (const CellKind kind : {CellKind::Inverter, CellKind::Buffer}) {
      for (const AggressorMode mode : {AggressorMode::Opposing, AggressorMode::SameDirection,
                                       AggressorMode::Quiet, AggressorMode::VictimQuiet}) {
        LinkContext ctx = short_link(style);
        ctx.length = 0.6 * mm;
        LinkDesign d;
        d.kind = kind;
        d.drive = 16;
        d.num_repeaters = 1;
        SignoffOptions opt;
        opt.aggressors = mode;
        const SignoffOutcome got = capture([&] { return signoff_link(*tech_, ctx, d, opt); });
        const SignoffOutcome want =
            capture([&] { return reference_signoff(*tech_, ctx, d, opt); });
        const std::string where = std::string(design_style_name(style)) + " kind " +
                                  std::to_string(static_cast<int>(kind)) + " mode " +
                                  std::to_string(static_cast<int>(mode));
        // A quiet victim never crosses 50 %: both sides must fail alike.
        if (mode != AggressorMode::VictimQuiet) {
          EXPECT_EQ(want.error, "") << where;
        }
        EXPECT_EQ(got.error, want.error) << where;
        EXPECT_EQ(got.result.delay, want.result.delay) << where;
        EXPECT_EQ(got.result.output_slew, want.result.output_slew) << where;
        EXPECT_EQ(got.result.node_count, want.result.node_count) << where;
      }
    }
  }
}

// signoff_link ends each polarity lane at its last victim crossing
// (docs/kernels.md, "Early exit"). Per polarity, a reference run given
// the same four crossings stops early and still measures the full
// window's delay and slew bits; and signoff_link equals the full-window
// oracle, on inverter chains of odd and even length and on buffers.
TEST_F(StaFixture, EarlyExitSignoffEqualsTheFullWindowOnOddAndEvenChains) {
  for (const DesignStyle style : {DesignStyle::SingleSpacing, DesignStyle::Shielded}) {
    for (const CellKind kind : {CellKind::Inverter, CellKind::Buffer}) {
      for (const int repeaters : {1, 2}) {
        LinkContext ctx = short_link(style);
        ctx.length = 0.6 * mm * repeaters;
        LinkDesign d;
        d.kind = kind;
        d.drive = 16;
        d.num_repeaters = repeaters;
        const SignoffOptions opt;
        const std::string where = std::string(design_style_name(style)) + " kind " +
                                  std::to_string(static_cast<int>(kind)) + " repeaters " +
                                  std::to_string(repeaters);
        const TransientOptions sim = signoff_window(*tech_, ctx, d, opt);
        const bool inverted = kind == CellKind::Inverter && repeaters % 2 == 1;
        for (const bool rising : {true, false}) {
          const LinkNetlist net = build_link_netlist(*tech_, ctx, d, opt, rising);
          const std::vector<NodeId> probes = {net.victim_in, net.victim_out};
          const EdgeKind in_edge = rising ? EdgeKind::Rising : EdgeKind::Falling;
          const EdgeKind out_edge = rising != inverted ? EdgeKind::Rising : EdgeKind::Falling;
          const TransientResult full = run_transient_reference(net.circuit, sim, probes);
          const TransientResult stopped = run_transient_reference(
              net.circuit, sim, probes,
              timing_crossings(net.victim_in, in_edge, net.victim_out, out_edge, tech_->vdd));
          EXPECT_LT(stopped.time.size(), full.time.size()) << where << " rising " << rising;
          EXPECT_EQ(delay_50(stopped.time, stopped.trace(net.victim_in), in_edge,
                             stopped.trace(net.victim_out), out_edge, tech_->vdd),
                    delay_50(full.time, full.trace(net.victim_in), in_edge,
                             full.trace(net.victim_out), out_edge, tech_->vdd))
              << where << " rising " << rising;
          EXPECT_EQ(measure_slew(stopped.time, stopped.trace(net.victim_out), out_edge,
                                 tech_->vdd),
                    measure_slew(full.time, full.trace(net.victim_out), out_edge, tech_->vdd))
              << where << " rising " << rising;
        }

        obs::registry().reset();
        obs::set_enabled(true);
        const SignoffResult got = signoff_link(*tech_, ctx, d, opt);
        const int64_t stopped_lanes =
            obs::registry().counter("spice.transient.stopped").value();
        obs::set_enabled(false);
        obs::registry().reset();
        const SignoffResult want = reference_signoff(*tech_, ctx, d, opt);
        EXPECT_EQ(stopped_lanes, 2) << where;
        EXPECT_EQ(got.delay, want.delay) << where;
        EXPECT_EQ(got.output_slew, want.output_slew) << where;
        EXPECT_EQ(got.node_count, want.node_count) << where;
      }
    }
  }
}

// The Table II property (relaxed bound): proposed within 20 % of golden
// sign-off while Bakoglu errs far more on coupled wiring.
TEST_F(StaFixture, ProposedTracksSignoffBaselinesDoNot) {
  const BakogluModel bak(*tech_);
  LinkDesign d;
  d.drive = 16;
  for (const double len_mm : {1.0, 4.0}) {
    for (const DesignStyle style : {DesignStyle::SingleSpacing, DesignStyle::Shielded}) {
      LinkContext ctx = short_link(style);
      ctx.length = len_mm * mm;
      d.num_repeaters = std::max(1, static_cast<int>(len_mm));
      const double golden = signoff_link(*tech_, ctx, d).delay;
      const double prop = model_->evaluate(ctx, d).delay;
      const double bako = bak.evaluate(ctx, d).delay;
      EXPECT_NEAR(prop, golden, 0.20 * golden)
          << "len=" << len_mm << " style=" << design_style_name(style);
      if (style == DesignStyle::SingleSpacing) {
        // Coupling-blind baseline misses badly on coupled wires.
        EXPECT_GT(std::fabs(bako - golden), 0.25 * golden);
      }
    }
  }
}

TEST_F(StaFixture, GoldenSlewTrackedByModel) {
  LinkContext ctx = short_link(DesignStyle::SingleSpacing);
  ctx.length = 4 * mm;
  LinkDesign d;
  d.drive = 16;
  d.num_repeaters = 4;
  const SignoffResult g = signoff_link(*tech_, ctx, d);
  const LinkEstimate e = model_->evaluate(ctx, d);
  EXPECT_NEAR(e.output_slew, g.output_slew, 0.5 * g.output_slew);
}

// ----------------------------------------------------------------- AWE

// Two-pole threshold delay of a uniform pi-ladder (half a section's
// capacitance at each end) driven through `driver_res`.
double ladder_delay(double driver_res, double wire_res, double wire_cap, double load_cap,
                    int sections, double threshold = 0.5) {
  RcTree tree(0.5 * wire_cap / sections);
  int node = 0;
  for (int k = 0; k < sections; ++k) {
    const double cap =
        (k + 1 < sections) ? wire_cap / sections : 0.5 * wire_cap / sections + load_cap;
    node = tree.add_node(node, wire_res / sections, cap);
  }
  const RcTree::Moments m = tree.moments(node, driver_res);
  return two_pole_delay(m.m1, m.m2, threshold);
}

TEST(Awe, TreeElmoreMatchesLadderFormula) {
  // Uniform N-section ladder: tree m1 must equal the closed-form Elmore
  // R C (N+1)/(2N) + R C_load plus the driver term R_drv * C_total.
  const double r = 500.0, c = 200 * fF, cl = 30 * fF, rd = 120.0;
  const int n = 8;
  RcTree tree(0.0);
  int node = 0;
  for (int k = 0; k < n; ++k)
    node = tree.add_node(node, r / n, c / n + (k + 1 == n ? cl : 0.0));
  const double expected = r * c * (n + 1) / (2.0 * n) + r * cl + rd * (c + cl);
  EXPECT_NEAR(tree.moments(node, rd).m1, expected, 1e-18);
}

TEST(Awe, TwoPoleMatchesTransientOnDrivenLine) {
  // Same configuration the engine was validated on (Sakurai check):
  // Rd = 105 ohm driving a distributed (220 ohm, 514 fF) line + 22 fF.
  const double d = ladder_delay(105.0, 220.0, 514 * fF, 22 * fF, 20);
  // Golden transient measured ~87 ps for this line (driven by a fast
  // ramp); AWE two-pole should land within a few percent.
  EXPECT_NEAR(d, 87.0 * ps, 6.0 * ps);
}

TEST(Awe, SinglePoleExactForRc) {
  // One R, one C: m1 = RC, m2 = (RC)^2 -> b2 = 0 -> single-pole fallback
  // gives exactly RC ln 2.
  RcTree tree(0.0);
  const int node = tree.add_node(0, 1000.0, 1 * pF);
  const auto m = tree.moments(node, 0.0);
  EXPECT_NEAR(m.m1, 1 * ns, 1e-15);
  const double d = two_pole_delay(m.m1, m.m2, 0.5);
  EXPECT_NEAR(d, std::log(2.0) * ns, 0.01 * ns);
}

TEST(Awe, ThresholdMonotone) {
  const double d20 = ladder_delay(100.0, 300.0, 400 * fF, 10 * fF, 10, 0.2);
  const double d50 = ladder_delay(100.0, 300.0, 400 * fF, 10 * fF, 10, 0.5);
  const double d80 = ladder_delay(100.0, 300.0, 400 * fF, 10 * fF, 10, 0.8);
  EXPECT_LT(d20, d50);
  EXPECT_LT(d50, d80);
}

TEST(Awe, ValidationErrors) {
  RcTree tree(0.0);
  EXPECT_THROW(tree.add_node(5, 1.0, 0.0), Error);
  EXPECT_THROW(tree.add_node(0, -1.0, 0.0), Error);
  EXPECT_THROW(two_pole_delay(-1.0, 1.0, 0.5), Error);
  EXPECT_THROW(two_pole_delay(1.0, 1.0, 1.5), Error);
}

// Property: on random RC trees, the two-pole AWE delay tracks the full
// transient simulation — cross-validating the moment computation, the
// Pade match, AND the transient engine against each other.
class AweRandomTree : public ::testing::TestWithParam<int> {};

TEST_P(AweRandomTree, TwoPoleTracksTransient) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729 + 17);
  const int extra_nodes = 4 + static_cast<int>(rng.next_below(12));
  const double r_drv = rng.uniform(50.0, 400.0);

  // Grow the tree and its mirror circuit together, root first.
  const double root_cap = rng.uniform(1.0, 20.0) * fF;
  RcTree tree(root_cap);
  Circuit ckt;
  const NodeId in = ckt.add_node();
  ckt.add_vsource(in, Waveform::ramp(0.0, 1.0, 0.0, 1.0 * ps));
  std::vector<NodeId> ckt_node = {ckt.add_node()};
  ckt.add_resistor(in, ckt_node[0], r_drv);
  ckt.add_capacitor(ckt_node[0], ckt.ground(), root_cap);
  std::vector<int> tree_ids = {0};
  int deepest_tree = 0;
  NodeId deepest_ckt = ckt_node[0];
  // Even seeds: random chains (the two-pole match is tight there).
  // Odd seeds: random branchy trees, where Pade(0,2) has no zeros to
  // match and is known to be pessimistic — checked with a loose bound.
  const bool branchy = (GetParam() % 2) == 1;
  for (int k = 0; k < extra_nodes; ++k) {
    const size_t parent = branchy ? rng.next_below(tree_ids.size()) : tree_ids.size() - 1;
    const double r = rng.uniform(50.0, 500.0);
    const double c = rng.uniform(5.0, 80.0) * fF;
    const int t = tree.add_node(tree_ids[parent], r, c);
    const NodeId n = ckt.add_node();
    ckt.add_resistor(ckt_node[parent], n, r);
    ckt.add_capacitor(n, ckt.ground(), c);
    tree_ids.push_back(t);
    ckt_node.push_back(n);
    deepest_tree = t;
    deepest_ckt = n;
  }

  const RcTree::Moments m = tree.moments(deepest_tree, r_drv);
  const double awe = two_pole_delay(m.m1, m.m2, 0.5);

  TransientOptions sim;
  sim.dt = std::max(0.05 * ps, awe / 2000.0);
  sim.t_stop = 10.0 * awe + 20.0 * ps;
  const TransientResult res = run_transient(ckt, sim, {deepest_ckt});
  const double golden =
      crossing_time(res.time, res.trace(deepest_ckt), 0.5, EdgeKind::Rising) - 0.5 * ps;

  if (branchy) {
    // No zeros in the Pade(0,2) match: far nodes on branchy trees read
    // pessimistic. The property that matters is bounded, never-optimistic
    // behavior.
    EXPECT_GE(awe, 0.85 * golden) << "seed " << GetParam();
    EXPECT_LE(awe, 2.5 * golden) << "seed " << GetParam();
  } else {
    EXPECT_NEAR(awe, golden, 0.12 * golden + 0.5 * ps) << "seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AweRandomTree, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ----------------------------------------------------------- NLDM timer

TEST_F(StaFixture, NldmTimerTracksGolden) {
  // Characterize the exact cell the timer will look up.
  CharacterizationOptions copt;
  copt.drives = {8};
  copt.buffers = false;
  const CellLibrary lib = characterize_library(*tech_, copt);

  LinkContext ctx = short_link(DesignStyle::SingleSpacing);
  ctx.length = 2 * mm;
  LinkDesign d;
  d.drive = 8;
  d.num_repeaters = 2;
  const NldmTimerResult timed = nldm_link_delay(lib, *tech_, ctx, d);
  const double golden = signoff_link(*tech_, ctx, d).delay;
  EXPECT_NEAR(timed.delay, golden, 0.35 * golden);
  EXPECT_GT(timed.output_slew, 0.0);

  // The scaled-Elmore flavor lands close to the two-pole match on
  // repeatered (short-segment) wires.
  NldmTimerOptions elm;
  elm.wire = WireDelayMethod::Elmore;
  EXPECT_NEAR(nldm_link_delay(lib, *tech_, ctx, d, elm).delay, timed.delay,
              0.15 * timed.delay);

  // Missing drive strength: tables cannot extrapolate.
  LinkDesign missing = d;
  missing.drive = 64;
  EXPECT_THROW(nldm_link_delay(lib, *tech_, ctx, missing), Error);
}

// ---------------------------------------------------------------- noise

TEST_F(StaFixture, NoiseGrowsWithSegmentLength) {
  LinkDesign d;
  d.drive = 12;
  d.num_repeaters = 1;
  double prev_golden = 0.0;
  double prev_model = 0.0;
  for (double seg_mm : {0.4, 1.0, 2.0}) {
    LinkContext ctx = short_link(DesignStyle::SingleSpacing);
    ctx.length = seg_mm * mm;
    const double g = golden_noise_peak(*tech_, ctx, d);
    const double m = noise_peak_model(*tech_, *fit_, ctx, d);
    EXPECT_GT(g, prev_golden);
    EXPECT_GT(m, prev_model);
    prev_golden = g;
    prev_model = m;
  }
  // Glitches on minimum-pitch wiring are a sizable fraction of vdd.
  EXPECT_GT(prev_golden, 0.1 * tech_->vdd);
  EXPECT_LT(prev_golden, 0.5 * tech_->vdd);
}

TEST_F(StaFixture, ShieldingKillsNoise) {
  LinkContext ctx = short_link(DesignStyle::Shielded);
  ctx.length = 1.0 * mm;
  LinkDesign d;
  d.drive = 12;
  d.num_repeaters = 1;
  EXPECT_DOUBLE_EQ(noise_peak_model(*tech_, *fit_, ctx, d), 0.0);
  // Golden: no neighbors exist at all in the shielded bundle.
  EXPECT_LT(golden_noise_peak(*tech_, ctx, d), 0.02 * tech_->vdd);
}

TEST_F(StaFixture, NoiseCalibrationTracksGolden) {
  const NoiseCalibration cal = calibrate_noise(*tech_, *fit_);
  EXPECT_GT(cal.kappa_n, 0.3);
  EXPECT_LT(cal.kappa_n, 1.5);
  EXPECT_LT(cal.worst_rel_error, 0.4);
  // Off-training point.
  LinkContext ctx = short_link(DesignStyle::SingleSpacing);
  ctx.length = 1.3 * mm;
  LinkDesign d;
  d.drive = 12;
  d.num_repeaters = 1;
  const double g = golden_noise_peak(*tech_, ctx, d);
  const double m = noise_peak_model(*tech_, *fit_, ctx, d, cal.kappa_n);
  EXPECT_NEAR(m, g, 0.3 * g);
}

TEST_F(StaFixture, NoisePerSegmentOnly) {
  LinkContext ctx = short_link(DesignStyle::SingleSpacing);
  LinkDesign d;
  d.num_repeaters = 3;
  EXPECT_THROW(golden_noise_peak(*tech_, ctx, d), Error);
}

TEST_F(StaFixture, StrongerHolderReducesNoise) {
  LinkContext ctx = short_link(DesignStyle::SingleSpacing);
  ctx.length = 1.0 * mm;
  LinkDesign weak;
  weak.drive = 4;
  weak.num_repeaters = 1;
  LinkDesign strong = weak;
  strong.drive = 32;
  EXPECT_LT(golden_noise_peak(*tech_, ctx, strong), golden_noise_peak(*tech_, ctx, weak));
  EXPECT_LT(noise_peak_model(*tech_, *fit_, ctx, strong),
            noise_peak_model(*tech_, *fit_, ctx, weak));
}

// ---------------------------------------------------- coefficient files

TEST_F(StaFixture, CoeffsRoundTripExactly) {
  const TechnologyFit r = parse_fit(write_fit(*fit_));
  EXPECT_EQ(r.node, fit_->node);
  EXPECT_DOUBLE_EQ(r.vdd, fit_->vdd);
  EXPECT_DOUBLE_EQ(r.gamma, fit_->gamma);
  EXPECT_DOUBLE_EQ(r.comp_coupled.kappa_c, fit_->comp_coupled.kappa_c);
  EXPECT_DOUBLE_EQ(r.comp_shielded.kappa_w, fit_->comp_shielded.kappa_w);
  EXPECT_DOUBLE_EQ(r.comp_shielded.worst_rel_error, fit_->comp_shielded.worst_rel_error);
  EXPECT_DOUBLE_EQ(r.inv_rise.rho0, fit_->inv_rise.rho0);
  EXPECT_DOUBLE_EQ(r.inv_fall.b2, fit_->inv_fall.b2);
  EXPECT_DOUBLE_EQ(r.buf_rise.a2, fit_->buf_rise.a2);
  EXPECT_DOUBLE_EQ(r.leakage.p1, fit_->leakage.p1);
  EXPECT_DOUBLE_EQ(r.area1, fit_->area1);
}

TEST_F(StaFixture, CoeffsRejectMalformedInput) {
  EXPECT_THROW(parse_fit(""), Error);
  EXPECT_THROW(parse_fit("coefficients \"65nm\" {\n vdd 1\n"), Error);
  std::string text = write_fit(*fit_);
  const size_t pos = text.find("gamma");
  text.erase(pos, text.find('\n', pos) - pos + 1);
  EXPECT_THROW(parse_fit(text), Error);
}

TEST_F(StaFixture, CalibratedFitCacheHitsAndValidates) {
  const std::string path = testing::TempDir() + "/pim_fit_cache.coeffs";
  save_fit(*fit_, path);
  // Cache hit: returns without re-characterizing (instant).
  const TechnologyFit cached = calibrated_fit(*tech_, Corner{}, path);
  EXPECT_DOUBLE_EQ(cached.gamma, fit_->gamma);
  std::remove(path.c_str());
}

// The resident tier over a hand-built 65nm fit in a scratch coefficient
// file, under a scratch read-write cache: nothing characterizes, and
// every test starts with an empty tier and counting enabled.
class ResidentModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "pim_resident_model_" + std::to_string(::getpid());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    cache::set_dir(dir_ + "/cache");
    cache::set_mode(cache::Mode::ReadWrite);
    clear_resident_fits();
    obs::set_enabled(true);
    path_ = dir_ + "/coeffs.pimfit";
    save_fit(synthetic_fit(tech_), path_);
  }
  void TearDown() override {
    obs::set_enabled(false);
    clear_resident_fits();
    cache::reset_mode();
    cache::set_dir("");
    std::filesystem::remove_all(dir_);
  }
  std::shared_ptr<const ProposedModel> resolve() const {
    return resident_model(tech_, Corner{}, path_);
  }
  static int64_t hits() { return obs::registry().counter("model.resident.hit").value(); }
  // Writes the fixture's fit with kappa_c_coupled set to `kappa_c` to
  // `path`, replacing any file there.
  void write_edited(const std::string& path, double kappa_c) const {
    TechnologyFit fit = load_fit(path_);
    fit.comp_coupled.kappa_c = kappa_c;
    save_fit(fit, path);
  }
  // The fit a fresh tier resolves from `path`, as .pimfit bytes.
  std::string fresh_fit(const std::string& path) const {
    clear_resident_fits();
    return write_fit(resident_model(tech_, Corner{}, path)->fit());
  }

  const Technology& tech_ = technology(TechNode::N65);
  std::string dir_;
  std::string path_;
};

TEST_F(ResidentModelTest, ConcurrentColdMissesShareTheFirstInsert) {
  constexpr int kThreads = 4;
  const int64_t before = hits();
  std::vector<std::shared_ptr<const ProposedModel>> got(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i)
    threads.emplace_back([&, i] { got[i] = resolve(); });
  for (std::thread& t : threads) t.join();
  // Racing misses each build a model, but only the first insert is kept
  // and returned; the calls that found it count one hit each.
  for (const auto& model : got) {
    ASSERT_NE(model, nullptr);
    EXPECT_EQ(model, got[0]);
  }
  const int64_t racing_hits = hits() - before;
  EXPECT_GE(racing_hits, 0);
  EXPECT_LT(racing_hits, kThreads);
  EXPECT_EQ(write_fit(got[0]->fit()), write_fit(load_fit(path_)));

  // Every call after the first insert is a hit on that same instance.
  for (int i = 1; i <= 3; ++i) {
    EXPECT_EQ(resolve(), got[0]);
    EXPECT_EQ(hits() - before, racing_hits + i);
  }
}

// Two descriptors that resolve one coefficient file share coefficients
// but not fit keys. Each model carries the key it was built from, so a
// cached search on the first records the first's fit as its upstream
// edge, whichever model was resolved last.
TEST_F(ResidentModelTest, CachedSearchRecordsItsOwnModelsFitKey) {
  Technology edited = tech_;
  edited.clock_frequency *= 0.5;
  const std::string tech_path = dir_ + "/edited.tech";
  save_techfile(edited, tech_path);
  const auto resolve_keyed = [&](const Technology& base) {
    const cache::Tracked scope;
    std::shared_ptr<const ProposedModel> model = resident_model(base, Corner{}, path_);
    EXPECT_EQ(scope.upstream_keys().size(), 1u);
    return std::make_pair(model, scope.upstream_keys().at(0));
  };
  const auto [first, first_key] = resolve_keyed(tech_);
  const auto [second, second_key] = resolve_keyed(technology_from_spec(tech_path));
  ASSERT_NE(first_key.hex, second_key.hex);
  EXPECT_EQ(write_fit(first->fit()), write_fit(second->fit()));

  LinkContext ctx;
  ctx.length = 3 * mm;
  ctx.input_slew = 100 * ps;
  ctx.frequency = tech_.clock_frequency;
  cache::CacheKey buffering_key;
  {
    const cache::Tracked scope;
    (void)optimize_buffering_cached(*first, ctx, BufferingOptions{});
    ASSERT_EQ(scope.upstream_keys().size(), 1u);
    buffering_key = scope.upstream_keys()[0];
  }
  const std::vector<cache::Manifest> manifests = cache::scan_manifests(dir_ + "/cache");
  const cache::Manifest* manifest = nullptr;
  for (const cache::Manifest& m : manifests)
    if (m.key.hex == buffering_key.hex) manifest = &m;
  ASSERT_NE(manifest, nullptr);
  ASSERT_EQ(manifest->upstream.size(), 1u);
  EXPECT_EQ(manifest->upstream[0].hex, first_key.hex);
}

// A coefficient file that differs from the one an entry was resolved
// from is never answered by that entry: a second path, an in-place
// rewrite that changes the size, and a same-size rewrite whose mtime
// moved each resolve what a fresh tier resolves.
TEST_F(ResidentModelTest, SecondCoefficientFileIsNotServedTheFirstFit) {
  const std::shared_ptr<const ProposedModel> first = resolve();
  const std::string edited = dir_ + "/edited.pimfit";
  write_edited(edited, 2.5);
  const std::string got = write_fit(resident_model(tech_, Corner{}, edited)->fit());
  EXPECT_NE(got, write_fit(first->fit()));
  EXPECT_EQ(got, fresh_fit(edited));
}

TEST_F(ResidentModelTest, RewriteThatChangesTheSizeIsAMiss) {
  const std::shared_ptr<const ProposedModel> before = resolve();
  const auto size = std::filesystem::file_size(path_);
  write_edited(path_, 2.5);
  ASSERT_NE(std::filesystem::file_size(path_), size);
  const std::string got = write_fit(resolve()->fit());
  EXPECT_NE(got, write_fit(before->fit()));
  EXPECT_EQ(got, fresh_fit(path_));
}

TEST_F(ResidentModelTest, SameSizeRewriteWithANewerMtimeIsAMiss) {
  write_edited(path_, 2.5);
  const std::shared_ptr<const ProposedModel> before = resolve();
  const auto size = std::filesystem::file_size(path_);
  const auto mtime = std::filesystem::last_write_time(path_);
  write_edited(path_, 3.5);
  ASSERT_EQ(std::filesystem::file_size(path_), size);
  std::filesystem::last_write_time(path_, mtime + std::chrono::seconds(1));
  const std::string got = write_fit(resolve()->fit());
  EXPECT_NE(got, write_fit(before->fit()));
  EXPECT_EQ(got, fresh_fit(path_));
}

// Racing calls that all see a rewritten file each resolve it anew, but
// the tier keeps one replacement: every caller gets that instance, and
// the next call is a hit on it.
TEST_F(ResidentModelTest, ConcurrentCallsAfterARewriteShareOneReplacement) {
  constexpr int kThreads = 4;
  const std::shared_ptr<const ProposedModel> stale = resolve();
  const auto size = std::filesystem::file_size(path_);
  write_edited(path_, 2.5);
  ASSERT_NE(std::filesystem::file_size(path_), size);
  const std::string expected = write_fit(load_fit(path_));
  std::vector<std::shared_ptr<const ProposedModel>> got(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i)
    threads.emplace_back([&, i] { got[i] = resolve(); });
  for (std::thread& t : threads) t.join();
  for (const auto& model : got) {
    ASSERT_NE(model, nullptr);
    EXPECT_EQ(write_fit(model->fit()), expected);
    EXPECT_EQ(model, got[0]);
  }
  EXPECT_NE(got[0], stale);
  const int64_t before = hits();
  EXPECT_EQ(resolve(), got[0]);
  EXPECT_EQ(hits(), before + 1);
}

// A server warmed by loading a coefficient file answers requests that
// name no file from that entry instead of refitting.
TEST_F(ResidentModelTest, CallNamingNoFileIsServedTheFileResolvedEntry) {
  const std::shared_ptr<const ProposedModel> from_file = resolve();
  const int64_t before = hits();
  EXPECT_EQ(resident_model(tech_, Corner{}), from_file);
  EXPECT_EQ(hits(), before + 1);
}

// A warm hit comes from the hit memo and builds no fit key: neither a
// file-tier hit, which stats its file again, nor a call that names no
// file allocates.
TEST_F(ResidentModelTest, WarmHitMakesNoAllocation) {
  const std::shared_ptr<const ProposedModel> model = resolve();
  ASSERT_EQ(resolve(), model);
  ASSERT_EQ(resident_model(tech_, Corner{}), model);
  const Corner nominal;
  const int64_t before = heap_allocations();
  for (int i = 0; i < 50; ++i) {
    (void)resident_model(tech_, nominal, path_);
    (void)resident_model(tech_, nominal);
  }
  EXPECT_EQ(heap_allocations() - before, 0);
}

// A memo hit keeps every side effect of a resident hit: both hit counters
// and the fit key published into the enclosing provenance scope.
TEST_F(ResidentModelTest, MemoHitCountsAndPublishesLikeAResidentHit) {
  const std::shared_ptr<const ProposedModel> model = resolve();
  (void)resolve();
  obs::Counter& corner_hits = obs::registry().counter("corner.nominal.fit.hit");
  const int64_t before = hits();
  const int64_t corner_before = corner_hits.value();
  const cache::Tracked scope;
  EXPECT_EQ(resolve(), model);
  EXPECT_EQ(hits(), before + 1);
  EXPECT_EQ(corner_hits.value(), corner_before + 1);
  EXPECT_TRUE(scope.facets().empty());
  ASSERT_EQ(scope.upstream_keys().size(), 1u);
  ASSERT_EQ(model->provenance().size(), 1u);
  EXPECT_EQ(scope.upstream_keys()[0].hex, model->provenance()[0].hex);
}

// The memo's identity is the request's: a descriptor with the same
// content (a copy) shares the entry, one with other content or other
// deck options never does.
TEST_F(ResidentModelTest, MemoIdentityIsContentCornerPathAndOptions) {
  const std::shared_ptr<const ProposedModel> model = resolve();
  const Technology copy = tech_;
  EXPECT_EQ(resident_model(copy, Corner{}, path_), model);
  Technology faster = tech_;
  faster.vdd *= 1.1;
  const std::shared_ptr<const ProposedModel> other =
      resident_model(faster, Corner{}, path_);
  EXPECT_NE(other, model);
  EXPECT_EQ(other->tech().vdd, faster.vdd);
  EXPECT_EQ(resident_model(faster, Corner{}, path_), other);
  CharacterizationOptions copt;
  copt.dt_max *= 2;
  const std::shared_ptr<const ProposedModel> other_deck =
      resident_model(tech_, Corner{}, path_, copt);
  EXPECT_NE(other_deck, model);
  EXPECT_EQ(resident_model(tech_, Corner{}, path_, copt), other_deck);
  EXPECT_EQ(resolve(), model);
}

// Replacing a resident entry drops the memo: a call naming no file, which
// the memo answered from the file's entry, is answered from the
// replacement after the file is rewritten.
TEST_F(ResidentModelTest, ReplacingAnEntryDropsTheMemo) {
  const std::shared_ptr<const ProposedModel> from_file = resolve();
  ASSERT_EQ(resident_model(tech_, Corner{}), from_file);
  ASSERT_EQ(resident_model(tech_, Corner{}), from_file);
  const auto size = std::filesystem::file_size(path_);
  write_edited(path_, 2.5);
  ASSERT_NE(std::filesystem::file_size(path_), size);
  const std::shared_ptr<const ProposedModel> replaced = resolve();
  EXPECT_NE(replaced, from_file);
  EXPECT_EQ(resident_model(tech_, Corner{}), replaced);
}

// Warm hits race a rewrite of their coefficient file and repeated drops
// of the whole tier. Every answer is the old file's or the new one's, and
// every call that starts after the rewrite landed answers the new one.
// ThreadSanitizer builds (scripts/check_tsan.sh) run it much longer.
TEST_F(ResidentModelTest, HitsRacingARewriteAndClearsSeeTheOldOrTheNewFile) {
#if defined(__SANITIZE_THREAD__)
  constexpr int kRounds = 20000;
#else
  constexpr int kRounds = 1000;
#endif
  constexpr int kReaders = 4;
  constexpr double kNewKappa = 2.5;
  const double old_kappa = resolve()->fit().comp_coupled.kappa_c;
  ASSERT_NE(old_kappa, kNewKappa);
  std::atomic<int> started{0};
  std::atomic<bool> landed{false};
  std::atomic<bool> readers_done{false};
  std::atomic<int> foreign{0};
  std::atomic<int> stale{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kRounds; ++i) {
        if (i == kRounds / 4) started.fetch_add(1);
        const bool after = landed.load(std::memory_order_acquire);
        const double kappa = resolve()->fit().comp_coupled.kappa_c;
        if (kappa != old_kappa && kappa != kNewKappa) foreign.fetch_add(1);
        if (after && kappa != kNewKappa) stale.fetch_add(1);
      }
    });
  }
  threads.emplace_back([&] {
    // Rewrite once the readers are well into their rounds, atomically, so
    // a reader sees the old bytes or the new ones and never a torn file.
    while (started.load() < kReaders) std::this_thread::yield();
    const std::string staged = dir_ + "/staged.pimfit";
    write_edited(staged, kNewKappa);
    std::filesystem::rename(staged, path_);
    landed.store(true, std::memory_order_release);
  });
  threads.emplace_back([&] {
    while (!readers_done.load()) {
      clear_resident_fits();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  for (int t = 0; t < kReaders + 1; ++t) threads[t].join();
  readers_done.store(true);
  threads.back().join();
  EXPECT_EQ(foreign.load(), 0);
  EXPECT_EQ(stale.load(), 0);
  EXPECT_TRUE(landed.load());
  EXPECT_EQ(resolve()->fit().comp_coupled.kappa_c, kNewKappa);
}

TEST_F(ResidentModelTest, CacheOffBypassesTheTier) {
  cache::set_mode(cache::Mode::Off);
  const int64_t before = hits();
  const std::shared_ptr<const ProposedModel> first = resolve();
  const std::shared_ptr<const ProposedModel> second = resolve();
  EXPECT_NE(first, second);
  EXPECT_EQ(write_fit(first->fit()), write_fit(second->fit()));
  EXPECT_EQ(hits(), before);
}

}  // namespace
}  // namespace pim
