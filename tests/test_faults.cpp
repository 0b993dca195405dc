// Fault-injection matrix: arms each site of the deterministic harness
// (util/faultinject) and asserts both the failure surface (typed errors
// with the right codes) and the recovery guardrails — transient timestep
// halving, LU equilibration, Monte-Carlo sample skipping, charlib sweep
// degradation, and the cosi mesh fallback.
//
// Every test disarms the harness on entry and exit via the fixture so
// injection state never leaks between cases.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <string_view>
#include <thread>
#include <vector>

#include "charlib/characterize.hpp"
#include "cosi/mesh.hpp"
#include "cosi/synthesis.hpp"
#include "models/baseline.hpp"
#include "models/proposed.hpp"
#include "numeric/lu.hpp"
#include "obs/metrics.hpp"
#include "spice/measure.hpp"
#include "spice/transient.hpp"
#include "tech/technology.hpp"
#include "util/alloc_counter.hpp"
#include "util/error.hpp"
#include "util/faultinject.hpp"
#include "util/units.hpp"
#include "variation/variation.hpp"

namespace pim {
namespace {

using namespace pim::unit;

class FaultFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::clear();
    obs::registry().reset();
    obs::set_enabled(true);
  }
  void TearDown() override {
    fault::clear();
    obs::set_enabled(false);
    obs::registry().reset();
  }
};

// ------------------------------------------------------------------ rc

// The canonical RC step-response circuit from test_spice: linear, so any
// Newton failure below is the harness's doing.
TransientResult run_rc(const TransientOptions& opt, NodeId* out_node) {
  Circuit c;
  const NodeId in = c.add_node("in");
  const NodeId out = c.add_node("out");
  c.add_vsource(in, Waveform::ramp(0.0, 1.0, 0.0, 1.0 * ps));
  c.add_resistor(in, out, 1.0 * kohm);
  c.add_capacitor(out, c.ground(), 1.0 * pF);
  if (out_node != nullptr) *out_node = out;
  return run_transient(c, opt, {out});
}

TEST_F(FaultFixture, NewtonAlwaysDivergingExhaustsHalvings) {
  fault::configure("newton.diverge:1");
  TransientOptions opt;
  opt.t_stop = 0.1 * ns;
  try {
    run_rc(opt, nullptr);
    FAIL() << "expected no_convergence";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::no_convergence);
    EXPECT_NE(std::string(e.what()).find("halvings"), std::string::npos);
  }
  EXPECT_GT(fault::fired_count(fault::kNewtonDiverge), 0);
  EXPECT_GT(obs::registry().counter("spice.transient.error").value(), 0);
}

TEST_F(FaultFixture, TimestepHalvingRecoversSporadicDivergence) {
  TransientOptions opt;
  opt.t_stop = 4.0 * ns;
  opt.dt = 1.0 * ps;
  NodeId out = 0;
  const TransientResult clean = run_rc(opt, &out);
  const double t50_clean =
      crossing_time(clean.time, clean.trace(out), 0.5, EdgeKind::Rising);

  fault::configure("newton.diverge:0.02:3");
  const TransientResult faulty = run_rc(opt, &out);
  EXPECT_GT(fault::fired_count(fault::kNewtonDiverge), 0);
  EXPECT_GT(obs::registry().counter("spice.newton.retries").value(), 0);
  for (double v : faulty.trace(out)) ASSERT_TRUE(std::isfinite(v));
  // The halved re-steps must not disturb the solution: same RC answer.
  const double t50_faulty =
      crossing_time(faulty.time, faulty.trace(out), 0.5, EdgeKind::Rising);
  EXPECT_NEAR(t50_faulty, t50_clean, 0.02 * t50_clean);
}

TEST_F(FaultFixture, SingularSolverInTransientRetriesAtSmallerStep) {
  TransientOptions opt;
  opt.t_stop = 4.0 * ns;
  opt.dt = 1.0 * ps;
  fault::configure("lu.singular:0.05:7");
  NodeId out = 0;
  const TransientResult res = run_rc(opt, &out);
  EXPECT_GT(fault::fired_count(fault::kLuSingular), 0);
  EXPECT_GT(obs::registry().counter("spice.solver.singular").value(), 0);
  EXPECT_GT(obs::registry().counter("numeric.lu.error").value(), 0);
  const double t50 = crossing_time(res.time, res.trace(out), 0.5, EdgeKind::Rising);
  EXPECT_NEAR(t50, 1.0 * ns * std::log(2.0), 0.03 * ns);
}

// ------------------------------------------------------------------ lu

TEST_F(FaultFixture, LuInjectionIsDeterministicPerSeed) {
  Matrix a(3, 3);
  a(0, 0) = 4.0; a(0, 1) = 1.0; a(0, 2) = 0.0;
  a(1, 0) = 1.0; a(1, 1) = 3.0; a(1, 2) = 1.0;
  a(2, 0) = 0.0; a(2, 1) = 1.0; a(2, 2) = 2.0;

  auto run_pattern = [&] {
    std::vector<bool> failed;
    for (int i = 0; i < 40; ++i)
      failed.push_back(!LuDecomposition::create(a).ok());
    return failed;
  };
  fault::configure("lu.singular:0.5:42");
  const std::vector<bool> first = run_pattern();
  const int64_t fired_first = fault::fired_count(fault::kLuSingular);
  fault::configure("lu.singular:0.5:42");
  EXPECT_EQ(run_pattern(), first);
  EXPECT_EQ(fault::fired_count(fault::kLuSingular), fired_first);
  EXPECT_GT(fired_first, 0);
  // fault counter mirrors fired_count when metrics are on.
  EXPECT_EQ(obs::registry().counter("fault.lu.singular.injected").value(),
            2 * fired_first);
}

TEST_F(FaultFixture, LuEquilibrationRescuesSingleFire) {
  Matrix a(2, 2);
  a(0, 0) = 2.0; a(0, 1) = 1.0;
  a(1, 0) = 1.0; a(1, 1) = 3.0;
  const Vector b = {5.0, 10.0};

  // p = 0.5: some creates fire on the first attempt only, so the
  // equilibrated retry must rescue them and still solve correctly.
  fault::configure("lu.singular:0.5:9");
  int recovered = 0;
  int errored = 0;
  for (int i = 0; i < 60; ++i) {
    const Expected<LuDecomposition> lu = LuDecomposition::create(a);
    if (!lu.ok()) {
      ++errored;
      EXPECT_EQ(lu.error().code(), ErrorCode::singular_matrix);
      EXPECT_NE(std::string(lu.error().what()).find("[injected]"),
                std::string::npos);
      continue;
    }
    if (lu.value().equilibrated()) ++recovered;
    const Vector x = lu.value().solve(b);
    EXPECT_NEAR(x[0], 1.0, 1e-9);
    EXPECT_NEAR(x[1], 3.0, 1e-9);
  }
  EXPECT_GT(recovered, 0);  // fired once, rescued
  EXPECT_GT(errored, 0);    // fired twice, surfaced
  EXPECT_EQ(obs::registry().counter("numeric.lu.recovered").value(), recovered);
  EXPECT_GE(obs::registry().counter("numeric.lu.error").value(), errored);
}

// ----------------------------------------------------------- variation

// A hand-filled fit with representative magnitudes: the MC tests only
// need the closed-form evaluation to produce finite positive numbers,
// not to match a real technology.
TechnologyFit synthetic_fit(const Technology& tech) {
  TechnologyFit fit;
  fit.node = tech.node;
  fit.vdd = tech.vdd;
  RepeaterEdgeFit e;
  e.a0 = 5e-12;
  e.a1 = 0.05;
  e.rho0 = 2e-3;
  e.rho1 = 1e6;
  e.b0 = 2e-12;
  e.b1 = 0.3;
  e.b2 = 5e-4;
  fit.inv_rise = fit.inv_fall = fit.buf_rise = fit.buf_fall = e;
  fit.gamma = 7e-10;
  fit.leakage.n0 = fit.leakage.p0 = 1e-9;
  fit.leakage.n1 = fit.leakage.p1 = 1e-2;
  fit.area0 = 1e-12;
  fit.area1 = 1e-6;
  return fit;
}

TEST_F(FaultFixture, MonteCarloSkipsFailedSamples) {
  const Technology& tech = technology(TechNode::N65);
  const ProposedModel model(tech, synthetic_fit(tech));
  LinkContext ctx;
  ctx.length = 2 * mm;
  LinkDesign design;
  design.num_repeaters = 3;

  const MonteCarloResult clean = monte_carlo_link(model, ctx, design, 200, 5);
  EXPECT_EQ(clean.failed_samples, 0);
  ASSERT_EQ(clean.delays.size(), 200u);

  fault::configure("variation.sample:0.25:13");
  const MonteCarloResult mc = monte_carlo_link(model, ctx, design, 200, 5);
  EXPECT_GT(mc.failed_samples, 0);
  EXPECT_LT(mc.failed_samples, 200);
  EXPECT_EQ(mc.delays.size() + static_cast<size_t>(mc.failed_samples), 200u);
  EXPECT_EQ(obs::registry().counter("variation.sample.error").value(),
            mc.failed_samples);
  // Surviving statistics stay well-formed.
  EXPECT_TRUE(std::isfinite(mc.mean_delay));
  EXPECT_GT(mc.mean_delay, 0.0);
  EXPECT_TRUE(std::isfinite(mc.mean_power));

  // Exactly one draw per sample: the failure pattern is seed-deterministic.
  fault::configure("variation.sample:0.25:13");
  const MonteCarloResult again = monte_carlo_link(model, ctx, design, 200, 5);
  EXPECT_EQ(again.failed_samples, mc.failed_samples);

  fault::configure("variation.sample:1");
  EXPECT_THROW(monte_carlo_link(model, ctx, design, 50, 5), Error);
}

TEST_F(FaultFixture, WithinDieMonteCarloAlsoDegrades) {
  const Technology& tech = technology(TechNode::N65);
  const ProposedModel model(tech, synthetic_fit(tech));
  LinkContext ctx;
  ctx.length = 2 * mm;
  LinkDesign design;
  design.num_repeaters = 4;

  fault::configure("variation.sample:0.2:21");
  const MonteCarloResult mc = monte_carlo_link_within_die(model, ctx, design, 150, 5);
  EXPECT_GT(mc.failed_samples, 0);
  EXPECT_EQ(mc.delays.size() + static_cast<size_t>(mc.failed_samples), 150u);
}

// ------------------------------------------------------------- charlib

TEST_F(FaultFixture, CharacterizationQuorumFailureIsTyped) {
  fault::configure("newton.diverge:1");
  CharacterizationOptions opt;
  opt.slew_axis = {20 * ps, 100 * ps};
  opt.fanout_axis = {2.0, 8.0};
  try {
    characterize_cell(technology(TechNode::N65), CellKind::Inverter, 8, opt);
    FAIL() << "expected no_convergence";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::no_convergence);
  }
}

// ---------------------------------------------------------------- cosi

TEST_F(FaultFixture, InfeasibleSynthesisFallsBackToMesh) {
  SocSpec spec;
  spec.name = "tiny";
  spec.die_width = 4 * mm;
  spec.die_height = 4 * mm;
  spec.data_width = 32;
  spec.cores = {{"a", 0.5 * mm, 0.5 * mm, 0.5 * mm, 0.5 * mm},
                {"b", 3.5 * mm, 0.5 * mm, 0.5 * mm, 0.5 * mm},
                {"c", 2.0 * mm, 3.5 * mm, 0.5 * mm, 0.5 * mm}};
  spec.flows = {{0, 1, 2e9}, {1, 2, 1e9}, {0, 2, 0.5e9}};

  const BakogluModel model(technology(TechNode::N65));
  NocSynthesisOptions opt;
  opt.delay_budget_fraction = 1e-4;  // no wire length can meet this
  const NocSynthesisResult r = synthesize_noc(spec, model, opt);
  EXPECT_EQ(obs::registry().counter("cosi.synthesis.mesh_fallback").value(), 1);
  EXPECT_GT(obs::registry().counter("cosi.synthesis.error").value(), 0);
  EXPECT_GT(r.architecture.router_count(), 0);  // the mesh got built
}

// ------------------------------------------------------------ parsing

TEST_F(FaultFixture, SpecParsingRejectsGarbage) {
  try {
    fault::configure("lu.sungular:0.5");  // typo'd site
    FAIL() << "expected bad_input";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::bad_input);
  }
  EXPECT_THROW(fault::configure("lu.singular:1.5"), Error);   // prob > 1
  EXPECT_THROW(fault::configure("lu.singular:-0.1"), Error);  // prob < 0
  EXPECT_THROW(fault::configure("lu.singular:abc"), Error);
  EXPECT_THROW(fault::configure(""), Error);
  try {
    fault::configure("lu.singular:0.1,lu.singular:0.9");  // site named twice
    FAIL() << "expected bad_input";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::bad_input);
    EXPECT_NE(std::string(e.what()).find("'lu.singular'"), std::string::npos);
  }
  EXPECT_FALSE(fault::armed());  // failed configure leaves harness off

  EXPECT_NO_THROW(fault::configure("lu.singular:0.5:7,io.open"));
  EXPECT_TRUE(fault::armed());
  for (std::string_view site : fault::kSiteNames)
    EXPECT_NO_THROW(fault::configure(std::string(site)));
}

// ------------------------------------------------------------ streams

// The first `n` draws of `site` on the calling thread, as '1' (fired) and
// '0' characters.
std::string draw_pattern(fault::Site site, int n) {
  std::string pattern;
  for (int i = 0; i < n; ++i) pattern += fault::should_fire(site) ? '1' : '0';
  return pattern;
}

constexpr const char* kPinnedSpec =
    "lu.singular:0.5:7,variation.sample:0.5:42,io.open:0.5";

// Arms kPinnedSpec afresh and checks its draw sequences against values
// recorded from the original map-based harness: the serial streams of two
// interleaved sites, and one site's item streams 0 and 12345. Any change
// to how a stream is seeded or advanced shows up here.
void expect_pinned_sequences() {
  fault::configure(kPinnedSpec);
  std::string lu, sample;
  for (int i = 0; i < 16; ++i) {
    lu += draw_pattern(fault::kLuSingular, 1);
    sample += draw_pattern(fault::kVariationSample, 1);
  }
  EXPECT_EQ(lu, "1110110010011100");
  EXPECT_EQ(sample, "0100000010000100");
  {
    fault::ScopedStream stream(0);
    EXPECT_EQ(draw_pattern(fault::kVariationSample, 8), "00001011");
  }
  {
    fault::ScopedStream stream(12345);
    EXPECT_EQ(draw_pattern(fault::kVariationSample, 8), "01101100");
  }
}

TEST_F(FaultFixture, DrawSequencesArePinned) { expect_pinned_sequences(); }

// An armed draw allocates nothing, fired or not, on the serial path and
// under an item stream.
TEST_F(FaultFixture, ArmedDrawsMakeNoHeapAllocation) {
  obs::set_enabled(false);
  fault::configure("variation.sample:0.5:3");
  int fired = 0;
  const int64_t before = heap_allocations();
  for (int i = 0; i < 64; ++i) fired += fault::should_fire(fault::kVariationSample);
  {
    fault::ScopedStream stream(7);
    for (int i = 0; i < 64; ++i) fired += fault::should_fire(fault::kVariationSample);
  }
  const int64_t allocations = heap_allocations() - before;
  EXPECT_EQ(allocations, 0);
  EXPECT_GT(fired, 0);
  EXPECT_LT(fired, 128);
}

// Draws on four threads, under item streams and on the serial path, race
// configure() and clear() on the main thread. A fresh configuration
// afterwards must still draw the pinned sequences.
TEST_F(FaultFixture, ReconfiguringUnderConcurrentDrawsKeepsSequences) {
  std::atomic<bool> stop{false};
  std::atomic<int64_t> draws{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&, t] {
      for (uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        {
          fault::ScopedStream stream(i * 4 + static_cast<uint64_t>(t));
          fault::should_fire(fault::kVariationSample);
          fault::should_fire(fault::kLuSingular);
        }
        fault::should_fire(fault::kLuSingular);
        fault::fired_count(fault::kVariationSample);
        draws.fetch_add(3, std::memory_order_relaxed);
      }
    });
  // At least 200 swaps, and on until the threads have drawn a few
  // thousand times, however late they start.
  for (int i = 0; i < 200 || draws.load() < 3000; ++i) {
    fault::configure(kPinnedSpec);
    fault::clear();
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& thread : threads) thread.join();
  expect_pinned_sequences();
}

// ------------------------------------------------------------- hygiene

TEST_F(FaultFixture, ClearDisarmsEverySite) {
  fault::configure("lu.singular:1,newton.diverge:1,io.open:1");
  EXPECT_TRUE(fault::armed());
  fault::clear();
  EXPECT_FALSE(fault::armed());
  EXPECT_FALSE(fault::should_fire(fault::kLuSingular));
  EXPECT_EQ(fault::fired_count(fault::kLuSingular), 0);
}

}  // namespace
}  // namespace pim
