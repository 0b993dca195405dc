#include "spice/transient.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "numeric/banded.hpp"
#include "numeric/lu.hpp"
#include "numeric/matrix.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/faultinject.hpp"
#include "util/strings.hpp"

namespace pim {

using solver::Integrator;

const std::vector<double>& TransientResult::trace(NodeId node) const {
  if (trace_index_.size() != traces.size()) {
    trace_index_.clear();
    trace_index_.reserve(traces.size());
    for (size_t i = 0; i < traces.size(); ++i) trace_index_.emplace_back(traces[i].node, i);
    std::sort(trace_index_.begin(), trace_index_.end());
  }
  const auto it = std::lower_bound(
      trace_index_.begin(), trace_index_.end(), node,
      [](const std::pair<NodeId, size_t>& e, NodeId n) { return e.first < n; });
  if (it == trace_index_.end() || it->first != node)
    fail("TransientResult::trace: node " + std::to_string(node) + " was not probed",
         ErrorCode::bad_input);
  return traces[it->second].values;
}

namespace {

// Per-terminal linearization of a MOSFET's drain-branch current. With the
// sign conventions below the stamp pattern is identical for both device
// polarities: +i_d leaves the drain node, -i_d leaves the source node.
struct BranchEval {
  double i_d;
  double di_dvg;
  double di_dvd;
  double di_dvs;
};

BranchEval eval_branch(const Mosfet& m, double vg, double vd, double vs) {
  MosEval e;
  double sign;
  if (m.type == MosType::Nmos) {
    e = eval_alpha_power(m.params, m.width, vg - vs, vd - vs);
    sign = 1.0;
  } else {
    e = eval_alpha_power(m.params, m.width, vs - vg, vs - vd);
    sign = -1.0;
  }
  // For both polarities the chain rule collapses to the same Jacobian
  // pattern (see mosfet.cpp for the swap symmetry).
  return {sign * e.ids, e.g_m, e.g_ds, -(e.g_m + e.g_ds)};
}

// Linear system that is either banded or dense, chosen once from the
// netlist's bandwidth under the creation-order node numbering: dense
// only above solver::kMaxHalfBandwidth, where the batched engine
// refuses the circuit.
class LinearSystem {
 public:
  LinearSystem(size_t n, size_t bandwidth) : n_(n), rhs_(n, 0.0) {
    if (bandwidth <= solver::kMaxHalfBandwidth) {
      banded_ = std::make_unique<BandedMatrix>(std::max<size_t>(n, 1), bandwidth, bandwidth);
    } else {
      dense_ = std::make_unique<Matrix>(n, n);
    }
  }

  void clear() {
    std::fill(rhs_.begin(), rhs_.end(), 0.0);
    if (banded_) banded_->set_zero();
    if (dense_) dense_->set_zero();
  }

  void add(size_t r, size_t c, double g) {
    if (banded_) {
      banded_->add(r, c, g);
    } else {
      (*dense_)(r, c) += g;
    }
  }

  Vector& rhs() { return rhs_; }

  Vector solve() const {
    if (n_ == 0) return {};
    if (banded_) return BandedLu(*banded_).solve(rhs_);
    return LuDecomposition(*dense_).solve(rhs_);
  }

 private:
  size_t n_;
  Vector rhs_;
  std::unique_ptr<BandedMatrix> banded_;
  std::unique_ptr<Matrix> dense_;
};

class TransientSolver {
 public:
  TransientSolver(const Circuit& circuit, const TransientOptions& options,
                  const std::vector<NodeId>& probes, const std::vector<Crossing>& stop_after)
      : ckt_(circuit), opt_(options), probes_(probes), keep_sources_(stop_after.empty()) {
    require(opt_.dt > 0.0 && opt_.t_stop > 0.0, "run_transient: dt and t_stop must be positive",
            ErrorCode::bad_input);
    require(stop_after_is_valid(stop_after, ckt_.node_count()),
            "run_transient: a stop_after crossing names no node of the circuit or a "
            "non-finite level",
            ErrorCode::bad_input);
    // Early exit stays off while fault injection is armed, as in the
    // batched engine: a skipped step would shift later fault draws.
    if (!fault::armed()) watch_ = CrossingWatch(stop_after);
    index_nodes();
    system_ = std::make_unique<LinearSystem>(static_cast<size_t>(unknown_count_),
                                             bandwidth());
    v_node_.assign(ckt_.node_count(), 0.0);
    cap_current_.assign(ckt_.capacitors().size(), 0.0);
  }

  TransientResult run() {
    PIM_OBS_SPAN("spice.transient.run");
    TransientResult result;
    if (keep_sources_) result.sources.resize(ckt_.vsources().size());
    for (NodeId p : probes_) result.traces.push_back({p, {}});
    TransientResult* sources = keep_sources_ ? &result : nullptr;

    // Settling pre-roll: backward Euler, inputs frozen at t = 0, so the
    // main window starts from the DC operating point.
    if (opt_.t_settle > 0.0 && opt_.settle_steps > 0) {
      const double dts = opt_.t_settle / opt_.settle_steps;
      for (int k = 0; k < opt_.settle_steps; ++k)
        advance(0.0, dts, Integrator::BackwardEuler, nullptr, 0);
    }

    // Main window, ended early at the first sample where every stop_after
    // crossing has happened.
    record(0.0, result);
    watch_.observe(v_node_);
    const long steps = static_cast<long>(std::ceil(opt_.t_stop / opt_.dt - 1e-9));
    for (long k = 1; k <= steps; ++k) {
      const double t = std::min(opt_.t_stop, static_cast<double>(k) * opt_.dt);
      advance(t, opt_.dt, Integrator::Trapezoidal, sources, 0);
      record(t, result);
      if (watch_.observe(v_node_)) break;
    }
    // Tallies are accumulated in plain locals and flushed once per run so
    // the stepping loop carries no atomics.
    PIM_COUNT("spice.transient.runs");
    PIM_COUNT_N("spice.timestep.count", n_timesteps_);
    PIM_COUNT_N("spice.newton.iterations", n_newton_);
    PIM_COUNT_N("spice.lu.solves", n_solves_);
    if (n_retries_ > 0) PIM_COUNT_N("spice.newton.retries", n_retries_);
    return result;
  }

 private:
  void index_nodes() {
    const size_t n = ckt_.node_count();
    unknown_of_node_.assign(n, -1);
    source_value_index_.assign(n, -1);
    for (size_t i = 0; i < ckt_.vsources().size(); ++i)
      source_value_index_[static_cast<size_t>(ckt_.vsources()[i].node)] = static_cast<int>(i);
    unknown_count_ = 0;
    for (size_t node = 1; node < n; ++node) {
      if (source_value_index_[node] >= 0) continue;
      unknown_of_node_[node] = unknown_count_++;
    }
  }

  size_t bandwidth() const {
    size_t band = 0;
    auto pair_band = [&](NodeId a, NodeId b) {
      const int ia = unknown_of_node_[static_cast<size_t>(a)];
      const int ib = unknown_of_node_[static_cast<size_t>(b)];
      if (ia < 0 || ib < 0) return;
      band = std::max(band, static_cast<size_t>(std::abs(ia - ib)));
    };
    for (const auto& r : ckt_.resistors()) pair_band(r.a, r.b);
    for (const auto& c : ckt_.capacitors()) pair_band(c.a, c.b);
    for (const auto& m : ckt_.mosfets()) {
      pair_band(m.gate, m.drain);
      pair_band(m.gate, m.source);
      pair_band(m.drain, m.source);
    }
    return band;
  }

  // Known voltage of ground/source nodes at time t; unknowns read from
  // the current iterate in v_node_.
  void load_known_voltages(double t) {
    v_node_[0] = 0.0;
    for (const auto& src : ckt_.vsources())
      v_node_[static_cast<size_t>(src.node)] = src.wave.value(t);
  }

  // Adds conductance g at matrix position (row_node, col_node), routing
  // known-voltage columns into the right-hand side.
  void stamp(NodeId row, NodeId col, double g) {
    const int ri = unknown_of_node_[static_cast<size_t>(row)];
    if (ri < 0) return;
    const int ci = unknown_of_node_[static_cast<size_t>(col)];
    if (ci >= 0) {
      system_->add(static_cast<size_t>(ri), static_cast<size_t>(ci), g);
    } else {
      system_->rhs()[static_cast<size_t>(ri)] -= g * v_node_[static_cast<size_t>(col)];
    }
  }

  void rhs_add(NodeId node, double value) {
    const int i = unknown_of_node_[static_cast<size_t>(node)];
    if (i >= 0) system_->rhs()[static_cast<size_t>(i)] += value;
  }

  // Advances from t - dt to t, retrying a non-convergent Newton solve
  // with timestep halving: the failed interval is restored to its
  // pre-step state and re-run as two half-steps, recursively, up to
  // solver::kMaxStepHalvings levels (bounded backoff). Only when the
  // smallest step still diverges does the run surface no_convergence.
  void advance(double t, double dt, Integrator integrator, TransientResult* result,
               int depth) {
    // Snapshot the dynamic state so a failed attempt can be rolled back;
    // everything else (matrices, rhs) is rebuilt per iteration anyway.
    const Vector v_save = v_node_;
    const std::vector<double> cap_save = cap_current_;
    if (step(t, dt, integrator, result)) return;

    if (depth >= solver::kMaxStepHalvings) {
      PIM_COUNT("spice.transient.error");
      fail("run_transient: Newton failed to converge at t = " + format_sig(t, 6) +
               " s (dt = " + format_sig(dt, 4) + " s, after " + std::to_string(depth) +
               " timestep halvings)",
           ErrorCode::no_convergence);
    }
    ++n_retries_;
    v_node_ = v_save;
    cap_current_ = cap_save;
    const double half = 0.5 * dt;
    advance(t - half, half, integrator, result, depth + 1);
    advance(t, half, integrator, result, depth + 1);
  }

  // One timestep ending at absolute time t; returns whether Newton
  // converged (leaving state mutated either way — advance() rolls back on
  // failure). When `result` is non-null, per-source charge/energy are
  // accumulated (main window only, and only for a run without a stop
  // list).
  bool step(double t, double dt, Integrator integrator, TransientResult* result) {
    ++n_timesteps_;
    const auto& caps = ckt_.capacitors();
    // Capacitor companion constants for this step, from the *previous*
    // timestep's converged state.
    cap_geq_.resize(caps.size());
    cap_ieq_.resize(caps.size());
    for (size_t i = 0; i < caps.size(); ++i) {
      const double v_ab =
          v_node_[static_cast<size_t>(caps[i].a)] - v_node_[static_cast<size_t>(caps[i].b)];
      if (integrator == Integrator::Trapezoidal) {
        cap_geq_[i] = 2.0 * caps[i].farads / dt;
        cap_ieq_[i] = cap_geq_[i] * v_ab + cap_current_[i];
      } else {
        cap_geq_[i] = caps[i].farads / dt;
        cap_ieq_[i] = cap_geq_[i] * v_ab;
      }
    }

    load_known_voltages(t);

    bool converged = false;
    // Fault site: simulate a diverging Newton loop for this attempt only,
    // so the halving retry path gets exercised deterministically.
    const bool inject = fault::should_fire(fault::kNewtonDiverge);
    for (int iter = 0; !inject && iter < solver::kMaxNewton; ++iter) {
      ++n_newton_;
      ++n_solves_;
      assemble();
      Vector v_new;
      try {
        v_new = system_->solve();
      } catch (const Error& e) {
        if (e.code() != ErrorCode::singular_matrix) throw;
        // A singular Jacobian at this operating point is retryable: the
        // halved timestep rebuilds the capacitor companion conductances,
        // which re-conditions the system.
        PIM_COUNT("spice.solver.singular");
        break;
      }
      double worst = 0.0;
      for (size_t node = 1; node < v_node_.size(); ++node) {
        const int ui = unknown_of_node_[node];
        if (ui < 0) continue;
        double delta = v_new[static_cast<size_t>(ui)] - v_node_[node];
        delta = std::clamp(delta, -solver::kVStepLimit, solver::kVStepLimit);
        v_node_[node] += delta;
        worst = std::max(worst, std::fabs(delta));
      }
      if (worst < solver::kVTol) {
        converged = true;
        break;
      }
    }
    if (!converged) return false;

    // Update capacitor branch-current state from the converged solution.
    for (size_t i = 0; i < caps.size(); ++i) {
      const double v_ab =
          v_node_[static_cast<size_t>(caps[i].a)] - v_node_[static_cast<size_t>(caps[i].b)];
      cap_current_[i] = cap_geq_[i] * v_ab - cap_ieq_[i];
    }

    if (result != nullptr) accumulate_sources(*result, dt);
    return true;
  }

  // Assembles the Newton linear system around the current iterate.
  void assemble() {
    system_->clear();

    for (const auto& r : ckt_.resistors()) {
      stamp(r.a, r.a, r.conductance);
      stamp(r.a, r.b, -r.conductance);
      stamp(r.b, r.b, r.conductance);
      stamp(r.b, r.a, -r.conductance);
    }

    const auto& caps = ckt_.capacitors();
    for (size_t i = 0; i < caps.size(); ++i) {
      const double g = cap_geq_[i];
      stamp(caps[i].a, caps[i].a, g);
      stamp(caps[i].a, caps[i].b, -g);
      stamp(caps[i].b, caps[i].b, g);
      stamp(caps[i].b, caps[i].a, -g);
      rhs_add(caps[i].a, cap_ieq_[i]);
      rhs_add(caps[i].b, -cap_ieq_[i]);
    }

    for (const auto& m : ckt_.mosfets()) {
      const double vg = v_node_[static_cast<size_t>(m.gate)];
      const double vd = v_node_[static_cast<size_t>(m.drain)];
      const double vs = v_node_[static_cast<size_t>(m.source)];
      const BranchEval e = eval_branch(m, vg, vd, vs);
      stamp(m.drain, m.gate, e.di_dvg);
      stamp(m.drain, m.drain, e.di_dvd);
      stamp(m.drain, m.source, e.di_dvs);
      stamp(m.source, m.gate, -e.di_dvg);
      stamp(m.source, m.drain, -e.di_dvd);
      stamp(m.source, m.source, -e.di_dvs);
      const double i_eq = e.i_d - e.di_dvg * vg - e.di_dvd * vd - e.di_dvs * vs;
      rhs_add(m.drain, -i_eq);
      rhs_add(m.source, i_eq);
    }
  }

  // Current delivered by each source = sum of branch currents leaving its
  // node, integrated into charge and energy.
  void accumulate_sources(TransientResult& result, double dt) {
    const auto& sources = ckt_.vsources();
    for (size_t si = 0; si < sources.size(); ++si) {
      const NodeId n = sources[si].node;
      double current = 0.0;
      for (const auto& r : ckt_.resistors()) {
        if (r.a == n)
          current += r.conductance * (v_node_[static_cast<size_t>(r.a)] -
                                      v_node_[static_cast<size_t>(r.b)]);
        if (r.b == n)
          current += r.conductance * (v_node_[static_cast<size_t>(r.b)] -
                                      v_node_[static_cast<size_t>(r.a)]);
      }
      const auto& caps = ckt_.capacitors();
      for (size_t i = 0; i < caps.size(); ++i) {
        if (caps[i].a == n) current += cap_current_[i];
        if (caps[i].b == n) current -= cap_current_[i];
      }
      for (const auto& m : ckt_.mosfets()) {
        if (m.drain == n || m.source == n) {
          const BranchEval e = eval_branch(m, v_node_[static_cast<size_t>(m.gate)],
                                           v_node_[static_cast<size_t>(m.drain)],
                                           v_node_[static_cast<size_t>(m.source)]);
          if (m.drain == n) current += e.i_d;
          if (m.source == n) current -= e.i_d;
        }
      }
      result.sources[si].charge += current * dt;
      result.sources[si].energy += current * v_node_[static_cast<size_t>(n)] * dt;
    }
  }

  void record(double t, TransientResult& result) {
    result.time.push_back(t);
    for (auto& trace : result.traces)
      trace.values.push_back(v_node_[static_cast<size_t>(trace.node)]);
  }

  const Circuit& ckt_;
  TransientOptions opt_;
  std::vector<NodeId> probes_;
  bool keep_sources_;   // no stop_after list: integrate source totals
  CrossingWatch watch_; // the early exit; empty while faults are armed
  std::vector<int> unknown_of_node_;
  std::vector<int> source_value_index_;
  int unknown_count_ = 0;
  std::unique_ptr<LinearSystem> system_;
  Vector v_node_;                    // absolute voltage per node (current iterate)
  std::vector<double> cap_current_;  // converged branch current per capacitor
  std::vector<double> cap_geq_;
  std::vector<double> cap_ieq_;
  long n_timesteps_ = 0;  // settle + main window steps
  long n_newton_ = 0;
  long n_solves_ = 0;
  long n_retries_ = 0;  // timestep-halving retry events
};

}  // namespace

bool stop_after_is_valid(const std::vector<Crossing>& stop_after, size_t node_count) {
  for (const Crossing& c : stop_after)
    if (c.node < 0 || static_cast<size_t>(c.node) >= node_count || !std::isfinite(c.level))
      return false;
  return true;
}

TransientResult run_transient_reference(const Circuit& circuit,
                                        const TransientOptions& options,
                                        const std::vector<NodeId>& probes,
                                        const std::vector<Crossing>& stop_after) {
  return TransientSolver(circuit, options, probes, stop_after).run();
}

}  // namespace pim
