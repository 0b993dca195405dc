#include "spice/batch.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <utility>

#include "numeric/banded.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "spice/kernels.hpp"
#include "util/error.hpp"
#include "util/faultinject.hpp"
#include "util/strings.hpp"

namespace pim {
namespace {

using solver::Integrator;

// All mutable state of one lane except its linear system, which lives in
// the engine's lane-interleaved cohort store. Lanes never read each
// other's state.
struct Lane {
  size_t id = 0;  // the lane's index in the batch
  // Resolved per-lane parameters (base plan values + LaneSpec overrides).
  std::vector<double> cap_farads;
  std::vector<double> ksw;
  std::vector<Waveform> waves;

  // Dynamic state, mirroring the scalar solver exactly.
  Vector v_node;
  std::vector<double> cap_current, cap_geq, cap_ieq;

  // Device bypass (docs/kernels.md): each device's overdrive terms at the
  // last vgt it was evaluated at, keyed on that vgt's exact bits. Newton
  // sweeps, halving retries and source currents all read through it.
  std::vector<kernels::OverdriveMemo> overdrive;

  // Depth-0 halving snapshots (solo recursion keeps its own locals).
  Vector v_save;
  std::vector<double> cap_save;

  TransientResult result;
  std::optional<Error> error;
  bool failed = false;

  // Early exit (docs/kernels.md): the lane's stop_after crossings, and
  // whether they have all happened, which ends the lane's window. A lane
  // with a stop list integrates no source totals.
  CrossingWatch watch;
  bool done = false;
  bool keep_sources = true;

  // Per-step-attempt flags.
  bool newton_active = false;
  bool converged = false;

  // Tallies, flushed once per successful lane like the scalar solver.
  // n_timesteps counts every step the result advances through (skipped
  // pre-roll steps included); n_newton/n_solves count numeric work
  // actually performed.
  long n_timesteps = 0, n_newton = 0, n_solves = 0, n_retries = 0;

  // Settle jump (docs/kernels.md): the last `ring_size` clean pre-roll
  // states, oldest at `ring_head`; the slots are kept allocated and
  // copy-assigned into. `settled` lanes sit out the rest of the pre-roll.
  struct StepState {
    Vector v_node;
    std::vector<double> cap_current;
  };
  std::vector<StepState> ring;
  size_t ring_head = 0, ring_size = 0;
  bool settled = false;

  bool live() const { return !failed && !done; }

  void fail_lane(Error e) {
    failed = true;
    error = std::move(e);
  }
};

// Bitwise vector equality: distinguishes -0.0 from +0.0 (their trace
// bytes differ) and treats identical NaN payloads as equal, which is the
// exact induction premise of the settle jump.
bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

class BatchEngine {
 public:
  BatchEngine(const CompiledCircuit& plan, const TransientOptions& opt,
              const std::vector<NodeId>& probes)
      : plan_(plan), opt_(opt), probes_(probes),
        base_(plan.matrix_rows, plan.bandwidth, plan.bandwidth),
        store_(base_) {
    require(opt_.dt > 0.0 && opt_.t_stop > 0.0,
            "run_transient: dt and t_stop must be positive", ErrorCode::bad_input);
    for (NodeId p : probes_)
      require(p >= 0 && static_cast<size_t>(p) < plan_.node_count,
              "run_transient: probe is not a node of the circuit",
              ErrorCode::bad_input);
  }

  std::vector<Expected<TransientResult>> run(const std::vector<LaneSpec>& specs) {
    std::vector<Expected<TransientResult>> out;
    const size_t n = specs.size();
    out.reserve(n);
    timing_ = obs::enabled();
    // The settle jump and early exit stay off while fault injection
    // is armed: a skipped step performs no per-step fault draw, so
    // skipping would shift every later draw in the lane's stream.
    skip_ok_ = !fault::armed();
    for (size_t wave_start = 0; wave_start < n; wave_start += kWaveWidth) {
      const size_t wave_end = std::min(n, wave_start + kWaveWidth);
      std::vector<Lane> wave(wave_end - wave_start);
      for (size_t i = wave_start; i < wave_end; ++i) {
        wave[i - wave_start].id = i;
        init_lane(wave[i - wave_start], specs[i]);
      }
      run_wave(wave);
      for (Lane& lane : wave) {
        if (lane.failed)
          out.push_back(std::move(*lane.error));
        else
          out.push_back(std::move(lane.result));
      }
    }
    if (timing_) flush_phases();
    return out;
  }

 private:
  // Resolves LaneSpec overrides onto the plan's base values. Override
  // mistakes fail only this lane, typed bad_input.
  void init_lane(Lane& lane, const LaneSpec& spec) {
    lane.cap_farads = plan_.cap_farads;
    lane.ksw = plan_.devices.ksw;
    lane.waves = plan_.vsource_wave;
    for (const auto& [ci, farads] : spec.cap_farads) {
      if (ci >= lane.cap_farads.size()) {
        lane.fail_lane(Error("transient batch: capacitor override index out of range",
                             ErrorCode::bad_input));
        return;
      }
      // NaN/Inf would otherwise pass through the clamp-damped Newton loop
      // as a silently "converged" poisoned state; mirror Circuit's
      // add_capacitor validation instead.
      if (!std::isfinite(farads) || farads < 0.0) {
        lane.fail_lane(Error(
            "transient batch: capacitor override must be finite and non-negative",
            ErrorCode::bad_input));
        return;
      }
      lane.cap_farads[ci] = farads;
    }
    for (const auto& [mi, width] : spec.mosfet_width) {
      if (mi >= lane.ksw.size()) {
        lane.fail_lane(Error("transient batch: mosfet override index out of range",
                             ErrorCode::bad_input));
        return;
      }
      if (!std::isfinite(width) || !(width > 0.0)) {
        lane.fail_lane(Error("eval_alpha_power: width must be positive",
                             ErrorCode::bad_input));
        return;
      }
      lane.ksw[mi] = plan_.devices.k_sat[mi] * width;
    }
    for (const auto& [si, wave] : spec.vsource_wave) {
      if (si >= lane.waves.size()) {
        lane.fail_lane(Error("transient batch: vsource override index out of range",
                             ErrorCode::bad_input));
        return;
      }
      lane.waves[si] = wave;
    }
    if (!stop_after_is_valid(spec.stop_after, plan_.node_count)) {
      lane.fail_lane(Error("transient batch: a stop_after crossing names no node of the "
                           "circuit or a non-finite level",
                           ErrorCode::bad_input));
      return;
    }
    lane.keep_sources = spec.stop_after.empty();
    if (skip_ok_) lane.watch = CrossingWatch(spec.stop_after);

    lane.v_node.assign(plan_.node_count, 0.0);
    lane.cap_current.assign(lane.cap_farads.size(), 0.0);
    lane.cap_geq.resize(lane.cap_farads.size());
    lane.cap_ieq.resize(lane.cap_farads.size());
    lane.overdrive.assign(plan_.devices.count, kernels::OverdriveMemo{});
    lane.ring.resize(kMaxCyclePeriod);
    if (lane.keep_sources) lane.result.sources.resize(plan_.vsource_node.size());
    for (NodeId p : probes_) lane.result.traces.push_back({p, {}});
  }

  void run_wave(std::vector<Lane>& wave) {
    if (wave.empty()) return;
    // PIM_OBS_SPAN binds its timer per call site, so each name gets one.
    if (wave.size() == 1) {
      PIM_OBS_SPAN("spice.transient.run");
      run_wave_inner(wave);
    } else {
      PIM_OBS_SPAN("spice.transient.batch");
      run_wave_inner(wave);
    }
  }

  void run_wave_inner(std::vector<Lane>& wave) {
    // Settling pre-roll: backward Euler, inputs frozen at t = 0.
    if (opt_.t_settle > 0.0 && opt_.settle_steps > 0) {
      const double dts = opt_.t_settle / opt_.settle_steps;
      for (int k = 1; k <= opt_.settle_steps; ++k)
        lockstep_advance(wave, 0.0, dts, Integrator::BackwardEuler, false,
                         opt_.settle_steps - k);
      for (Lane& lane : wave) lane.settled = false;
    }

    // Main window. A lane whose stop_after crossings have all happened
    // leaves the cohort after recording that sample; the loop ends when
    // no live lane remains.
    const long steps = static_cast<long>(std::ceil(opt_.t_stop / opt_.dt - 1e-9));
    const auto record_live = [&](long k, double t) {
      for (Lane& lane : wave) {
        if (!lane.live()) continue;
        record(lane, t);
        if (!lane.watch.observe(lane.v_node)) continue;
        lane.done = true;
        ++stopped_lanes_;
        cut_steps_ += steps - k;
      }
    };
    record_live(0, 0.0);
    for (long k = 1; k <= steps; ++k) {
      if (std::none_of(wave.begin(), wave.end(), [](const Lane& l) { return l.live(); }))
        break;
      const double t = std::min(opt_.t_stop, static_cast<double>(k) * opt_.dt);
      lockstep_advance(wave, t, opt_.dt, Integrator::Trapezoidal, true, 0);
      record_live(k, t);
    }

    // Tally flush mirrors the scalar solver: only lanes that completed
    // (ran their window or stopped at their crossings) count a run (a
    // failed scalar run throws before its flush).
    for (Lane& lane : wave) {
      if (lane.failed) continue;
      PIM_COUNT("spice.transient.runs");
      PIM_COUNT_N("spice.timestep.count", lane.n_timesteps);
      PIM_COUNT_N("spice.newton.iterations", lane.n_newton);
      PIM_COUNT_N("spice.lu.solves", lane.n_solves);
      if (lane.n_retries > 0) PIM_COUNT_N("spice.newton.retries", lane.n_retries);
    }
  }

  // Depth-0 advance for the whole cohort; lanes whose lockstep attempt
  // fails fall back to the scalar halving recursion solo, reproducing the
  // original advance() sequence per lane exactly. `settle_left` is the
  // number of pre-roll steps after this one (0 in the main window).
  void lockstep_advance(std::vector<Lane>& wave, double t, double dt,
                        Integrator integrator, bool record_sources,
                        int settle_left) {
    cohort_.clear();
    for (Lane& lane : wave) {
      if (!lane.live() || lane.settled) continue;
      lane.v_save = lane.v_node;
      lane.cap_save = lane.cap_current;
      cohort_.push_back(&lane);
    }
    if (cohort_.empty()) return;
    step_cohort(cohort_, t, dt, integrator, record_sources);

    for (Lane* lane : cohort_) {
      if (lane->failed) continue;
      if (lane->converged) {
        // Only a clean depth-0 step is a candidate cycle state.
        if (skip_ok_ && settle_left > 0) settle_jump(*lane, settle_left);
        continue;
      }
      lane->ring_size = 0;
      retry_halved(*lane, t, dt, integrator, record_sources, 0,
                   lane->v_save, lane->cap_save);
    }
  }

  // Settle jump. In the pre-roll, dt, the integrator and every input are
  // frozen, so a step is a deterministic function of the state a lane
  // carries into it, (v_node, cap_current). Once that state repeats
  // bit-for-bit with period p, the remaining `left` steps provably cycle
  // through the last p states, so the lane jumps to the one they end on,
  // `left mod p` steps after the match, and sits out the rest of the
  // pre-roll (docs/kernels.md).
  void settle_jump(Lane& lane, int left) {
    auto at = [&](size_t j) -> Lane::StepState& {
      return lane.ring[(lane.ring_head + j) % kMaxCyclePeriod];
    };
    for (size_t p = 1; p <= lane.ring_size; ++p) {
      const size_t match = lane.ring_size - p;
      if (!bits_equal(at(match).v_node, lane.v_node) ||
          !bits_equal(at(match).cap_current, lane.cap_current))
        continue;
      const Lane::StepState& end = at(match + static_cast<size_t>(left) % p);
      lane.v_node = end.v_node;
      lane.cap_current = end.cap_current;
      lane.n_timesteps += left;
      settle_skipped_ += left;
      lane.settled = true;
      return;
    }
    // Record the state in the slot after the newest; a full ring
    // overwrites its oldest.
    Lane::StepState& slot = at(lane.ring_size);
    slot.v_node = lane.v_node;
    slot.cap_current = lane.cap_current;
    if (lane.ring_size < kMaxCyclePeriod)
      ++lane.ring_size;
    else
      lane.ring_head = (lane.ring_head + 1) % kMaxCyclePeriod;
  }

  // The failure tail of the scalar advance(): called after the depth-`depth`
  // attempt for this interval has already failed.
  void retry_halved(Lane& lane, double t, double dt, Integrator integrator,
                    bool record_sources, int depth, const Vector& v_save,
                    const std::vector<double>& cap_save) {
    if (depth >= solver::kMaxStepHalvings) {
      PIM_COUNT("spice.transient.error");
      lane.fail_lane(Error(
          "run_transient: Newton failed to converge at t = " + format_sig(t, 6) +
              " s (dt = " + format_sig(dt, 4) + " s, after " + std::to_string(depth) +
              " timestep halvings)",
          ErrorCode::no_convergence));
      return;
    }
    ++lane.n_retries;
    lane.v_node = v_save;
    lane.cap_current = cap_save;
    const double half = 0.5 * dt;
    solo_advance(lane, t - half, half, integrator, record_sources, depth + 1);
    if (lane.failed) return;
    solo_advance(lane, t, half, integrator, record_sources, depth + 1);
  }

  void solo_advance(Lane& lane, double t, double dt, Integrator integrator,
                    bool record_sources, int depth) {
    const Vector v_save = lane.v_node;
    const std::vector<double> cap_save = lane.cap_current;
    solo_.assign(1, &lane);
    step_cohort(solo_, t, dt, integrator, record_sources);
    if (lane.converged) return;
    retry_halved(lane, t, dt, integrator, record_sources, depth, v_save, cap_save);
  }

  // One timestep attempt for every lane in `cohort`, lockstep: shared
  // time grid, per-iteration device evaluation of all still-iterating
  // lanes, and one interleaved factor and solve over the cohort store.
  // Sets lane.converged.
  void step_cohort(std::vector<Lane*>& cohort, double t, double dt,
                   Integrator integrator, bool record_sources) {
    mark();
    const size_t un = static_cast<size_t>(plan_.unknown_count);
    const size_t lanes = cohort.size();
    const size_t slots = plan_.matrix_slots;
    const size_t rows = plan_.matrix_rows;
    const bool trapezoidal = integrator == Integrator::Trapezoidal;
    // The matrix base image depends only on the lanes' companion
    // conductances, which depend only on the lane, dt and the integrator:
    // it is rebuilt, with them, when any of those differs from the last
    // build. This is the only place that writes cap_geq, so a lane's
    // cap_geq always belongs to the last build it was part of.
    const bool rebuild_mat = !same_base_key(cohort, dt, integrator);
    if (rebuild_mat) {
      base_.set_lanes(lanes);
      base_ids_.clear();
      for (const Lane* lane : cohort) base_ids_.push_back(lane->id);
      base_dt_ = dt;
      base_integrator_ = integrator;
      for (Lane* lp : cohort)
        for (size_t i = 0; i < lp->cap_farads.size(); ++i)
          lp->cap_geq[i] = trapezoidal ? 2.0 * lp->cap_farads[i] / dt
                                       : lp->cap_farads[i] / dt;
    }
    for (size_t l = 0; l < lanes; ++l) {
      Lane& lane = *cohort[l];
      ++lane.n_timesteps;
      // Companion constants from the previous converged state.
      for (size_t i = 0; i < lane.cap_farads.size(); ++i) {
        const double v_ab = lane.v_node[static_cast<size_t>(plan_.cap_a[i])] -
                            lane.v_node[static_cast<size_t>(plan_.cap_b[i])];
        lane.cap_ieq[i] = trapezoidal ? lane.cap_geq[i] * v_ab + lane.cap_current[i]
                                      : lane.cap_geq[i] * v_ab;
      }
      // Known voltages for this step.
      lane.v_node[0] = 0.0;
      for (size_t si = 0; si < plan_.vsource_node.size(); ++si)
        lane.v_node[static_cast<size_t>(plan_.vsource_node[si])] =
            lane.waves[si].value(t);
      // The RHS contributions that are constant across Newton iterations,
      // straight into this lane's column of the base image.
      for (size_t r = 0; r < rows; ++r) base_.rhs(r, l) = 0.0;
      for (const auto& op : plan_.res_rhs_ops)
        base_.rhs(static_cast<size_t>(op.rhs), l) -=
            op.g * lane.v_node[static_cast<size_t>(op.node)];
      for (const auto& op : plan_.cap_rhs_ops) {
        double& rhs = base_.rhs(static_cast<size_t>(op.rhs), l);
        if (op.route)
          rhs -= (op.sign * lane.cap_geq[op.cap]) * lane.v_node[static_cast<size_t>(op.node)];
        else
          rhs += op.sign * lane.cap_ieq[op.cap];
      }
      // Fault site: simulate a diverging Newton loop for this attempt
      // only, exercising the halving retry deterministically.
      const bool inject = fault::should_fire(fault::kNewtonDiverge);
      lane.newton_active = !inject;
      lane.converged = false;
    }
    if (rebuild_mat) {
      // Resistor image + capacitor companions per lane column. Entry-wise
      // this accumulates in the scalar engine's exact order (resistors,
      // then capacitors); device stamps land per iteration.
      for (size_t l = 0; l < lanes; ++l) {
        const Lane& lane = *cohort[l];
        for (size_t s = 0; s < slots; ++s) base_.value(s, l) = plan_.res_matrix[s];
        for (const auto& op : plan_.cap_mat_ops)
          base_.value(static_cast<size_t>(op.slot), l) += op.sign * lane.cap_geq[op.cap];
      }
    }
    active_.resize(lanes);
    lap(kBaseImage);

    const size_t dev_count = plan_.devices.count;
    for (int iter = 0; iter < solver::kMaxNewton; ++iter) {
      iterating_.clear();
      iterating_lane_.clear();
      for (size_t l = 0; l < lanes; ++l) {
        active_[l] = cohort[l]->newton_active;
        if (!active_[l]) continue;
        iterating_.push_back(cohort[l]);
        iterating_lane_.push_back(l);
      }
      if (iterating_.empty()) break;
      for (Lane* lp : iterating_) {
        ++lp->n_newton;
        ++lp->n_solves;
      }

      eval_devices(iterating_);
      lap(kDeviceEval);

      if (un > 0) {
        // Assemble: copy the step base, scatter each iterating lane's
        // device stamps through the plan's precomputed slots; then
        // factor and solve every iterating lane in one pass.
        store_ = base_;
        for (size_t pi = 0; pi < iterating_.size(); ++pi)
          scatter_devices(*iterating_[pi], iterating_lane_[pi], pi * dev_count);
        lap(kScatter);
        store_.factor(active_);
        lap(kFactor);
        store_.solve(active_);
        lap(kSolve);
      }

      for (size_t pi = 0; pi < iterating_.size(); ++pi) {
        Lane& lane = *iterating_[pi];
        const size_t l = iterating_lane_[pi];
        if (!active_[l]) {
          // Singular: the halved timestep rebuilds the companion
          // conductances, which re-conditions the system.
          PIM_COUNT("spice.solver.singular");
          lane.newton_active = false;
          continue;
        }
        double worst = 0.0;
        for (size_t node = 1; node < lane.v_node.size(); ++node) {
          const int ui = plan_.unknown_of_node[node];
          if (ui < 0) continue;
          double delta = store_.rhs(static_cast<size_t>(ui), l) - lane.v_node[node];
          delta = std::clamp(delta, -solver::kVStepLimit, solver::kVStepLimit);
          lane.v_node[node] += delta;
          worst = std::max(worst, std::fabs(delta));
        }
        if (worst < solver::kVTol) {
          lane.converged = true;
          lane.newton_active = false;
        }
      }
      lap(kNewtonUpdate);
    }

    for (Lane* lp : cohort) {
      Lane& lane = *lp;
      if (!lane.converged || lane.failed) continue;
      for (size_t i = 0; i < lane.cap_farads.size(); ++i) {
        const double v_ab = lane.v_node[static_cast<size_t>(plan_.cap_a[i])] -
                            lane.v_node[static_cast<size_t>(plan_.cap_b[i])];
        lane.cap_current[i] = lane.cap_geq[i] * v_ab - lane.cap_ieq[i];
      }
      if (record_sources && lane.keep_sources) accumulate_sources(lane, dt);
    }
    lap(kSources);
  }

  // Evaluates every device of every still-iterating lane: per lane one
  // SoA sweep over the plan's parameter arrays, the lane's own widths and
  // its bypass memo, into that lane's slice of the engine's device buffers.
  void eval_devices(std::vector<Lane*>& lanes) {
    const DeviceArrays& d = plan_.devices;
    const size_t dn = d.count;
    const size_t total = dn * lanes.size();
    vg_.resize(total);
    vd_.resize(total);
    vs_.resize(total);
    out_id_.resize(total);
    out_dg_.resize(total);
    out_dd_.resize(total);
    out_ds_.resize(total);
    if (dn == 0) return;
    for (size_t pi = 0; pi < lanes.size(); ++pi) {
      const Vector& v = lanes[pi]->v_node;
      const size_t off = pi * dn;
      for (size_t i = 0; i < dn; ++i) {
        vg_[off + i] = v[static_cast<size_t>(d.gate[i])];
        vd_[off + i] = v[static_cast<size_t>(d.drain[i])];
        vs_[off + i] = v[static_cast<size_t>(d.source[i])];
      }
      device_bypass_ += static_cast<int64_t>(kernels::eval_alpha_power_batch(
          dn, lanes[pi]->overdrive.data(), d.sign.data(), lanes[pi]->ksw.data(),
          d.vth.data(), d.alpha.data(), d.k_vdsat.data(), d.lambda.data(), d.nvt.data(),
          vg_.data() + off, vd_.data() + off, vs_.data() + off, out_id_.data() + off,
          out_dg_.data() + off, out_dd_.data() + off, out_ds_.data() + off));
    }
    device_evals_ += static_cast<int64_t>(total);
  }

  // Scatters one lane's device linearizations into its column `l` of
  // the cohort store, preserving the scalar engine's per-device emission
  // order.
  void scatter_devices(const Lane& lane, size_t l, size_t off) {
    const size_t dn = plan_.devices.count;
    for (size_t i = 0; i < dn; ++i) {
      const double dg = out_dg_[off + i];
      const double dd = out_dd_[off + i];
      const double ds = out_ds_[off + i];
      const double vals[6] = {dg, dd, ds, -dg, -dd, -ds};
      const auto& stamps = plan_.dev_stamps[i];
      for (int j = 0; j < 6; ++j) {
        const auto& st = stamps[static_cast<size_t>(j)];
        if (st.slot >= 0)
          store_.value(static_cast<size_t>(st.slot), l) += vals[j];
        else if (st.rhs >= 0)
          store_.rhs(static_cast<size_t>(st.rhs), l) -=
              vals[j] * lane.v_node[static_cast<size_t>(st.node)];
      }
      const double vg = vg_[off + i];
      const double vd = vd_[off + i];
      const double vs = vs_[off + i];
      const double i_eq =
          out_id_[off + i] - dg * vg - dd * vd - ds * vs;
      if (plan_.dev_rhs_drain[i] >= 0)
        store_.rhs(static_cast<size_t>(plan_.dev_rhs_drain[i]), l) += -i_eq;
      if (plan_.dev_rhs_source[i] >= 0)
        store_.rhs(static_cast<size_t>(plan_.dev_rhs_source[i]), l) += i_eq;
    }
  }

  // One source's delivered current from the lane's current state, via
  // the plan's precomputed touch lists (same element scan order and
  // arithmetic as the scalar accumulate_sources()). Device currents read
  // through the lane's bypass memo.
  double source_current(Lane& lane, size_t si) {
    const DeviceArrays& d = plan_.devices;
    const auto& touches = plan_.source_touches[si];
    double current = 0.0;
    for (const auto& rt : touches.res)
      current += rt.g * (lane.v_node[static_cast<size_t>(rt.hi)] -
                         lane.v_node[static_cast<size_t>(rt.lo)]);
    for (const auto& ct : touches.cap)
      current += ct.sign * lane.cap_current[static_cast<size_t>(ct.cap)];
    for (const auto& dv : touches.dev) {
      const size_t i = static_cast<size_t>(dv.dev);
      double i_d, dg, dd, ds;
      kernels::eval_branch_memo(
          lane.overdrive[i], d.sign[i], lane.ksw[i], d.vth[i], d.alpha[i],
          d.k_vdsat[i], d.lambda[i], d.nvt[i],
          lane.v_node[static_cast<size_t>(d.gate[i])],
          lane.v_node[static_cast<size_t>(d.drain[i])],
          lane.v_node[static_cast<size_t>(d.source[i])], i_d, dg, dd, ds);
      current += dv.sign * i_d;
    }
    return current;
  }

  // Whether the base image was last built for exactly these lanes, in this
  // order, at this dt and integrator.
  bool same_base_key(const std::vector<Lane*>& cohort, double dt,
                     Integrator integrator) const {
    if (base_dt_ != dt || base_integrator_ != integrator ||
        base_ids_.size() != cohort.size())
      return false;
    for (size_t l = 0; l < cohort.size(); ++l)
      if (base_ids_[l] != cohort[l]->id) return false;
    return true;
  }

  // Per-source delivered current integrated into charge and energy.
  void accumulate_sources(Lane& lane, double dt) {
    for (size_t si = 0; si < plan_.source_touches.size(); ++si) {
      const double current = source_current(lane, si);
      lane.result.sources[si].charge += current * dt;
      lane.result.sources[si].energy +=
          current * lane.v_node[static_cast<size_t>(plan_.vsource_node[si])] * dt;
    }
  }

  // Engine phase totals (docs/observability.md): wall nanoseconds per
  // phase, summed over the batch and recorded once at its end, and only
  // while observability is on, so a disabled run reads no clock.
  enum Phase {
    kBaseImage,
    kDeviceEval,
    kScatter,
    kFactor,
    kSolve,
    kNewtonUpdate,
    kSources,
    kPhaseCount
  };

  // Starts timing at the current instant.
  void mark() {
    if (timing_) mark_ns_ = obs::now_ns();
  }

  // Charges the time since the last mark (or lap) to `phase`.
  void lap(Phase phase) {
    if (!timing_) return;
    const int64_t now = obs::now_ns();
    phase_ns_[phase] += now - mark_ns_;
    mark_ns_ = now;
  }

  void flush_phases() {
    PIM_COUNT_N("spice.phase.base_image_ns", phase_ns_[kBaseImage]);
    PIM_COUNT_N("spice.phase.device_eval_ns", phase_ns_[kDeviceEval]);
    PIM_COUNT_N("spice.phase.scatter_ns", phase_ns_[kScatter]);
    PIM_COUNT_N("spice.phase.factor_ns", phase_ns_[kFactor]);
    PIM_COUNT_N("spice.phase.solve_ns", phase_ns_[kSolve]);
    PIM_COUNT_N("spice.phase.newton_update_ns", phase_ns_[kNewtonUpdate]);
    PIM_COUNT_N("spice.phase.sources_ns", phase_ns_[kSources]);
    PIM_COUNT_N("spice.settle.skipped_steps", settle_skipped_);
    PIM_COUNT_N("spice.device.evaluations", device_evals_);
    PIM_COUNT_N("spice.device.bypass", device_bypass_);
    PIM_COUNT_N("spice.transient.stopped", stopped_lanes_);
    PIM_COUNT_N("spice.timestep.cut", cut_steps_);
  }

  void record(Lane& lane, double t) {
    lane.result.time.push_back(t);
    for (auto& trace : lane.result.traces)
      trace.values.push_back(lane.v_node[static_cast<size_t>(trace.node)]);
  }

  // Longest state-repeat period the settle jump recognizes. A pre-roll
  // settles either to a true fixed point (period 1) or to a tiny last-ulp
  // limit cycle; a 65nm fit locks at periods 1 to 4, and period 1 alone
  // would skip only two thirds as many steps.
  static constexpr size_t kMaxCyclePeriod = 4;
  // Lanes per lockstep cohort: bounds the engine's working set; has no
  // effect on any lane's numeric result.
  static constexpr size_t kWaveWidth = 8;

  const CompiledCircuit& plan_;
  TransientOptions opt_;
  const std::vector<NodeId>& probes_;
  bool skip_ok_ = false;  // no fault armed: settle jump and early exit allowed

  // Phase totals (flush_phases).
  bool timing_ = false;
  int64_t mark_ns_ = 0;
  std::array<int64_t, kPhaseCount> phase_ns_{};
  int64_t settle_skipped_ = 0;  // pre-roll steps the settle jump skipped
  // Newton-sweep device evaluations and how many of them were bypasses.
  int64_t device_evals_ = 0, device_bypass_ = 0;
  // Lanes ended by their stop_after crossings, and the main-window steps
  // of theirs that were therefore not simulated.
  int64_t stopped_lanes_ = 0, cut_steps_ = 0;

  // The cohort's linear systems: the per-step base image, built for the
  // lanes base_ids_ at (base_dt_, base_integrator_) (same_base_key), and
  // the store each Newton iteration copies it into, then assembles,
  // factors and solves in place.
  BandedCohort base_;
  std::vector<size_t> base_ids_;
  double base_dt_ = 0.0;  // 0: no image built yet
  Integrator base_integrator_ = Integrator::Trapezoidal;
  BandedCohort store_;
  std::vector<unsigned char> active_;

  // Engine scratch (reused across steps/iterations; no per-solve allocs).
  std::vector<Lane*> cohort_, solo_, iterating_;
  std::vector<size_t> iterating_lane_;  // cohort position of iterating_[pi]
  std::vector<double> vg_, vd_, vs_, out_id_, out_dg_, out_dd_, out_ds_;
};

}  // namespace

std::vector<Expected<TransientResult>> run_transient_batch(
    const CompiledCircuit& plan, const TransientOptions& options,
    const std::vector<NodeId>& probes, const std::vector<LaneSpec>& lanes) {
  return BatchEngine(plan, options, probes).run(lanes);
}

TransientResult run_transient(const Circuit& circuit, const TransientOptions& options,
                              const std::vector<NodeId>& probes) {
  const CompiledCircuit plan = CompiledCircuit::compile(circuit);
  return run_transient_batch(plan, options, probes, {LaneSpec{}})[0].take();
}

}  // namespace pim
