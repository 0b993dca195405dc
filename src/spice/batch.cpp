#include "spice/batch.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
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

// All mutable state of one lane. Lanes never read each other's state:
// the lockstep structure batches the device evaluations, not the math.
struct Lane {
  // Resolved per-lane parameters (base plan values + LaneSpec overrides).
  std::vector<double> cap_farads;
  std::vector<double> ksw;
  std::vector<Waveform> waves;

  // Dynamic state, mirroring the scalar solver exactly.
  Vector v_node;
  std::vector<double> cap_current, cap_geq, cap_ieq;

  // Linear system: per-step base images + reusable factorization.
  std::vector<double> base_mat;
  Vector base_rhs, rhs;
  std::unique_ptr<BandedLu> band_lu;

  // Depth-0 halving snapshots (solo recursion keeps its own locals).
  Vector v_save;
  std::vector<double> cap_save;

  TransientResult result;
  std::optional<Error> error;
  bool failed = false;

  // Per-step-attempt flags.
  bool newton_active = false;
  bool converged = false;

  // Tallies, flushed once per successful lane like the scalar solver.
  // n_timesteps counts every step the result advances through (replayed
  // steady-state steps included); n_newton/n_solves count numeric work
  // actually performed.
  long n_timesteps = 0, n_newton = 0, n_solves = 0, n_retries = 0;

  // Steady-state cycle replay (docs/kernels.md). One converged per-step
  // state; `src_current` memoizes the per-source delivered current of
  // this state the first time it is replayed with source recording on.
  struct StepState {
    Vector v_node;
    std::vector<double> cap_current;
    std::vector<double> src_current;
    bool src_valid = false;
  };
  std::vector<StepState> ring;   // last few converged states, oldest first
  std::vector<StepState> cycle;  // locked replay sequence, in step order
  int cycle_phase = 0;           // next cycle entry to replay
  double inputs_const_after = 0.0;  // every wave is exactly constant beyond

  bool replaying() const { return !cycle.empty(); }

  void reset_ring() {
    ring.clear();
    cycle.clear();
    cycle_phase = 0;
  }

  void fail_lane(Error e) {
    failed = true;
    error = std::move(e);
  }
};

// Bitwise vector equality: distinguishes -0.0 from +0.0 (their trace
// bytes differ) and treats identical NaN payloads as equal, which is the
// exact induction premise of the steady-state replay.
bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

class BatchEngine {
 public:
  BatchEngine(const CompiledCircuit& plan, const TransientOptions& opt,
              const std::vector<NodeId>& probes)
      : plan_(plan), opt_(opt), probes_(probes) {
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
    for (size_t wave_start = 0; wave_start < n; wave_start += kWaveWidth) {
      const size_t wave_end = std::min(n, wave_start + kWaveWidth);
      std::vector<Lane> wave(wave_end - wave_start);
      for (size_t i = wave_start; i < wave_end; ++i)
        init_lane(wave[i - wave_start], specs[i]);
      run_wave(wave);
      for (Lane& lane : wave) {
        if (lane.failed)
          out.push_back(std::move(*lane.error));
        else
          out.push_back(std::move(lane.result));
      }
    }
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

    lane.v_node.assign(plan_.node_count, 0.0);
    lane.cap_current.assign(lane.cap_farads.size(), 0.0);
    lane.cap_geq.resize(lane.cap_farads.size());
    lane.cap_ieq.resize(lane.cap_farads.size());
    lane.base_mat.assign(plan_.matrix_slots, 0.0);
    const size_t un = static_cast<size_t>(plan_.unknown_count);
    lane.base_rhs.assign(un, 0.0);
    lane.rhs.assign(un, 0.0);
    // Assembly lands directly in the factor's storage (same
    // column-compressed layout as base_mat), so each Newton iteration
    // copies the band exactly once.
    if (plan_.unknown_count > 0)
      lane.band_lu = std::make_unique<BandedLu>(plan_.matrix_rows, plan_.bandwidth,
                                                plan_.bandwidth);
    for (const Waveform& w : lane.waves)
      lane.inputs_const_after = std::max(lane.inputs_const_after, w.last_time());
    lane.result.sources.resize(plan_.vsource_node.size());
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
    // Steady-state replay stays off while fault injection is armed: a
    // replayed step performs no per-step fault draw, so skipping would
    // shift every later draw in the lane's stream.
    skip_ok_ = !fault::armed();

    // Settling pre-roll: backward Euler, inputs frozen at t = 0.
    if (opt_.t_settle > 0.0 && opt_.settle_steps > 0) {
      const double dts = opt_.t_settle / opt_.settle_steps;
      for (int k = 0; k < opt_.settle_steps; ++k)
        lockstep_advance(wave, 0.0, dts, Integrator::BackwardEuler, false,
                         /*inputs_const=*/true);
    }

    // Settle and main cycles never mix: the integrator, dt, and inputs
    // all change at this boundary.
    for (Lane& lane : wave) lane.reset_ring();

    // Main window.
    for (Lane& lane : wave)
      if (!lane.failed) record(lane, 0.0);
    const long steps = static_cast<long>(std::ceil(opt_.t_stop / opt_.dt - 1e-9));
    for (long k = 1; k <= steps; ++k) {
      const double t = std::min(opt_.t_stop, static_cast<double>(k) * opt_.dt);
      lockstep_advance(wave, t, opt_.dt, Integrator::Trapezoidal, true,
                       /*inputs_const=*/false);
      for (Lane& lane : wave)
        if (!lane.failed) record(lane, t);
    }

    // Tally flush mirrors the scalar solver: only lanes that completed
    // count a run (a failed scalar run throws before its flush).
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
  // original advance() sequence per lane exactly. `inputs_const` marks
  // windows (the settle pre-roll) where every wave is read at a frozen
  // time, so steady-state detection needs no per-lane settling check.
  void lockstep_advance(std::vector<Lane>& wave, double t, double dt,
                        Integrator integrator, bool record_sources,
                        bool inputs_const) {
    cohort_.clear();
    for (Lane& lane : wave) {
      if (lane.failed) continue;
      if (lane.replaying()) {
        replay_step(lane, dt, record_sources);
        continue;
      }
      lane.v_save = lane.v_node;
      lane.cap_save = lane.cap_current;
      cohort_.push_back(&lane);
    }
    if (cohort_.empty()) return;
    step_cohort(cohort_, t, dt, integrator, record_sources);

    for (Lane* lane : cohort_) {
      if (lane->failed) continue;
      if (lane->converged) {
        // A clean depth-0 step in a constant-input regime is a candidate
        // cycle state; anything else breaks the recorded sequence.
        if (skip_ok_ && (inputs_const || t >= lane->inputs_const_after))
          note_steady_state(*lane);
        else
          lane->reset_ring();
        continue;
      }
      lane->reset_ring();
      retry_halved(*lane, t, dt, integrator, record_sources, 0,
                   lane->v_save, lane->cap_save);
    }
  }

  // Steady-state cycle detection. The per-step state a lane carries into
  // the next step is exactly (v_node, cap_current); with dt, the
  // integrator, and every wave value constant, the step map is a
  // deterministic function of that state. So the moment the state
  // repeats bit-for-bit with period p, every subsequent step provably
  // reproduces the recorded cycle, and the engine replays it instead of
  // re-solving (docs/kernels.md).
  void note_steady_state(Lane& lane) {
    for (size_t p = 1; p <= lane.ring.size(); ++p) {
      Lane::StepState& past = lane.ring[lane.ring.size() - p];
      if (!bits_equal(past.v_node, lane.v_node) ||
          !bits_equal(past.cap_current, lane.cap_current))
        continue;
      // Lock the cycle: the next step reproduces the state that followed
      // `past`, so the replay sequence is the last p recorded states in
      // chronological order, ending with `past` itself (== the current
      // state).
      lane.cycle.reserve(p);
      for (size_t j = lane.ring.size() - p + 1; j < lane.ring.size(); ++j)
        lane.cycle.push_back(std::move(lane.ring[j]));
      lane.cycle.push_back(std::move(past));
      lane.cycle_phase = 0;
      lane.ring.clear();
      return;
    }
    Lane::StepState state;
    state.v_node = lane.v_node;
    state.cap_current = lane.cap_current;
    lane.ring.push_back(std::move(state));
    if (lane.ring.size() > kMaxCyclePeriod)
      lane.ring.erase(lane.ring.begin());
  }

  // One replayed step: restores the cycle state the full solve would
  // have produced and performs only the per-step bookkeeping arithmetic
  // (trace recording happens in the caller; source accumulation uses the
  // state's memoized currents through the exact accumulate_sources
  // expressions). Replayed steps count as timesteps but perform no
  // Newton iterations or solves.
  void replay_step(Lane& lane, double dt, bool record_sources) {
    Lane::StepState& s = lane.cycle[static_cast<size_t>(lane.cycle_phase)];
    lane.cycle_phase = (lane.cycle_phase + 1) % static_cast<int>(lane.cycle.size());
    lane.v_node = s.v_node;
    lane.cap_current = s.cap_current;
    ++lane.n_timesteps;
    if (!record_sources) return;
    if (!s.src_valid) {
      s.src_current.resize(plan_.source_touches.size());
      for (size_t si = 0; si < plan_.source_touches.size(); ++si)
        s.src_current[si] = source_current(lane, si);
      s.src_valid = true;
    }
    for (size_t si = 0; si < plan_.source_touches.size(); ++si) {
      const double current = s.src_current[si];
      lane.result.sources[si].charge += current * dt;
      lane.result.sources[si].energy +=
          current * lane.v_node[static_cast<size_t>(plan_.vsource_node[si])] * dt;
    }
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
  // time grid, per-iteration device evaluation in one contiguous SoA
  // pass across all still-iterating lanes. Sets lane.converged.
  void step_cohort(std::vector<Lane*>& cohort, double t, double dt,
                   Integrator integrator, bool record_sources) {
    const size_t un = static_cast<size_t>(plan_.unknown_count);
    for (Lane* lp : cohort) {
      Lane& lane = *lp;
      ++lane.n_timesteps;
      // Companion constants from the previous converged state.
      for (size_t i = 0; i < lane.cap_farads.size(); ++i) {
        const double v_ab = lane.v_node[static_cast<size_t>(plan_.cap_a[i])] -
                            lane.v_node[static_cast<size_t>(plan_.cap_b[i])];
        if (integrator == Integrator::Trapezoidal) {
          lane.cap_geq[i] = 2.0 * lane.cap_farads[i] / dt;
          lane.cap_ieq[i] = lane.cap_geq[i] * v_ab + lane.cap_current[i];
        } else {
          lane.cap_geq[i] = lane.cap_farads[i] / dt;
          lane.cap_ieq[i] = lane.cap_geq[i] * v_ab;
        }
      }
      // Known voltages for this step.
      lane.v_node[0] = 0.0;
      for (size_t si = 0; si < plan_.vsource_node.size(); ++si)
        lane.v_node[static_cast<size_t>(plan_.vsource_node[si])] =
            lane.waves[si].value(t);
      // Per-step base images: resistor image + capacitor companions, and
      // the RHS contributions that are constant across Newton iterations.
      // Entry-wise this accumulates in the scalar engine's exact order
      // (resistors, then capacitors); device stamps land per iteration.
      lane.base_mat = plan_.res_matrix;
      for (const auto& op : plan_.cap_mat_ops)
        lane.base_mat[static_cast<size_t>(op.slot)] += op.sign * lane.cap_geq[op.cap];
      std::fill(lane.base_rhs.begin(), lane.base_rhs.end(), 0.0);
      for (const auto& op : plan_.res_rhs_ops)
        lane.base_rhs[static_cast<size_t>(op.rhs)] -=
            op.g * lane.v_node[static_cast<size_t>(op.node)];
      for (const auto& op : plan_.cap_rhs_ops) {
        if (op.route)
          lane.base_rhs[static_cast<size_t>(op.rhs)] -=
              (op.sign * lane.cap_geq[op.cap]) *
              lane.v_node[static_cast<size_t>(op.node)];
        else
          lane.base_rhs[static_cast<size_t>(op.rhs)] += op.sign * lane.cap_ieq[op.cap];
      }
      // Fault site: simulate a diverging Newton loop for this attempt
      // only, exercising the halving retry deterministically.
      const bool inject = fault::should_fire(fault::kNewtonDiverge);
      lane.newton_active = !inject;
      lane.converged = false;
    }

    const size_t dev_count = plan_.devices.count;
    for (int iter = 0; iter < solver::kMaxNewton; ++iter) {
      iterating_.clear();
      for (Lane* lp : cohort)
        if (lp->newton_active) iterating_.push_back(lp);
      if (iterating_.empty()) break;
      for (Lane* lp : iterating_) {
        ++lp->n_newton;
        ++lp->n_solves;
      }

      eval_devices(iterating_);

      for (size_t pi = 0; pi < iterating_.size(); ++pi) {
        Lane& lane = *iterating_[pi];
        if (un > 0) {
          // Assemble: copy the step base, scatter this lane's device
          // stamps through the plan's precomputed slots, factor, solve.
          lane.band_lu->values() = lane.base_mat;
          lane.rhs = lane.base_rhs;
          scatter_devices(lane, pi * dev_count);
          Expected<void> factored = lane.band_lu->refactor();
          if (!factored.ok()) {
            if (factored.error().code() != ErrorCode::singular_matrix) {
              lane.fail_lane(factored.error());
              lane.newton_active = false;
              continue;
            }
            // Retryable: the halved timestep rebuilds the companion
            // conductances, which re-conditions the system.
            PIM_COUNT("spice.solver.singular");
            lane.newton_active = false;
            continue;
          }
          lane.band_lu->solve_in_place(lane.rhs);
        }

        double worst = 0.0;
        for (size_t node = 1; node < lane.v_node.size(); ++node) {
          const int ui = plan_.unknown_of_node[node];
          if (ui < 0) continue;
          double delta = lane.rhs[static_cast<size_t>(ui)] - lane.v_node[node];
          delta = std::clamp(delta, -solver::kVStepLimit, solver::kVStepLimit);
          lane.v_node[node] += delta;
          worst = std::max(worst, std::fabs(delta));
        }
        if (worst < solver::kVTol) {
          lane.converged = true;
          lane.newton_active = false;
        }
      }
    }

    for (Lane* lp : cohort) {
      Lane& lane = *lp;
      if (!lane.converged || lane.failed) continue;
      for (size_t i = 0; i < lane.cap_farads.size(); ++i) {
        const double v_ab = lane.v_node[static_cast<size_t>(plan_.cap_a[i])] -
                            lane.v_node[static_cast<size_t>(plan_.cap_b[i])];
        lane.cap_current[i] = lane.cap_geq[i] * v_ab - lane.cap_ieq[i];
      }
      if (record_sources) accumulate_sources(lane, dt);
    }
  }

  // One contiguous SoA pass over all devices of all still-iterating
  // lanes. A single-lane cohort points the kernel straight at the plan's
  // parameter arrays (no tiling) — the common case for large sign-off
  // decks; multi-lane cohorts tile parameters per lane.
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
    for (size_t pi = 0; pi < lanes.size(); ++pi) {
      const Vector& v = lanes[pi]->v_node;
      const size_t off = pi * dn;
      for (size_t i = 0; i < dn; ++i) {
        vg_[off + i] = v[static_cast<size_t>(d.gate[i])];
        vd_[off + i] = v[static_cast<size_t>(d.drain[i])];
        vs_[off + i] = v[static_cast<size_t>(d.source[i])];
      }
    }
    if (total == 0) return;
    if (lanes.size() == 1) {
      kernels::eval_alpha_power_batch(
          dn, d.sign.data(), lanes[0]->ksw.data(), d.vth.data(), d.alpha.data(),
          d.k_vdsat.data(), d.lambda.data(), d.nvt.data(), vg_.data(), vd_.data(),
          vs_.data(), out_id_.data(), out_dg_.data(), out_dd_.data(),
          out_ds_.data());
      return;
    }
    tile_sign_.resize(total);
    tile_ksw_.resize(total);
    tile_vth_.resize(total);
    tile_alpha_.resize(total);
    tile_kvdsat_.resize(total);
    tile_lambda_.resize(total);
    tile_nvt_.resize(total);
    for (size_t pi = 0; pi < lanes.size(); ++pi) {
      const size_t off = pi * dn;
      std::copy(d.sign.begin(), d.sign.end(), tile_sign_.begin() + off);
      std::copy(lanes[pi]->ksw.begin(), lanes[pi]->ksw.end(), tile_ksw_.begin() + off);
      std::copy(d.vth.begin(), d.vth.end(), tile_vth_.begin() + off);
      std::copy(d.alpha.begin(), d.alpha.end(), tile_alpha_.begin() + off);
      std::copy(d.k_vdsat.begin(), d.k_vdsat.end(), tile_kvdsat_.begin() + off);
      std::copy(d.lambda.begin(), d.lambda.end(), tile_lambda_.begin() + off);
      std::copy(d.nvt.begin(), d.nvt.end(), tile_nvt_.begin() + off);
    }
    kernels::eval_alpha_power_batch(
        total, tile_sign_.data(), tile_ksw_.data(), tile_vth_.data(),
        tile_alpha_.data(), tile_kvdsat_.data(), tile_lambda_.data(),
        tile_nvt_.data(), vg_.data(), vd_.data(), vs_.data(), out_id_.data(),
        out_dg_.data(), out_dd_.data(), out_ds_.data());
  }

  // Scatters one lane's device linearizations into its matrix and RHS,
  // preserving the scalar engine's per-device emission order.
  void scatter_devices(Lane& lane, size_t off) {
    std::vector<double>& mat = lane.band_lu->values();
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
          mat[static_cast<size_t>(st.slot)] += vals[j];
        else if (st.rhs >= 0)
          lane.rhs[static_cast<size_t>(st.rhs)] -=
              vals[j] * lane.v_node[static_cast<size_t>(st.node)];
      }
      const double vg = vg_[off + i];
      const double vd = vd_[off + i];
      const double vs = vs_[off + i];
      const double i_eq =
          out_id_[off + i] - dg * vg - dd * vd - ds * vs;
      if (plan_.dev_rhs_drain[i] >= 0)
        lane.rhs[static_cast<size_t>(plan_.dev_rhs_drain[i])] += -i_eq;
      if (plan_.dev_rhs_source[i] >= 0)
        lane.rhs[static_cast<size_t>(plan_.dev_rhs_source[i])] += i_eq;
    }
  }

  // One source's delivered current from the lane's current state, via
  // the plan's precomputed touch lists (same element scan order and
  // arithmetic as the scalar accumulate_sources()).
  double source_current(const Lane& lane, size_t si) const {
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
      kernels::eval_branch_folded(
          d.sign[i], lane.ksw[i], d.vth[i], d.alpha[i], d.k_vdsat[i],
          d.lambda[i], d.nvt[i], lane.v_node[static_cast<size_t>(d.gate[i])],
          lane.v_node[static_cast<size_t>(d.drain[i])],
          lane.v_node[static_cast<size_t>(d.source[i])], i_d, dg, dd, ds);
      current += dv.sign * i_d;
    }
    return current;
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

  void record(Lane& lane, double t) {
    lane.result.time.push_back(t);
    for (auto& trace : lane.result.traces)
      trace.values.push_back(lane.v_node[static_cast<size_t>(trace.node)]);
  }

  // Longest state-repeat period the steady-state detector recognizes.
  // Converged tails settle either to a true fixed point (period 1) or to
  // a tiny last-ulp limit cycle; period 3 is the longest observed, so 4
  // leaves margin while keeping the per-step comparison trivial.
  static constexpr size_t kMaxCyclePeriod = 4;
  // Lanes per lockstep cohort: bounds the engine's working set; has no
  // effect on any lane's numeric result.
  static constexpr size_t kWaveWidth = 8;

  const CompiledCircuit& plan_;
  TransientOptions opt_;
  const std::vector<NodeId>& probes_;
  bool skip_ok_ = false;

  // Engine scratch (reused across steps/iterations; no per-solve allocs).
  std::vector<Lane*> cohort_, solo_, iterating_;
  std::vector<double> vg_, vd_, vs_, out_id_, out_dg_, out_dd_, out_ds_;
  std::vector<double> tile_sign_, tile_ksw_, tile_vth_, tile_alpha_,
      tile_kvdsat_, tile_lambda_, tile_nvt_;
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
