#include "spice/waveform.hpp"

#include <cmath>

#include "util/error.hpp"

namespace pim {

Waveform Waveform::dc(double level) {
  require(std::isfinite(level), "Waveform::dc: level must be finite", ErrorCode::bad_input);
  Waveform w;
  w.times_ = {0.0};
  w.values_ = {level};
  return w;
}

Waveform Waveform::ramp(double v0, double v1, double t_start, double transition) {
  require(transition > 0.0, "Waveform::ramp: transition must be positive",
          ErrorCode::bad_input);
  require(std::isfinite(v0) && std::isfinite(v1) && std::isfinite(t_start) &&
              std::isfinite(transition),
          "Waveform::ramp: breakpoints must be finite", ErrorCode::bad_input);
  Waveform w;
  w.times_ = {t_start, t_start + transition};
  w.values_ = {v0, v1};
  return w;
}

Waveform Waveform::pwl(std::vector<double> times, std::vector<double> values) {
  require(!times.empty() && times.size() == values.size(),
          "Waveform::pwl: need matching non-empty breakpoints", ErrorCode::bad_input);
  for (size_t i = 0; i < times.size(); ++i)
    require(std::isfinite(times[i]) && std::isfinite(values[i]),
            "Waveform::pwl: breakpoints must be finite (index " + std::to_string(i) + ")",
            ErrorCode::bad_input);
  for (size_t i = 1; i < times.size(); ++i)
    require(times[i] > times[i - 1], "Waveform::pwl: times must be strictly increasing",
            ErrorCode::bad_input);
  Waveform w;
  w.times_ = std::move(times);
  w.values_ = std::move(values);
  return w;
}

double Waveform::value(double t) const {
  if (t <= times_.front()) return values_.front();
  if (t >= times_.back()) return values_.back();
  // Linear scan is fine: waveforms have a handful of breakpoints.
  size_t i = 0;
  while (times_[i + 1] < t) ++i;
  const double f = (t - times_[i]) / (times_[i + 1] - times_[i]);
  return values_[i] + f * (values_[i + 1] - values_[i]);
}

}  // namespace pim
