// Sample statistics and the result line of one benchmark run.
//
// Latency percentiles use the nearest-rank definition over integer
// per-mille ranks, so p99 of 1000 samples is exactly the 990th
// smallest. A tail percentile is reported only when at least
// kMinTailSamples samples lie beyond it; with fewer, the tail is not
// resolved and the run fails instead of printing a number that is
// really a maximum.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace popsbench {

inline constexpr long long kMinTailSamples = 10;

/// 1-based nearest rank of the permille/1000 quantile of n samples.
inline long long percentile_rank(long long n, int permille) {
  return std::max<long long>(1, (n * permille + 999) / 1000);
}

/// Samples strictly above the permille/1000 quantile.
inline long long samples_beyond(long long n, int permille) {
  return n - percentile_rank(n, permille);
}

/// True when the quantile has at least kMinTailSamples samples beyond
/// it, so it is not just the largest sample seen.
inline bool tail_resolved(long long n, int permille) {
  return n > 0 && samples_beyond(n, permille) >= kMinTailSamples;
}

/// Nearest-rank permille/1000 quantile; `samples` must be non-empty.
/// Takes a copy because it reorders.
inline double percentile(std::vector<double> samples, int permille) {
  const long long rank = percentile_rank(
      static_cast<long long>(samples.size()), permille);
  const auto at = samples.begin() + (rank - 1);
  std::nth_element(samples.begin(), at, samples.end());
  return *at;
}

inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 500);
}

/// Mean of the values left after dropping the lowest and the highest
/// fifth (rounded down): robust to a few outliers like a median, but it
/// moves smoothly when the values are a mix of two levels, as on a host
/// whose speed flips between a fast and a slow state.
inline double trimmed_mean(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t cut = values.size() / 5;
  double sum = 0;
  for (std::size_t i = cut; i < values.size() - cut; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * cut);
}

/// Metric names: a letter or digit, then letters, digits, '_', '.' and
/// '-', at most 64 characters in all.
inline bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

/// Units: 1 to 16 letters, digits, '_', '/', '%', '.' and '-'.
inline bool valid_unit(const std::string& unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '/' || c == '%' ||
           c == '.' || c == '-';
  });
}

/// The work and call latencies of one timed stretch, split into equal
/// time slices. End-to-end figures are trimmed means across the slices,
/// so a burst of outside load that spoils one slice moves no figure.
/// Work that ends after the stretch's deadline counts in the totals
/// only.
class Stretch {
 public:
  Stretch(double seconds, int slices)
      : seconds_(seconds),
        ops_(static_cast<std::size_t>(slices), 0),
        calls_(static_cast<std::size_t>(slices)) {}

  /// `at_s`: when the work ended, in seconds since the stretch began.
  void add_ops(double at_s, long long ops) {
    total_ops_ += ops;
    const int slice = slice_of(at_s);
    if (slice >= 0) ops_[static_cast<std::size_t>(slice)] += ops;
  }
  void add_call(double at_s, double latency_us) {
    ++total_calls_;
    const int slice = slice_of(at_s);
    if (slice >= 0) {
      calls_[static_cast<std::size_t>(slice)].push_back(latency_us);
    }
  }
  void set_wall_s(double wall_s) { wall_s_ = wall_s; }

  double wall_s() const { return wall_s_; }
  long long total_ops() const { return total_ops_; }
  long long total_calls() const { return total_calls_; }

  /// Each slice's ops per second, and their trimmed mean.
  std::vector<double> slice_rates() const {
    std::vector<double> rates;
    const double slice_s = seconds_ / static_cast<double>(ops_.size());
    for (long long ops : ops_) {
      rates.push_back(static_cast<double>(ops) / slice_s);
    }
    return rates;
  }
  double rate() const { return trimmed_mean(slice_rates()); }

  /// Call latencies recorded before the deadline, and the fewest in
  /// any one slice.
  long long call_samples() const {
    long long n = 0;
    for (const auto& calls : calls_) n += static_cast<long long>(calls.size());
    return n;
  }
  long long min_slice_samples() const {
    long long n = -1;
    for (const auto& calls : calls_) {
      const auto size = static_cast<long long>(calls.size());
      n = n < 0 ? size : std::min(n, size);
    }
    return n;
  }

  /// True when every slice resolves the permille/1000 quantile.
  bool tail_resolved(int permille) const {
    return popsbench::tail_resolved(min_slice_samples(), permille);
  }

  /// Each slice's permille/1000 quantile, and their trimmed mean; every
  /// slice must hold a sample.
  std::vector<double> slice_percentiles(int permille) const {
    std::vector<double> quantiles;
    for (const auto& calls : calls_) {
      quantiles.push_back(percentile(calls, permille));
    }
    return quantiles;
  }
  double slice_percentile(int permille) const {
    return trimmed_mean(slice_percentiles(permille));
  }

 private:
  int slice_of(double at_s) const {
    if (at_s < 0 || at_s >= seconds_) return -1;
    const int slices = static_cast<int>(ops_.size());
    return std::min(slices - 1,
                    static_cast<int>(at_s / seconds_ * slices));
  }

  double seconds_;
  std::vector<long long> ops_;
  std::vector<std::vector<double>> calls_;
  long long total_ops_ = 0;
  long long total_calls_ = 0;
  double wall_s_ = 0;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The result of one run: correctness, operation counts and metrics,
/// printed as one JSON object on the last line of standard output.
class Report {
 public:
  /// Records a metric; false (and nothing recorded) when the name or
  /// unit breaks the charset, the name repeats, or the value is not
  /// finite.
  bool add(const std::string& name, double value, const std::string& unit) {
    if (!valid_metric_name(name) || !valid_unit(unit) ||
        !std::isfinite(value)) {
      return false;
    }
    for (const Metric& metric : metrics_) {
      if (metric.name == name) return false;
    }
    metrics_.push_back(Metric{name, value, unit});
    return true;
  }

  const std::vector<Metric>& metrics() const { return metrics_; }

  std::string to_json(bool correct, long long attempted,
                      long long failed) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
      if (i > 0) out += ", ";
      out += "\"" + metrics_[i].name + "\": {\"value\": " + value +
             ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    out += "}}";
    return out;
  }

 private:
  std::vector<Metric> metrics_;
};

}  // namespace popsbench
