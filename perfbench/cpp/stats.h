// Statistics the benchmark reports, kept free of any llmdm dependency so the
// benchmark's own tests can pin their rules down exactly.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace perfbench {

/// Samples beyond a percentile's rank that the benchmark requires before it
/// reports that percentile.
inline constexpr size_t kMinSamplesBeyond = 10;

/// 1-based nearest rank of percentile `p` (in (0, 1]) among `n` samples:
/// ceil(p * n), clamped to [1, n]. Requires n > 0.
size_t NearestRank(double p, size_t n);

/// True when at least kMinSamplesBeyond of `n` samples lie above the
/// nearest rank of `p`.
bool PercentileSupported(double p, size_t n);

/// The highest of 0.999, 0.99, 0.95, 0.9, 0.75 and 0.5 that `n` samples
/// support, or 0 when even the median has fewer than kMinSamplesBeyond
/// samples beyond it.
double HighestSupportedPercentile(size_t n);

/// Nearest-rank percentile of ascending `sorted` (0 when empty).
double PercentileOfSorted(const std::vector<double>& sorted, double p);

/// Median, p99 and the tail the benchmark reports of a sample. Failed or
/// shed requests enter as +infinity, so they count as missing any limit.
struct LatencySummary {
  size_t n = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  bool p99_supported = false;
  /// The percentile reported as a "p99": 0.99 when the sample supports it,
  /// else HighestSupportedPercentile(n) (0 when even the median is not
  /// supported), and its value (0 when unsupported).
  double tail_percentile = 0.0;
  double tail = 0.0;
};
LatencySummary Summarize(std::vector<double> samples);

/// Median of a sample (0 when empty); used to combine repeated windows.
double Median(std::vector<double> values);

/// Lower quartile (nearest rank) of per-window tail latencies (0 when
/// empty): how a run combines its windows' p99s. A stall of the shared host
/// only ever adds latency, and on a 4-vCPU VM stalls of 1-10 ms came and
/// went for minutes at a time, spoiling the p99 of most windows in some
/// runs and of none in others. A change to the program moves every
/// window's p99, so it moves the lower quartile too.
double QuietWindowTail(std::vector<double> window_p99s);

inline constexpr double kMissed = std::numeric_limits<double>::infinity();

/// Closed-loop goodput: the samples (latencies in us, failures as kMissed)
/// within `limit_us`, per second of `wall_s` (0 when `wall_s` is not
/// positive). A failed or shed request never counts.
double GoodputQps(const std::vector<double>& latencies_us, double limit_us,
                  double wall_s);

/// A ratio that always travels with its base, so a reader can tell 1/2
/// from 500/1000.
struct Ratio {
  double numerator = 0.0;
  double denominator = 0.0;
  double value() const {
    return denominator > 0.0 ? numerator / denominator : 0.0;
  }
  /// "0.3100 (= 620 / 2000)".
  std::string Describe() const;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
