#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

size_t NearestRank(double p, size_t n) {
  double exact = std::ceil(p * static_cast<double>(n) - 1e-9);
  size_t rank = exact < 1.0 ? 1 : static_cast<size_t>(exact);
  return std::min(rank, n);
}

bool PercentileSupported(double p, size_t n) {
  if (n == 0) return false;
  return n - NearestRank(p, n) >= kMinSamplesBeyond;
}

double HighestSupportedPercentile(size_t n) {
  for (double p : {0.999, 0.99, 0.95, 0.9, 0.75, 0.5}) {
    if (PercentileSupported(p, n)) return p;
  }
  return 0.0;
}

double PercentileOfSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  return sorted[NearestRank(p, sorted.size()) - 1];
}

LatencySummary Summarize(std::vector<double> samples) {
  LatencySummary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = PercentileOfSorted(samples, 0.5);
  s.p99 = PercentileOfSorted(samples, 0.99);
  s.p99_supported = PercentileSupported(0.99, s.n);
  s.tail_percentile = std::min(0.99, HighestSupportedPercentile(s.n));
  s.tail = s.tail_percentile > 0.0
               ? PercentileOfSorted(samples, s.tail_percentile)
               : 0.0;
  return s;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return 0.5 * (values[mid - 1] + values[mid]);
}

double QuietWindowTail(std::vector<double> window_p99s) {
  std::sort(window_p99s.begin(), window_p99s.end());
  return PercentileOfSorted(window_p99s, 0.25);
}

double GoodputQps(const std::vector<double>& latencies_us, double limit_us,
                  double wall_s) {
  if (wall_s <= 0.0) return 0.0;
  size_t within = 0;
  for (double us : latencies_us) within += us <= limit_us ? 1 : 0;
  return static_cast<double>(within) / wall_s;
}

std::string Ratio::Describe() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%.4f (= %.0f / %.0f)", value(), numerator,
                denominator);
  return buf;
}

}  // namespace perfbench
