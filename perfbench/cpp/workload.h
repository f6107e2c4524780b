// Shared pieces of the four workloads: run options, the result every
// workload fills in, the seeded input generators, and readers for the
// registries' Prometheus text.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/nl2sql_workload.h"
#include "net/wire.h"
#include "sql/database.h"
#include "stats.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory (inside the checkout) for durable-store files and traces.
  std::string state_dir;
  /// Load threads, connections and serve workers are all capped at this
  /// (the host's core count, at most 4).
  size_t max_threads = 4;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;  // failed + shed
  uint64_t shed = 0;    // of `failed`, refused at admission
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result line.
  std::vector<std::string> report;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Note(const std::string& line) { report.push_back(line); }
  void Fail(const std::string& why) {
    correct = false;
    report.push_back("CHECK FAILED: " + why);
  }
};

RunResult RunWireFresh(const RunOptions& options);
RunResult RunServeReuse(const RunOptions& options);
RunResult RunCacheHot(const RunOptions& options);
RunResult RunCacheChurn(const RunOptions& options);

// ---- Inputs -----------------------------------------------------------

/// Deterministic 64-bit mix of a seed and a stream position.
uint64_t Mix(uint64_t seed, uint64_t index);

/// Every question of the stadium NL2SQL family over `years` consecutive
/// years ending in 2029: single conditions (event x superlative x year) and
/// compounds (condition x {or, and, but-not} x condition), addressed by
/// index. Conditions come first, so [0, conditions()) are the singles.
class QueryFamily {
 public:
  explicit QueryFamily(int years) : years_(years) {}
  size_t conditions() const { return 4 * static_cast<size_t>(years_); }
  size_t size() const;
  llmdm::data::Nl2SqlQuery Get(size_t index) const;
  std::vector<int> Years() const;
  /// The index of the same kind of question (single or compound, combiner,
  /// events, superlatives) with each condition's year drawn from `rng`.
  size_t Redate(size_t index, llmdm::common::Rng& rng) const;

 private:
  llmdm::data::EventCondition ConditionAt(size_t k) const;
  int years_;
};

/// A freeform prompt of roughly `words` words, unique to `index`.
std::string FreeformPrompt(uint64_t seed, uint64_t index, size_t words);

/// Builds the stadium database (6 stadiums, the family's years) every
/// workload grades, and the cache workloads query, against. It is the
/// system's data, not traffic, so it is the same for every seed (the
/// executor's cost grows with stadiums x years).
bool BuildStadiumDatabase(const QueryFamily& family, llmdm::sql::Database* db);

/// Grades predicted SQL by executing it and the gold SQL on one database;
/// gold results are memoised per question.
class Grader {
 public:
  explicit Grader(llmdm::sql::Database* db) : db_(db) {}
  /// True when the predicted SQL's result equals the gold result. When
  /// `predicted_us` is set it receives the wall time of the predicted
  /// query alone.
  bool Correct(const std::string& predicted_sql,
               const llmdm::data::Nl2SqlQuery& query,
               double* predicted_us = nullptr);

 private:
  llmdm::sql::Database* db_;
  std::map<std::string, std::shared_ptr<llmdm::data::Table>> gold_;
};

// ---- Layer probes (traced runs) ----------------------------------------

/// Wire codec, tokenizer and embedder timed on a workload's own inputs.
struct LayerProbes {
  double codec_ns_per_frame = 0.0;  // request + response frames, both ways
  double count_us_per_prompt = 0.0;
  double embed_us_per_query = 0.0;
  bool ok = false;  // every frame decoded and the tokenizer counted tokens
};
/// `answers[i]` is the response text to `requests[i]`.
LayerProbes ProbeLayers(const std::vector<llmdm::net::WireRequest>& requests,
                        const std::vector<std::string>& answers);

/// Hits over lookups of the process-wide tokenizer count memo.
Ratio TokenCacheHitShare();

// ---- Process and registry readings ------------------------------------

/// Peak resident memory since the last ResetPeakRss (or since the process
/// started): VmHWM from /proc/self/status.
double PeakRssMb();
/// Returns freed heap to the kernel and restarts the peak at the current
/// resident size, so work done before the system under test existed (input
/// generation) does not set the peak. False when the kernel refuses.
bool ResetPeakRss();

/// The value reported for a per-layer "p99": the p99 of `samples` when at
/// least kMinSamplesBeyond samples lie beyond its rank, else the highest
/// percentile that has them, noted in `result` by metric name.
double ReportedP99(std::vector<double> samples, const std::string& metric,
                   RunResult* result);

/// Sum of every series of counter/gauge `name` in Prometheus text.
double PromSum(const std::string& text, const std::string& name);

/// Quantile `q` of histogram `name` (linear within its bucket).
double PromHistogramQuantile(const std::string& text, const std::string& name,
                             double q);
/// Mean of histogram `name` (sum / count; 0 when empty).
double PromHistogramMean(const std::string& text, const std::string& name);

/// Where a thread runs. The load generator gets one CPU of its own (the
/// last the process may use) and the system under test the others but one,
/// which is left to the host and the process's other threads (with at
/// least three CPUs), so the scheduler cannot put the generator beside a
/// worker in one run and apart from it in the next.
enum class CpuSide { kGenerator, kSystem };
/// Pins the calling thread, and the threads it creates from then on, to
/// `side`'s CPUs. A no-op when the process may use only one CPU.
void PinCurrentThread(CpuSide side);

/// Times `setup` `reps` times and returns the median in seconds. Each call
/// must leave a complete, ready system behind (the last one is kept);
/// `teardown` runs untimed before every call but the first and removes the
/// previous one.
double MedianSetupSeconds(int reps, const std::function<void()>& teardown,
                          const std::function<void()>& setup);

/// Removes a directory tree created for a run's durable state.
void RemoveTree(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
