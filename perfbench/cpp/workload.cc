#include "workload.h"

#include <dirent.h>
#include <malloc.h>
#include <sched.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/rng.h"
#include "embed/embedder.h"
#include "llm/prompt.h"
#include "obs/metrics.h"
#include "trace.h"

namespace perfbench {

uint64_t Mix(uint64_t seed, uint64_t index) {
  // splitmix64 over the pair.
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + index + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {
constexpr size_t kCombiners = 3;
constexpr int kLastYear = 2029;
}  // namespace

llmdm::data::EventCondition QueryFamily::ConditionAt(size_t k) const {
  llmdm::data::EventCondition c;
  c.event = k % 2 == 0 ? llmdm::data::EventKind::kConcert
                       : llmdm::data::EventKind::kSportsMeeting;
  c.superlative = (k / 2) % 2 == 1;
  c.year = kLastYear - years_ + 1 + static_cast<int>(k / 4);
  return c;
}

size_t QueryFamily::size() const {
  return conditions() + conditions() * kCombiners * conditions();
}

llmdm::data::Nl2SqlQuery QueryFamily::Get(size_t index) const {
  llmdm::data::Nl2SqlQuery q;
  index %= size();
  if (index < conditions()) {
    q.first = ConditionAt(index);
    return q;
  }
  size_t j = index - conditions();
  q.first = ConditionAt(j / (kCombiners * conditions()));
  size_t rest = j % (kCombiners * conditions());
  static constexpr llmdm::data::Combiner kComb[kCombiners] = {
      llmdm::data::Combiner::kOr, llmdm::data::Combiner::kAnd,
      llmdm::data::Combiner::kAndNot};
  q.combiner = kComb[rest / conditions()];
  q.second = ConditionAt(rest % conditions());
  return q;
}

size_t QueryFamily::Redate(size_t index, llmdm::common::Rng& rng) const {
  const size_t n = conditions();
  // Condition k is kind k % 4 in year k / 4.
  auto redate = [&](size_t k) { return k % 4 + 4 * rng.NextBelow(years_); };
  index %= size();
  if (index < n) return redate(index);
  const size_t j = index - n;
  const size_t first = redate(j / (kCombiners * n));
  const size_t rest = j % (kCombiners * n);
  return n + first * kCombiners * n + rest / n * n + redate(rest % n);
}

std::vector<int> QueryFamily::Years() const {
  std::vector<int> years;
  for (int y = kLastYear - years_ + 1; y <= kLastYear; ++y) years.push_back(y);
  return years;
}

std::string FreeformPrompt(uint64_t seed, uint64_t index, size_t words) {
  static const char* kVocabulary[] = {
      "table",   "column",   "schema",  "join",      "index",    "query",
      "tuple",   "lineage",  "cleaning", "entity",   "resolution", "lake",
      "vector",  "embedding", "cache",  "prompt",    "cost",     "latency",
      "partition", "shard",  "replica", "snapshot",  "log",      "commit",
      "predicate", "filter", "aggregate", "window",  "operator", "plan",
      "optimizer", "statistics", "histogram", "sample", "skew",  "zipf",
      "customer", "order",   "invoice", "shipment",  "supplier", "region",
      "revenue", "quarter",  "forecast", "anomaly",  "duplicate", "missing",
      "value",   "format",   "date",    "currency",  "address",  "phone",
      "summarize", "explain", "classify", "extract", "translate", "rewrite",
      "compare", "validate", "annotate", "describe"};
  constexpr size_t kWords = sizeof(kVocabulary) / sizeof(kVocabulary[0]);
  llmdm::common::Rng rng(Mix(seed, index));
  std::string out = "request " + std::to_string(index) + ":";
  for (size_t w = 0; w < words; ++w) {
    out += ' ';
    out += kVocabulary[rng.NextBelow(kWords)];
  }
  return out;
}

bool BuildStadiumDatabase(const QueryFamily& family,
                          llmdm::sql::Database* db) {
  llmdm::common::Rng rng(20240706);
  return db
      ->ExecuteScript(llmdm::data::BuildStadiumDatabaseScript(
          6, family.Years(), rng))
      .ok();
}

bool Grader::Correct(const std::string& predicted_sql,
                     const llmdm::data::Nl2SqlQuery& query,
                     double* predicted_us) {
  std::string gold_sql = query.ToGoldSql();
  auto it = gold_.find(gold_sql);
  if (it == gold_.end()) {
    auto gold = db_->Query(gold_sql);
    std::shared_ptr<llmdm::data::Table> table;
    if (gold.ok()) {
      table = std::make_shared<llmdm::data::Table>(std::move(*gold));
    }
    it = gold_.emplace(gold_sql, std::move(table)).first;
  }
  int64_t start = NowNs();
  auto predicted = db_->Query(predicted_sql);
  if (predicted_us != nullptr) {
    *predicted_us = static_cast<double>(NowNs() - start) / 1e3;
  }
  if (it->second == nullptr) return false;
  return predicted.ok() && predicted->BagEquals(*it->second);
}

LayerProbes ProbeLayers(const std::vector<llmdm::net::WireRequest>& requests,
                        const std::vector<std::string>& answers) {
  LayerProbes out;
  if (requests.empty()) return out;
  const double n = static_cast<double>(requests.size());
  int64_t start = NowNs();
  size_t decoded = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    llmdm::net::WireResponse response;
    response.id = requests[i].id;
    response.text = answers[i];
    llmdm::net::FrameDecoder decoder;
    (void)decoder.Feed(llmdm::net::EncodeRequestFrame(requests[i]));
    (void)decoder.Feed(llmdm::net::EncodeResponseFrame(response, false));
    llmdm::net::Frame frame;
    while (decoder.Next(&frame)) {
      bool ok = frame.type == llmdm::net::FrameType::kRequest
                    ? llmdm::net::DecodeRequest(frame.payload).ok()
                    : llmdm::net::DecodeResponse(frame.payload).ok();
      decoded += ok ? 1 : 0;
    }
  }
  out.codec_ns_per_frame =
      static_cast<double>(NowNs() - start) / std::max<double>(1, decoded);

  std::vector<llmdm::llm::Prompt> prompts;
  for (const llmdm::net::WireRequest& r : requests) {
    prompts.push_back(llmdm::llm::MakePrompt(r.skill, r.input));
  }
  start = NowNs();
  size_t tokens = 0;
  for (const llmdm::llm::Prompt& p : prompts) tokens += p.CountInputTokens();
  out.count_us_per_prompt = static_cast<double>(NowNs() - start) / 1e3 / n;

  llmdm::embed::HashingEmbedder embedder;
  llmdm::embed::Vector v;
  start = NowNs();
  for (const llmdm::net::WireRequest& r : requests) {
    embedder.EmbedInto(r.input, &v);
  }
  out.embed_us_per_query = static_cast<double>(NowNs() - start) / 1e3 / n;
  out.ok = decoded == 2 * requests.size() && tokens > 0;
  return out;
}

Ratio TokenCacheHitShare() {
  std::string text = llmdm::obs::Registry::Global().PrometheusText();
  double hits = PromSum(text, "llmdm_text_token_cache_hits_total");
  return {hits, hits + PromSum(text, "llmdm_text_token_cache_misses_total")};
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.compare(0, 6, "VmHWM:") == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

bool ResetPeakRss() {
  ::malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";  // 5: reset the peak resident set size
  clear.flush();
  return clear.good();
}

double ReportedP99(std::vector<double> samples, const std::string& metric,
                   RunResult* result) {
  LatencySummary s = Summarize(std::move(samples));
  if (!s.p99_supported) {
    char line[200];
    std::snprintf(line, sizeof(line),
                  "%s: %zu samples leave fewer than %zu beyond the p99; "
                  "reported at p%g instead",
                  metric.c_str(), s.n, kMinSamplesBeyond,
                  s.tail_percentile * 100);
    result->Note(line);
  }
  return s.tail;
}

namespace {

// Calls `fn(labels, value)` for every sample line of series `name` +
// `suffix` (suffix "" for counters/gauges, "_bucket" etc. for histograms).
template <typename Fn>
void ForEachSample(const std::string& text, const std::string& series,
                   Fn&& fn) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.compare(0, series.size(), series) != 0) continue;
    size_t pos = series.size();
    std::string labels;
    if (pos < line.size() && line[pos] == '{') {
      size_t close = line.find('}', pos);
      if (close == std::string::npos) continue;
      labels = line.substr(pos + 1, close - pos - 1);
      pos = close + 1;
    }
    if (pos >= line.size() || line[pos] != ' ') continue;
    fn(labels, std::strtod(line.c_str() + pos + 1, nullptr));
  }
}

}  // namespace

double PromSum(const std::string& text, const std::string& name) {
  double sum = 0.0;
  ForEachSample(text, name, [&](const std::string&, double v) { sum += v; });
  return sum;
}

double PromHistogramQuantile(const std::string& text, const std::string& name,
                             double q) {
  std::vector<std::pair<double, double>> buckets;  // (upper bound, cumulative)
  ForEachSample(text, name + "_bucket",
                [&](const std::string& labels, double cumulative) {
                  size_t le = labels.find("le=\"");
                  if (le == std::string::npos) return;
                  std::string bound = labels.substr(le + 4);
                  bound = bound.substr(0, bound.find('"'));
                  double upper = bound == "+Inf" ? kMissed
                                                 : std::strtod(bound.c_str(),
                                                               nullptr);
                  buckets.push_back({upper, cumulative});
                });
  if (buckets.empty() || buckets.back().second <= 0.0) return 0.0;
  double target = q * buckets.back().second;
  double lower = 0.0;
  double below = 0.0;
  for (const auto& [upper, cumulative] : buckets) {
    if (cumulative >= target) {
      if (upper == kMissed) return lower;  // open top bucket: report its floor
      double in_bucket = cumulative - below;
      double frac = in_bucket > 0.0 ? (target - below) / in_bucket : 0.0;
      return lower + frac * (upper - lower);
    }
    lower = upper;
    below = cumulative;
  }
  return lower;
}

double PromHistogramMean(const std::string& text, const std::string& name) {
  double count = PromSum(text, name + "_count");
  return count > 0.0 ? PromSum(text, name + "_sum") / count : 0.0;
}

void PinCurrentThread(CpuSide side) {
  // The process's CPUs, read once, before any thread was pinned.
  static const cpu_set_t kAllowed = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) CPU_ZERO(&set);
    return set;
  }();
  if (CPU_COUNT(&kAllowed) < 2) return;
  int last = -1, spare = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &kAllowed)) continue;
    if (CPU_COUNT(&kAllowed) >= 3) spare = last;
    last = cpu;
  }
  cpu_set_t set = kAllowed;
  if (side == CpuSide::kGenerator) {
    CPU_ZERO(&set);
    CPU_SET(last, &set);
  } else {
    CPU_CLR(last, &set);
    if (spare >= 0) CPU_CLR(spare, &set);
  }
  (void)sched_setaffinity(0, sizeof(set), &set);
}

double MedianSetupSeconds(int reps, const std::function<void()>& teardown,
                          const std::function<void()>& setup) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    if (i > 0) teardown();
    int64_t start = NowNs();
    setup();
    times.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }
  return Median(times);
}

void RemoveTree(const std::string& path) {
  if (DIR* dir = ::opendir(path.c_str())) {
    while (struct dirent* entry = ::readdir(dir)) {
      std::string name = entry->d_name;
      if (name == "." || name == "..") continue;
      std::string child = path + "/" + name;
      struct stat st;
      if (::lstat(child.c_str(), &st) == 0 && S_ISDIR(st.st_mode)) {
        RemoveTree(child);
      } else {
        ::unlink(child.c_str());
      }
    }
    ::closedir(dir);
  }
  ::rmdir(path.c_str());
}

}  // namespace perfbench
