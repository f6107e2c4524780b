// serve_reuse: in-process serve::Server with tenants, single-flight and
// continuous batching on, fed NL2SQL bursts — the traffic where coalescing
// and batching do the work. Each burst is one Table II workload: the
// generator and options bench_table2_decomposition uses (20 questions over a
// pool of 4 conditions, 80% compound), so exact duplicates fall inside the
// in-flight window and near-duplicates share the prompt head as often as
// Table II's sharing structure makes them. One thread submits as fast as
// Submit returns (up to kMaxInFlight requests in flight); arrivals follow a
// fixed virtual-time schedule.
//
// The schedule is one epoch of kEpochRequests requests, replayed on a fresh
// server until the run's time is up. Every epoch is therefore the same
// deterministic experiment: the deterministic metrics come from the first
// epoch and every later epoch must reproduce it exactly.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <thread>

#include "common/hash.h"
#include "common/rng.h"
#include "llm/prompt.h"
#include "llm/simulated.h"
#include "net/wire.h"
#include "serve/server.h"
#include "stats.h"
#include "text/tokenizer.h"
#include "timed_model.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace llmdm;

constexpr size_t kEpochRequests = 2400;
constexpr int kSetupReps = 51;
/// The database the answers are graded on spans these years; Table II's
/// questions ask about 2014 and 2015.
constexpr int kFamilyYears = 45;
// The remaining traffic numbers have no measured source; they are
// assumptions, chosen so that nothing is shed (README, "Assumed traffic").
constexpr size_t kTenants = 4;
constexpr double kTenantWeights[kTenants] = {4, 2, 1, 1};
/// Virtual ms between bursts and between arrivals inside a burst: a burst
/// spans two batch windows, and the gap keeps the virtual slots below full
/// utilisation so nothing is shed.
constexpr double kBurstGapVms = 400.0;
constexpr double kInBurstGapVms = 1.0;
/// Requests the submitting thread keeps in flight. Unbounded, the submitter
/// outruns the workers and a request's wall latency is only its place in a
/// growing backlog (30% run-to-run spread); capped, latency is about
/// kMaxInFlight / throughput. The cap must exceed what can wait for a later
/// arrival to be dispatched or to close its batch (one burst of 20 plus the
/// open batch), or the submitter would wait forever.
constexpr size_t kMaxInFlight = 64;
constexpr int64_t kStallNs = 10'000'000'000;

struct Schedule {
  std::vector<serve::Request> requests;
  std::vector<data::Nl2SqlQuery> queries;
  /// Measured sharing: members whose question repeats an earlier member of
  /// their burst, and the others whose first condition does.
  size_t duplicates = 0;
  size_t shared_heads = 0;
};

/// Table II's workload options (bench_table2_decomposition.cc).
data::Nl2SqlWorkloadOptions TableTwoOptions() {
  data::Nl2SqlWorkloadOptions o;
  o.num_queries = 20;
  o.condition_pool = 4;
  o.compound_rate = 0.8;
  return o;
}

Schedule MakeSchedule(uint64_t seed) {
  Schedule s;
  common::Rng rng(Mix(seed, 0x5E7E));
  double t = 0.0;
  while (s.requests.size() < kEpochRequests) {
    std::vector<data::Nl2SqlQuery> burst =
        data::GenerateNl2SqlWorkload(TableTwoOptions(), rng);
    std::string tenant = "t" + std::to_string(rng.NextBelow(kTenants));
    for (size_t k = 0; k < burst.size(); ++k) {
      if (s.requests.size() == kEpochRequests) break;
      const data::Nl2SqlQuery& q = burst[k];
      bool duplicate = false, head = false;
      for (size_t j = 0; j < k; ++j) {
        duplicate = duplicate || burst[j] == q;
        head = head || burst[j].first == q.first;
      }
      s.duplicates += duplicate ? 1 : 0;
      s.shared_heads += !duplicate && head ? 1 : 0;
      serve::Request r;
      r.id = s.requests.size();
      r.skill = "nl2sql";
      r.input = q.ToNaturalLanguage();
      r.tenant = tenant;
      r.arrival_vms = t;
      t += kInBurstGapVms;
      s.requests.push_back(std::move(r));
      s.queries.push_back(q);
    }
    t += kBurstGapVms;
  }
  return s;
}

serve::Server::Options ServerOptions(size_t workers, bool reuse) {
  serve::Server::Options o;
  o.worker_threads = workers;
  o.virtual_concurrency = 4;
  o.queue_depth = 256;
  o.shed_policy = serve::ShedPolicy::kQueueFull;
  o.single_flight = reuse;
  o.batching = reuse;
  o.max_batch = 8;
  o.batch_window_vms = 10.0;
  for (size_t i = 0; i < kTenants; ++i) {
    serve::TenantConfig t;
    t.id = "t" + std::to_string(i);
    t.weight = kTenantWeights[i];
    t.quota_tokens_per_vs = 20000.0;
    t.quota_burst_tokens = 100000.0;
    t.queue_limit = 128;
    o.qos.tenants.push_back(t);
  }
  return o;
}

/// One response as the output checks see it.
struct Outcome {
  bool ok = false;
  bool shed = false;
  bool coalesced = false;
  int64_t cost_micros = 0;
  double latency_vms = 0.0;
  std::string text;
  uint64_t Fingerprint() const {
    return common::Fnv1a(text + "|" + std::to_string(cost_micros) + "|" +
                std::to_string(latency_vms) + "|" + (coalesced ? "c" : "-"));
  }
};

struct Epoch {
  std::vector<int64_t> submit_start_ns, submit_end_ns, done_ns;
  std::vector<Outcome> outcomes;
  int64_t start_ns = 0, end_ns = 0;
  std::string registry_text;
  int64_t cost_micros = 0;
  int64_t prefix_saved_micros = 0;
  int64_t coalesce_saved_micros = 0;
  size_t calls = 0;
  size_t input_tokens = 0;
  bool stalled = false;  // in-flight requests never completed
};

Epoch RunEpoch(const Schedule& schedule, std::shared_ptr<llm::LlmModel> model,
               size_t workers) {
  const size_t n = schedule.requests.size();
  Epoch e;
  e.submit_start_ns.resize(n);
  e.submit_end_ns.resize(n);
  e.done_ns.assign(n, -1);
  e.outcomes.resize(n);
  std::atomic<size_t> completed{0};
  serve::Server::Options o = ServerOptions(workers, /*reuse=*/true);
  o.retain_responses = false;
  o.response_sink = [&e, &completed](const serve::Response& r) {
    e.done_ns[r.id] = NowNs();
    Outcome& out = e.outcomes[r.id];
    out.ok = r.status.ok() && !r.shed;
    out.shed = r.shed;
    out.coalesced = r.coalesced;
    out.cost_micros = r.cost.micros();
    out.latency_vms = r.latency_vms;
    out.text = r.text;
    completed.fetch_add(1, std::memory_order_release);
  };
  serve::Server server(std::move(model), o);  // workers on kSystem CPUs
  PinCurrentThread(CpuSide::kGenerator);
  e.start_ns = NowNs();
  for (size_t i = 0; i < n && !e.stalled; ++i) {
    const int64_t wait_start = NowNs();
    while (i - completed.load(std::memory_order_acquire) >= kMaxInFlight) {
      if (NowNs() - wait_start > kStallNs) {
        e.stalled = true;
        break;
      }
      std::this_thread::yield();
    }
    if (e.stalled) break;
    e.submit_start_ns[i] = NowNs();
    server.Submit(schedule.requests[i]);
    e.submit_end_ns[i] = NowNs();
  }
  (void)server.Drain();
  e.end_ns = NowNs();
  PinCurrentThread(CpuSide::kSystem);
  e.registry_text = server.registry()->PrometheusText();
  llm::UsageMeter::Totals totals = server.meter().totals();
  e.cost_micros = totals.cost.micros();
  e.calls = totals.calls;
  e.input_tokens = totals.input_tokens;
  e.prefix_saved_micros = server.meter().batch_stats().prefix_saved.micros();
  e.coalesce_saved_micros =
      server.meter().coalesce_stats().saved.micros();
  return e;
}

/// Checks the first epoch against an unbatched, uncoalesced twin: every
/// executed request's text equals the twin's; a coalesced follower's text
/// equals the twin's text for its flight leader (the latest earlier
/// executed request with the same input); and the itemised savings
/// reconcile with the twin's spend to the micro.
void CheckAgainstTwin(const Schedule& schedule, const Epoch& e,
                      const llm::ModelSpec& spec,
                      std::shared_ptr<llm::LlmModel> model, size_t workers,
                      RunResult* result) {
  serve::Server twin(std::move(model), ServerOptions(workers, false));
  for (const serve::Request& r : schedule.requests) twin.Submit(r);
  std::vector<serve::Response> direct = twin.Drain();
  if (direct.size() != schedule.requests.size()) {
    result->Fail("twin answered " + std::to_string(direct.size()) + " of " +
                 std::to_string(schedule.requests.size()));
    return;
  }
  std::map<std::string, size_t> leader;  // input -> latest executed id
  int64_t twin_executed_micros = 0;
  int64_t coalesce_credit_micros = 0;
  for (size_t i = 0; i < schedule.requests.size(); ++i) {
    const std::string& input = schedule.requests[i].input;
    const Outcome& out = e.outcomes[i];
    if (!direct[i].status.ok() || direct[i].shed) {
      result->Fail("twin failed request " + std::to_string(i));
      return;
    }
    if (!out.coalesced) {
      leader[input] = i;
      twin_executed_micros += direct[i].cost.micros();
      if (out.text != direct[i].text) {
        result->Fail("request " + std::to_string(i) +
                     " text differs from the unbatched twin");
        return;
      }
      continue;
    }
    auto it = leader.find(input);
    if (it == leader.end() || out.text != direct[it->second].text) {
      result->Fail("coalesced request " + std::to_string(i) +
                   " does not carry its leader's text");
      return;
    }
    // The serve layer's credit for an avoided call: input tokens at the
    // batched (cached) input tier plus the answer's output tokens.
    llm::Prompt p = llm::MakePrompt("nl2sql", input);
    coalesce_credit_micros +=
        spec.cached_input_price_per_1k.micros() *
            static_cast<int64_t>(p.CountInputTokens()) / 1000 +
        spec.output_price_per_1k.micros() *
            static_cast<int64_t>(text::CountTokens(out.text)) / 1000;
  }
  if (e.cost_micros + e.prefix_saved_micros != twin_executed_micros) {
    result->Fail("batched spend + prefix savings (" +
                 std::to_string(e.cost_micros + e.prefix_saved_micros) +
                 ") != twin spend on executed requests (" +
                 std::to_string(twin_executed_micros) + ")");
  }
  if (e.coalesce_saved_micros != coalesce_credit_micros) {
    result->Fail("coalesce savings (" +
                 std::to_string(e.coalesce_saved_micros) +
                 ") != recomputed credit (" +
                 std::to_string(coalesce_credit_micros) + ")");
  }
  result->Note("twin check: executed spend " +
               std::to_string(twin_executed_micros) + " = batched " +
               std::to_string(e.cost_micros) + " + prefix saved " +
               std::to_string(e.prefix_saved_micros) +
               " micros; coalesce saved " +
               std::to_string(e.coalesce_saved_micros) + " micros");
}

}  // namespace

RunResult RunServeReuse(const RunOptions& options) {
  RunResult result;
  // One core stays with the submitting thread and one is left spare. With
  // a worker on every other core, the single submitter could not keep the
  // workers busy: how far it outran them, and so the queueing latency,
  // swung with thread placement from run to run (p50 spread 0.14-0.28 over
  // five seeds on a 4-vCPU VM). Two workers stay saturated, so latency is
  // about kMaxInFlight / throughput (spread 0.03-0.05).
  const size_t workers = std::max<size_t>(1, options.max_threads - 2);
  const QueryFamily family(kFamilyYears);
  // Server threads are created on this thread and inherit its CPUs.
  PinCurrentThread(CpuSide::kSystem);
  Schedule schedule = MakeSchedule(options.seed);
  const size_t n = schedule.requests.size();
  result.Note("traffic: " +
              Ratio{double(schedule.duplicates), double(n)}.Describe() +
              " exact duplicates of an earlier member of their burst, " +
              Ratio{double(schedule.shared_heads), double(n)}.Describe() +
              " others sharing its first condition (the prompt head)");

  // Set-up: the database the answers are graded on, the model, and a
  // server ready to admit. Every epoch then runs on a fresh server of its
  // own, so the set-up server is dropped once timed.
  std::shared_ptr<llm::LlmModel> base;
  std::unique_ptr<sql::Database> db;
  std::unique_ptr<serve::Server> ready;
  bool setup_ok = true;
  double setup_s = MedianSetupSeconds(
      kSetupReps,
      [&] {
        ready.reset();
        db.reset();
      },
      [&] {
        db = std::make_unique<sql::Database>();
        setup_ok = setup_ok && BuildStadiumDatabase(family, db.get());
        base = llm::CreatePaperModelLadder(nullptr, 2024)[1];
        ready = std::make_unique<serve::Server>(
            std::make_shared<TimedModel>(base, nullptr),
            ServerOptions(workers, true));
      });
  ready.reset();
  if (!setup_ok) {
    result.Fail("stadium database did not build");
    return result;
  }

  // Epochs until the time is up: the untraced ones, then (traced run) as
  // long again with spans recorded. Request ids restart every epoch, so
  // spans are digested per epoch.
  struct TraceDigest {
    std::map<std::string, double> self_ns;
    std::vector<double> call_us, dispatch_us, submit_us;
    std::vector<Span> first_epoch_spans;
  } digest;
  // Each epoch is digested as it finishes and dropped; only the first is
  // kept whole, as the reference every later epoch must reproduce.
  constexpr double kLimitUs = 20000.0;
  std::unique_ptr<Epoch> first;
  std::vector<uint64_t> fingerprints;
  size_t failed = 0, shed_count = 0;
  bool reproduced = true, stalled = false;
  // Per-epoch figures, reported as medians over epochs (p99: the lower
  // quartile), so a host stall moves them only when it spoils half (p99:
  // three quarters) of the epochs.
  struct Tally {
    size_t epochs = 0;
    size_t within_limit = 0;
    std::vector<double> p50s, p99s, qps;
  } untraced, traced_tally;
  auto digest_epoch = [&](Epoch e, Tally* tally) {
    stalled = stalled || e.stalled;
    bool same = first == nullptr ||
                (e.cost_micros == first->cost_micros &&
                 e.prefix_saved_micros == first->prefix_saved_micros &&
                 e.coalesce_saved_micros == first->coalesce_saved_micros);
    std::vector<double> lat;
    for (size_t i = 0; i < n; ++i) {
      const Outcome& o = e.outcomes[i];
      if (!o.ok || e.done_ns[i] < 0) {
        ++failed;
        if (o.shed) ++shed_count;
        lat.push_back(kMissed);
        continue;
      }
      double us =
          static_cast<double>(e.done_ns[i] - e.submit_start_ns[i]) / 1e3;
      lat.push_back(us);
      if (us <= kLimitUs) ++tally->within_limit;
      if (first != nullptr) same = same && o.Fingerprint() == fingerprints[i];
    }
    if (!same) reproduced = false;
    LatencySummary summary = Summarize(std::move(lat));
    tally->p50s.push_back(summary.p50);
    tally->p99s.push_back(summary.p99);
    tally->qps.push_back(static_cast<double>(n) /
                         (static_cast<double>(e.end_ns - e.start_ns) / 1e9));
    ++tally->epochs;
    if (first == nullptr) {
      for (const Outcome& o : e.outcomes) {
        fingerprints.push_back(o.Fingerprint());
      }
      first = std::make_unique<Epoch>(std::move(e));
    }
  };
  // Adds one traced epoch's spans to the digest: the request roots and
  // Submit calls are recorded here, the model calls by TimedModel.
  auto digest_trace = [&](const Epoch& e, SpanRecorder& recorder) {
    for (size_t i = 0; i < n; ++i) {
      recorder.RecordRoot(i, e.submit_start_ns[i], e.done_ns[i]);
      recorder.Record("serve.submit", i, SpanRecorder::RootSpanId(i),
                      e.submit_start_ns[i], e.submit_end_ns[i]);
      digest.submit_us.push_back(
          static_cast<double>(e.submit_end_ns[i] - e.submit_start_ns[i]) /
          1e3);
    }
    std::vector<Span> spans = recorder.Take();
    for (const auto& [layer, ns] : SelfTimeNsByLayer(spans)) {
      digest.self_ns[layer] += ns;
    }
    // One duration per model call (a batch is one call), and per request
    // the wait from Submit's return to its model call's start.
    std::set<std::pair<int64_t, int64_t>> batches;
    for (const Span& sp : spans) {
      std::string name = sp.name;
      if (name != "llm.call" && name != "llm.batch") continue;
      if (name == "llm.call" ||
          batches.insert({sp.start_ns, sp.end_ns}).second) {
        digest.call_us.push_back(
            static_cast<double>(sp.end_ns - sp.start_ns) / 1e3);
      }
      digest.dispatch_us.push_back(
          static_cast<double>(sp.start_ns - e.submit_end_ns[sp.request]) /
          1e3);
    }
    if (digest.first_epoch_spans.empty()) {
      digest.first_epoch_spans = std::move(spans);
    }
  };
  auto run_epochs = [&](double seconds, bool traced, Tally* tally) {
    int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
    do {
      SpanRecorder recorder;
      auto model = std::make_shared<TimedModel>(base,
                                                traced ? &recorder : nullptr);
      Epoch e = RunEpoch(schedule, model, workers);
      if (traced) digest_trace(e, recorder);
      digest_epoch(std::move(e), tally);
    } while (NowNs() < deadline || tally->epochs < 2);
  };
  run_epochs(options.trace ? options.seconds / 2 : options.seconds, false,
             &untraced);
  if (options.trace) run_epochs(options.seconds / 2, true, &traced_tally);

  // Read before the output checks, whose own memory is not the system's.
  const double peak_rss_mb = PeakRssMb();

  // ---- Output checks ----
  if (!reproduced) {
    result.Fail("an epoch did not reproduce the first epoch exactly");
  }
  if (stalled) result.Fail("submission stalled with requests in flight");
  result.attempted = n * (untraced.epochs + traced_tally.epochs);
  result.failed = failed;
  result.shed = shed_count;
  CheckAgainstTwin(schedule, *first, base->spec(), base, workers, &result);

  Grader grader(db.get());
  size_t correct = 0;
  std::vector<double> sql_us;
  for (size_t i = 0; i < n; ++i) {
    double us = 0.0;
    if (grader.Correct(first->outcomes[i].text, schedule.queries[i], &us)) {
      ++correct;
    }
    sql_us.push_back(us);
  }
  Ratio accuracy{static_cast<double>(correct), static_cast<double>(n)};
  std::vector<double> vms;
  for (const Outcome& o : first->outcomes) vms.push_back(o.latency_vms);

  const double qps = Median(untraced.qps);
  result.Note(std::to_string(untraced.epochs) + " epochs of " +
              std::to_string(n) +
              " requests; latency is Submit call to completion: p50 the median "
              "of per-epoch p50s, p99 the lower quartile of per-epoch p99s; "
              "accuracy " + accuracy.Describe());

  if (!options.trace) {
    result.Add("setup_s", setup_s, "s");
    result.Add("throughput_qps", qps, "1/s");
    // Completions within kLimitUs per wall second, as on wire_fresh.
    result.Add("goodput_qps",
               qps * static_cast<double>(untraced.within_limit) /
                   static_cast<double>(n * untraced.epochs),
               "1/s");
    result.Add("latency_p50_us", Median(untraced.p50s), "us");
    result.Add("latency_p99_us", QuietWindowTail(untraced.p99s), "us");
    result.Add("latency_p99_vms", Summarize(vms).p99, "vms");
    result.Add("cost_per_query_micros",
               static_cast<double>(first->cost_micros) / n, "micros");
    result.Add("accuracy", accuracy.value(), "share");
    result.Add("success_share",
               static_cast<double>(result.attempted - failed) /
                   static_cast<double>(result.attempted),
               "share");
    result.Add("peak_rss_mb", peak_rss_mb, "MB");
    return result;
  }

  // ---- Per-layer metrics (traced run) ----
  const std::string& reg = first->registry_text;
  double submitted = PromSum(reg, "llmdm_serve_submitted_total");
  Ratio coalesced{PromSum(reg, "llmdm_serve_coalesced_total"), submitted};
  Ratio shed{PromSum(reg, "llmdm_serve_shed_total"), submitted};
  Ratio calls{static_cast<double>(first->calls), static_cast<double>(n)};
  Ratio tokens{static_cast<double>(first->input_tokens),
               static_cast<double>(n)};
  Ratio prefix{PromSum(reg, "llmdm_batch_prefix_cached_tokens_total"),
               static_cast<double>(first->input_tokens)};


  std::vector<net::WireRequest> probe_requests;
  std::vector<std::string> probe_answers;
  for (size_t i = 0; i < n; ++i) {
    net::WireRequest w;
    w.id = i;
    w.tenant = schedule.requests[i].tenant;
    w.skill = schedule.requests[i].skill;
    w.input = schedule.requests[i].input;
    probe_requests.push_back(std::move(w));
    probe_answers.push_back(first->outcomes[i].text);
  }
  const LayerProbes probes = ProbeLayers(probe_requests, probe_answers);
  if (!probes.ok) result.Fail("layer probes failed");
  const Ratio token_cache = TokenCacheHitShare();
  std::map<std::string, double>& self = digest.self_ns;
  const double traced_requests =
      static_cast<double>(n * traced_tally.epochs);
  auto self_us = [&](const char* layer) {
    return self[layer] / 1e3 / traced_requests;
  };

  result.Add("net.server_wall_us.p50", 0.0, "us");
  result.Add("net.client_overhead_us.p50", 0.0, "us");
  result.Add("net.codec_ns_per_frame", probes.codec_ns_per_frame, "ns");
  result.Add("net.bytes_per_request", 0.0, "bytes");
  result.Add("net.backpressure_pauses", 0.0, "count");
  result.Add("net.protocol_errors", 0.0, "count");
  result.Add("serve.submit_us.p50", Summarize(digest.submit_us).p50, "us");
  result.Add("serve.submit_us.p99",
             ReportedP99(digest.submit_us, "serve.submit_us.p99", &result),
             "us");
  result.Add("serve.dispatch_wait_us.p50", Summarize(digest.dispatch_us).p50,
             "us");
  result.Add("serve.coalesced_share", coalesced.value(), "share");
  result.Add("serve.batch_occupancy_mean",
             PromHistogramMean(reg, "llmdm_batch_occupancy"), "count");
  result.Add("serve.shed_share", shed.value(), "share");
  result.Add("llm.call_us.p50", Summarize(digest.call_us).p50, "us");
  result.Add("llm.call_us.p99",
             ReportedP99(digest.call_us, "llm.call_us.p99", &result), "us");
  result.Add("llm.calls_per_query", calls.value(), "count");
  result.Add("llm.input_tokens_per_query", tokens.value(), "count");
  result.Add("llm.prefix_cached_share", prefix.value(), "share");
  result.Add("text.count_us_per_prompt", probes.count_us_per_prompt, "us");
  result.Add("text.token_cache_hit_share", token_cache.value(), "share");
  for (const char* name :
       {"cache.lookup_us.p50", "cache.lookup_us.p99", "cache.insert_us.p50",
        "cache.insert_us.p99"}) {
    result.Add(name, 0.0, "us");
  }
  result.Add("cache.hit_share", 0.0, "share");
  result.Add("cache.evictions_per_insert", 0.0, "count");
  result.Add("cache.retained_bytes_per_entry", 0.0, "bytes");
  result.Add("embed.us_per_query", probes.embed_us_per_query, "us");
  result.Add("vectordb.scan_us.p50", 0.0, "us");
  result.Add("vectordb.entries_per_shard", 0.0, "count");
  result.Add("durability.checkpoint_us", 0.0, "us");
  result.Add("durability.wal_bytes_per_insert", 0.0, "bytes");
  result.Add("durability.wal_writes_per_insert", 0.0, "count");
  result.Add("sql.query_us.p50", Summarize(sql_us).p50, "us");
  result.Add("self.unattributed_us_per_query", self_us("unattributed"), "us");
  result.Add("self.net_us_per_query", self_us("net"), "us");
  result.Add("self.serve_us_per_query", self_us("serve"), "us");
  result.Add("self.llm_us_per_query", self_us("llm"), "us");
  result.Add("self.cache_us_per_query", self_us("cache"), "us");
  result.Add("self.sql_us_per_query", self_us("sql"), "us");
  result.Add("self.durability_us_per_query", self_us("durability"), "us");
  result.Add("bench.turnaround_us.p99", 0.0, "us");
  result.Add("bench.tracing_overhead",
             qps / Median(traced_tally.qps) - 1, "share");
  result.Note("bases: serve.coalesced_share " + coalesced.Describe() +
              "; serve.shed_share " + shed.Describe() +
              "; llm.calls_per_query " + calls.Describe() +
              "; llm.input_tokens_per_query " + tokens.Describe() +
              "; llm.prefix_cached_share " + prefix.Describe() +
              "; text.token_cache_hit_share " + token_cache.Describe());
  result.Note("bypassed on serve_reuse (0): net transport, cache, vectordb, "
              "durability; no network generator (bench.turnaround_us.p99 0)");
  result.Note("tracing overhead = untraced throughput / traced throughput - 1");
  if (!WriteSpans(digest.first_epoch_spans,
                  options.state_dir + "/serve_reuse.spans.csv")) {
    result.Note("could not write the span file");
  }
  return result;
}

}  // namespace perfbench
