// wire_fresh: the deployed llmdm_server path, driven closed loop over one
// loopback connection. Every prompt is unique (nl2sql questions drawn
// without replacement plus freeform prompts of mixed length), so no reuse
// mechanism can help and the transport + legacy admission cost per request
// is what is measured.
//
// The run is a sequence of windows of kWindowRequests requests. A window's
// requests are generated (untimed), sent with kDepth of them in flight
// (timed), and every response is checked against a direct Submit on a twin
// server (untimed). Metrics are medians over windows.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <set>

#include "common/hash.h"
#include "common/rng.h"
#include "llm/simulated.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "serve/server.h"
#include "stats.h"
#include "timed_model.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace llmdm;

/// Requests kept in flight on the connection: a response is followed at
/// once by the next request. A stall of any thread on the path delays every
/// request in flight, so a window's p99 rises once stalls hit more than
/// 1% / kDepth of its requests; few in flight keep the tail steady. On a
/// shared 4-vCPU VM, 4 in flight kept ~85% of the throughput of 16, at p50
/// ~110 us instead of ~380 us, and in a noisy stretch the run's p99 read
/// 0.34 ms where 16 in flight read 2.6 ms. An open loop at fixed rates was
/// tried first: a host stall of a few ms left a backlog that the rest of
/// the window paid for, and p50 read 0.1-3 ms and the goodput ladder
/// 0-22k/s across runs of the same code.
constexpr size_t kDepth = 4;
/// Requests per window; the first window is the warm-up and the source of
/// the deterministic metrics (cost, virtual latency, accuracy).
constexpr size_t kWindowRequests = 2000;
/// Windows per session. Each session runs on a fresh stack, so every run
/// measures the same sequence of server lifetimes. A serve::Server's
/// admission cost grows with the requests it has admitted (with the stack
/// spread over a 4-vCPU VM, window throughput fell from ~58k/s to ~13k/s
/// over 400k requests), so windows of one long-lived server would depend on how many
/// requests earlier windows got through, and the run on how fast the host
/// happened to be. 50 windows (100k requests) keep that growth in every
/// session: the report gives a session's first- and last-window throughput.
constexpr size_t kSessionWindows = 50;
/// goodput_qps counts completions within this wall latency from the send.
constexpr double kLatencyLimitUs = 1000.0;
/// Virtual spacing of arrivals: far above the mean estimated service time
/// over the virtual slots, so admission never sheds.
constexpr double kArrivalGapVms = 1000.0;
constexpr int kSetupReps = 51;
/// The traffic mix is an assumption with no measured source (README,
/// "Assumed traffic"): two nl2sql questions in every five requests, at
/// seeded places, the rest freeform prompts of kShortWords (60%),
/// kMediumWords (30%) or kLongWords (10%) words plus up to a quarter more.
constexpr size_t kBlockRequests = 5;
constexpr size_t kShortWords = 12, kMediumWords = 80, kLongWords = 400;

class WireInputs {
 public:
  /// 100 years give ~480k distinct questions, drawn without replacement:
  /// none repeats in the first UniqueRequests() requests (~1.2M; a 10 s
  /// run sends ~0.2M on a 4-vCPU VM).
  explicit WireInputs(uint64_t seed) : seed_(seed), family_(100) {
    order_.resize(family_.size());
    for (size_t i = 0; i < order_.size(); ++i) {
      order_[i] = static_cast<uint32_t>(i);
    }
    common::Rng rng(Mix(seed, 0x5EED));
    rng.Shuffle(order_);
  }

  /// Request `id` of the stream; a pure function of (seed, id).
  net::WireRequest Make(uint64_t id) const {
    common::Rng rng(Mix(seed_, id));
    net::WireRequest r;
    r.id = id;
    r.arrival_vms = static_cast<double>(id) * kArrivalGapVms;
    if (Nl2SqlOrdinal(id) >= 0) {
      r.skill = "nl2sql";
      r.input = Query(id).ToNaturalLanguage();
    } else {
      double u = rng.UniformDouble();
      size_t words =
          u < 0.6 ? kShortWords : (u < 0.9 ? kMediumWords : kLongWords);
      words += rng.NextBelow(words / 4 + 1);
      r.skill = "freeform";
      r.input = FreeformPrompt(seed_, id, words);
    }
    return r;
  }

  /// The question of nl2sql request `id`.
  data::Nl2SqlQuery Query(uint64_t id) const {
    return family_.Get(order_[Nl2SqlOrdinal(id) % order_.size()]);
  }
  uint64_t UniqueRequests() const {
    return order_.size() / 2 * kBlockRequests;
  }
  const QueryFamily& family() const { return family_; }

 private:
  /// The rank of `id` among the stream's nl2sql requests, or -1 when it is
  /// a freeform request: each block of kBlockRequests consecutive ids holds
  /// two nl2sql requests at places drawn from (seed, block).
  int64_t Nl2SqlOrdinal(uint64_t id) const {
    const uint64_t block = id / kBlockRequests;
    common::Rng rng(Mix(Mix(seed_, 0xB10C), block));
    uint64_t a = rng.NextBelow(kBlockRequests);
    uint64_t b = rng.NextBelow(kBlockRequests - 1);
    if (b >= a) ++b;
    const uint64_t place = id % kBlockRequests;
    if (place != a && place != b) return -1;
    return static_cast<int64_t>(2 * block + (place == std::min(a, b) ? 0 : 1));
  }


  uint64_t seed_;
  QueryFamily family_;
  std::vector<uint32_t> order_;
};

/// The generator, the NetServer loop and the serve worker share one CPU
/// (CpuSide::kGenerator), so a window measures the path's CPU cost per
/// request. Spread over four CPUs, the path ran only when every CPU it
/// needed did: on a shared 4-vCPU VM, a stretch in which the host took
/// vCPUs away cut throughput to a quarter for two runs in a row (against
/// ~20% on single-threaded workloads), while on one CPU the path ran at
/// ~80% of the four-CPU rate, a cross-CPU wake-up costing about as much as
/// the switch it replaces.
constexpr size_t kWorkers = 1;

/// The same serve options tools/llmdm_server.cc deploys, with `slots`
/// virtual slots and kWorkers threads.
serve::Server::Options BackendOptions(size_t slots, obs::Registry* registry) {
  serve::Server::Options o;
  o.worker_threads = kWorkers;
  o.virtual_concurrency = slots;
  o.queue_depth = 64;
  o.shed_policy = serve::ShedPolicy::kQueueFull;
  o.registry = registry;
  o.retain_responses = false;
  return o;
}


/// The deployed stack: serve::Server behind net::NetServer, and one client
/// connection. NetServer clamps arrival_vms forward across connections;
/// one connection keeps arrivals in order.
struct Stack {
  obs::Registry registry;
  std::unique_ptr<serve::Server> backend;
  std::unique_ptr<net::NetServer> server;
  net::Client client;

  ~Stack() { Stop(); }
  /// Drains and stops everything; idempotent.
  void Stop() {
    client.Close();
    if (server != nullptr) server->Shutdown();
    server.reset();
    if (backend != nullptr) (void)backend->Drain();
    backend.reset();
  }
};

std::unique_ptr<Stack> StartStack(const RunOptions& options,
                                  SpanRecorder* spans) {
  auto stack = std::make_unique<Stack>();
  auto ladder = llm::CreatePaperModelLadder(nullptr, 2024);
  auto model = std::make_shared<TimedModel>(ladder[2], spans);
  stack->backend = std::make_unique<serve::Server>(
      model, BackendOptions(options.max_threads, &stack->registry));
  net::NetServer::Options no;
  no.port = 0;
  no.registry = &stack->registry;
  stack->server = std::make_unique<net::NetServer>(stack->backend.get(), no);
  if (!stack->server->Start().ok()) return nullptr;
  net::Client::Options co;
  co.port = stack->server->port();
  co.recv_timeout_ms = 10000;
  if (!stack->client.Connect(co).ok()) return nullptr;
  return stack;
}

/// What the output check needs from each response.
struct Answer {
  bool ok = false;
  bool shed = false;
  uint64_t text_hash = 0;
  uint64_t model_hash = 0;
  int64_t cost_micros = 0;
  double latency_vms = 0.0;
  std::string text;  // kept for the first window only
};

struct Window {
  uint64_t first_id = 0;
  std::vector<int64_t> sent_ns, send_end_ns;
  std::vector<int64_t> done_ns;  // -1: failed, shed or unanswered
  std::vector<Answer> answers;
  /// Per answer that refilled the pipeline: answer to the next Send, in us.
  std::vector<double> turnaround_us;
  int64_t start_ns = 0, end_ns = 0;
  size_t failed = 0, shed = 0;
  bool transport_ok = true;
};

/// Sends `requests` (ids first_id, first_id + 1, ...) over the stack's
/// connection with kDepth in flight, from this thread alone, and returns
/// once every response has arrived.
Window RunWindow(Stack& stack, const std::vector<net::WireRequest>& requests,
                 uint64_t first_id, bool keep_text) {
  const size_t n = requests.size();
  Window w;
  w.first_id = first_id;
  w.sent_ns.resize(n);
  w.send_end_ns.resize(n);
  w.done_ns.assign(n, -1);
  w.answers.resize(n);
  size_t sent = 0, received = 0;
  auto send_next = [&] {
    w.sent_ns[sent] = NowNs();
    if (!stack.client.Send(requests[sent]).ok()) w.transport_ok = false;
    w.send_end_ns[sent] = NowNs();
    ++sent;
  };
  w.start_ns = NowNs();
  while (sent < std::min(kDepth, n)) send_next();
  for (; received < n && w.transport_ok; ++received) {
    auto result = stack.client.Receive();
    const int64_t now = NowNs();
    if (!result.ok() || result->id < first_id || result->id >= first_id + n) {
      w.transport_ok = false;
      break;
    }
    const size_t i = result->id - first_id;
    Answer& a = w.answers[i];
    a.ok = result->status.ok() && !result->shed;
    a.shed = result->shed;
    a.text_hash = common::Fnv1a(result->text);
    a.model_hash = common::Fnv1a(result->model);
    a.cost_micros = result->cost.micros();
    a.latency_vms = result->latency_vms;
    if (keep_text) a.text = std::move(result->text);
    if (a.ok) w.done_ns[i] = now;
    if (sent < n) {
      send_next();
      w.turnaround_us.push_back(
          static_cast<double>(w.sent_ns[sent - 1] - now) / 1e3);
    }
  }
  w.end_ns = NowNs();
  for (size_t i = 0; i < n; ++i) {
    w.failed += w.done_ns[i] < 0 ? 1 : 0;
    w.shed += w.answers[i].shed ? 1 : 0;
  }
  return w;
}

/// The byte-identity oracle: every answer of the window must match a direct
/// Submit() of the same request on an identically configured twin.
bool MatchesTwin(std::shared_ptr<llm::LlmModel> model, size_t slots,
                 const std::vector<net::WireRequest>& requests,
                 const Window& w, std::string* why) {
  serve::Server::Options o = BackendOptions(slots, nullptr);
  std::atomic<int64_t> mismatch{-1};
  o.response_sink = [&](const serve::Response& r) {
    const Answer& a = w.answers[r.id - w.first_id];
    if (!a.ok) return;  // counted as failed already
    if (!r.status.ok() || a.text_hash != common::Fnv1a(r.text) ||
        a.model_hash != common::Fnv1a(r.model) ||
        a.cost_micros != r.cost.micros()) {
      mismatch.store(static_cast<int64_t>(r.id));
    }
  };
  // The twin's workers run on the system side, away from the stack's CPU.
  PinCurrentThread(CpuSide::kSystem);
  serve::Server twin(std::move(model), o);
  PinCurrentThread(CpuSide::kGenerator);
  for (const net::WireRequest& wr : requests) {
    serve::Request r;
    r.id = wr.id;
    r.skill = wr.skill;
    r.input = wr.input;
    r.arrival_vms = wr.arrival_vms;
    twin.Submit(r);
  }
  (void)twin.Drain();
  if (mismatch.load() >= 0) {
    *why = "wire response " + std::to_string(mismatch.load()) +
           " differs from a direct Submit on the twin";
    return false;
  }
  return true;
}

/// Per-window figures; the run reports medians over windows (p99: the lower
/// quartile, QuietWindowTail).
struct Tally {
  std::vector<double> p50s, p99s, qps, goodput;
  std::vector<double> turnaround_us;  // traced windows only
  bool p99_supported = true;
  uint64_t attempted = 0, failed = 0, shed = 0;

  void Add(const Window& w) {
    std::vector<double> lat;
    for (size_t i = 0; i < w.done_ns.size(); ++i) {
      lat.push_back(w.done_ns[i] < 0 ? kMissed
                                     : static_cast<double>(w.done_ns[i] -
                                                           w.sent_ns[i]) /
                                           1e3);
    }
    const double wall_s = static_cast<double>(w.end_ns - w.start_ns) / 1e9;
    const size_t n = lat.size();
    goodput.push_back(GoodputQps(lat, kLatencyLimitUs, wall_s));
    LatencySummary s = Summarize(std::move(lat));
    p50s.push_back(s.p50);
    p99s.push_back(s.p99);
    p99_supported = p99_supported && s.p99_supported;
    qps.push_back(static_cast<double>(n - w.failed) / wall_s);
    attempted += n;
    failed += w.failed;
    shed += w.shed;
  }
};

}  // namespace

RunResult RunWireFresh(const RunOptions& options) {
  RunResult result;
  WireInputs inputs(options.seed);
  const size_t slots = options.max_threads;
  // Stack threads are created on this thread and inherit its CPU.
  PinCurrentThread(CpuSide::kGenerator);

  // Set-up: the database the answers are graded on, the model ladder,
  // serve::Server, NetServer listening, client connected. Repeated; the
  // last one is kept.
  std::unique_ptr<Stack> stack;
  std::unique_ptr<sql::Database> db;
  SpanRecorder spans;
  bool setup_ok = true;
  double setup_s = MedianSetupSeconds(
      kSetupReps,
      [&] {
        stack.reset();
        db.reset();
      },
      [&] {
        db = std::make_unique<sql::Database>();
        setup_ok = setup_ok && BuildStadiumDatabase(inputs.family(), db.get());
        stack = StartStack(options, nullptr);
        setup_ok = setup_ok && stack != nullptr;
      });
  if (!setup_ok) {
    result.Fail("could not build the database or start the server stack");
    return result;
  }
  std::shared_ptr<llm::LlmModel> twin_model =
      llm::CreatePaperModelLadder(nullptr, 2024)[2];

  // Generates, sends and checks one window; returns it for digesting.
  uint64_t next_id = 0;
  bool transport_ok = true, twin_ok = true;
  auto window = [&](bool keep_text) {
    std::vector<net::WireRequest> requests;
    requests.reserve(kWindowRequests);
    for (size_t i = 0; i < kWindowRequests; ++i) {
      requests.push_back(inputs.Make(next_id + i));
    }
    Window w = RunWindow(*stack, requests, next_id, keep_text);
    next_id += kWindowRequests;
    transport_ok = transport_ok && w.transport_ok;
    std::string why;
    if (twin_ok &&
        !MatchesTwin(twin_model, slots, requests, w, &why)) {
      twin_ok = false;
      result.Fail(why);
    }
    return w;
  };
  // Whole sessions until `seconds` have passed, each on a fresh stack; with
  // a recorder, the stack's model records spans and the generator each
  // request's root and send spans. Registry figures are the last session's.
  std::string registry_text;
  double session_calls = 0, session_input_tokens = 0;
  // Read after the first session: a fixed amount of work, whatever the
  // host's speed.
  double peak_rss_mb = 0.0;
  auto run_sessions = [&](double seconds, SpanRecorder* recorder,
                          Tally* tally) {
    const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
    do {
      stack->Stop();
      stack = StartStack(options, recorder);
      if (stack == nullptr) return false;
      for (size_t k = 0; k < kSessionWindows; ++k) {
        Window w = window(false);
        tally->Add(w);
        if (recorder == nullptr) continue;
        for (size_t i = 0; i < w.done_ns.size(); ++i) {
          if (w.done_ns[i] < 0) continue;
          const uint64_t id = w.first_id + i;
          recorder->RecordRoot(id, w.sent_ns[i], w.done_ns[i]);
          recorder->Record("net.send", id, SpanRecorder::RootSpanId(id),
                           w.sent_ns[i], w.send_end_ns[i]);
        }
        tally->turnaround_us.insert(tally->turnaround_us.end(),
                                    w.turnaround_us.begin(),
                                    w.turnaround_us.end());
      }
      if (peak_rss_mb == 0.0) peak_rss_mb = PeakRssMb();
      registry_text = stack->registry.PrometheusText();
      session_calls = static_cast<double>(stack->backend->meter().calls());
      session_input_tokens =
          static_cast<double>(stack->backend->meter().totals().input_tokens);
    } while (NowNs() < deadline);
    return true;
  };

  // The first window warms the set-up stack up and gives the deterministic
  // metrics; it is checked but not timed.
  const Window first = window(true);
  Tally untraced, traced;
  bool sessions_ok = run_sessions(
      options.trace ? options.seconds / 2 : options.seconds, nullptr,
      &untraced);
  if (sessions_ok && options.trace) {
    sessions_ok = run_sessions(options.seconds / 2, &spans, &traced);
  }
  if (!sessions_ok) {
    result.Fail("could not start a session's server stack");
    return result;
  }
  stack->Stop();
  std::vector<Span> trace = spans.Take();

  // ---- Output checks (the twin checked each window as it ended) ----
  if (!transport_ok) result.Fail("transport error on the client side");
  if (!untraced.p99_supported || !traced.p99_supported) {
    result.Fail("too few samples per window for a p99");
  }
  result.attempted = kWindowRequests + untraced.attempted + traced.attempted;
  result.failed = first.failed + untraced.failed + traced.failed;
  result.shed = first.shed + untraced.shed + traced.shed;

  Grader grader(db.get());
  int64_t cost_micros = 0;
  std::vector<double> vms;
  size_t graded = 0, correct = 0;
  std::vector<double> sql_us;
  size_t by_length[3] = {0, 0, 0};  // freeform short, medium, long
  for (uint64_t id = 0; id < kWindowRequests; ++id) {
    const Answer& a = first.answers[id];
    if (!a.ok) {
      result.Fail("a request of the deterministic first window failed");
      continue;
    }
    cost_micros += a.cost_micros;
    vms.push_back(a.latency_vms);
    net::WireRequest w = inputs.Make(id);
    if (w.skill != "nl2sql") {
      size_t words = std::count(w.input.begin(), w.input.end(), ' ');
      ++by_length[words < kMediumWords ? 0 : (words < kLongWords ? 1 : 2)];
      continue;
    }
    ++graded;
    double query_us = 0.0;
    if (grader.Correct(a.text, inputs.Query(id), &query_us)) ++correct;
    sql_us.push_back(query_us);
  }
  Ratio accuracy{static_cast<double>(correct), static_cast<double>(graded)};
  const double first_n = static_cast<double>(kWindowRequests);
  result.Note("traffic (assumed mix) over the first window of " +
              std::to_string(kWindowRequests) + ": nl2sql " +
              Ratio{double(graded), first_n}.Describe() + "; freeform short " +
              Ratio{double(by_length[0]), first_n}.Describe() + ", medium " +
              Ratio{double(by_length[1]), first_n}.Describe() + ", long " +
              Ratio{double(by_length[2]), first_n}.Describe() +
              (next_id <= inputs.UniqueRequests()
                   ? "; every prompt unique"
                   : "; nl2sql questions repeat after " +
                         std::to_string(inputs.UniqueRequests()) +
                         " requests"));
  result.Note("accuracy " + accuracy.Describe() +
              " over the nl2sql requests of the first window");
  result.Note(std::to_string(untraced.p50s.size()) + " timed windows of " +
              std::to_string(kWindowRequests) + " requests, " +
              std::to_string(kDepth) + " in flight on one connection, " +
              std::to_string(kWorkers) + " serve worker, all on one CPU; "
              "latency from send to answer: p50 the median of window p50s, "
              "p99 the lower quartile of window p99s; goodput counts "
              "answers within " +
              std::to_string(int(kLatencyLimitUs)) + " us");

  const double p50 = Median(untraced.p50s);
  std::vector<double> first_qps, last_qps;
  std::string per_session;
  for (size_t w = 0; w < untraced.qps.size(); w += kSessionWindows) {
    first_qps.push_back(untraced.qps[w]);
    last_qps.push_back(untraced.qps[w + kSessionWindows - 1]);
    per_session += " " + std::to_string(static_cast<int>(Median(
                             {untraced.qps.begin() + w,
                              untraced.qps.begin() + w + kSessionWindows})));
  }
  result.Note("median window throughput per session (1/s):" + per_session);
  result.Note(std::to_string(first_qps.size()) + " sessions of " +
              std::to_string(kSessionWindows) + " windows on a fresh stack; "
              "a session's first window ran at " +
              std::to_string(Median(first_qps)) + "/s and its last at " +
              std::to_string(Median(last_qps)) + "/s (medians over sessions)");
  if (!options.trace) {
    result.Add("setup_s", setup_s, "s");
    result.Add("throughput_qps", Median(untraced.qps), "1/s");
    result.Add("goodput_qps", Median(untraced.goodput), "1/s");
    result.Add("latency_p50_us", p50, "us");
    result.Add("latency_p99_us", QuietWindowTail(untraced.p99s), "us");
    result.Add("latency_p99_vms", Summarize(vms).p99, "vms");
    result.Add("cost_per_query_micros",
               static_cast<double>(cost_micros) / first_n, "micros");
    result.Add("accuracy", accuracy.value(), "share");
    result.Add("success_share",
               static_cast<double>(result.attempted - result.failed) /
                   static_cast<double>(result.attempted),
               "share");
    result.Add("peak_rss_mb", peak_rss_mb, "MB");
    return result;
  }

  // ---- Per-layer metrics (traced run) ----
  std::map<uint64_t, int64_t> send_end;  // request -> its Send's return
  std::vector<double> rtt_us;
  for (const Span& sp : trace) {
    if (std::string(sp.name) == "net.send") {
      send_end.emplace(sp.request, sp.end_ns);
    } else if (sp.parent == 0) {
      rtt_us.push_back(static_cast<double>(sp.end_ns - sp.start_ns) / 1e3);
    }
  }
  std::vector<double> call_us, dispatch_us;
  std::set<uint64_t> dispatched;
  for (const Span& sp : trace) {
    if (std::string(sp.name) != "llm.call") continue;
    call_us.push_back(static_cast<double>(sp.end_ns - sp.start_ns) / 1e3);
    auto it = send_end.find(sp.request);
    if (it != send_end.end() && dispatched.insert(sp.request).second) {
      dispatch_us.push_back(static_cast<double>(sp.start_ns - it->second) /
                            1e3);
    }
  }
  const size_t traced_requests = traced.attempted - traced.failed;
  double server_wall_p50 =
      PromHistogramQuantile(registry_text, "llmdm_net_request_wall_us", 0.5);
  double requests_rx = PromSum(registry_text, "llmdm_net_requests_rx_total");
  Ratio bytes{PromSum(registry_text, "llmdm_net_bytes_rx_total") +
                  PromSum(registry_text, "llmdm_net_bytes_tx_total"),
              requests_rx};
  double submitted = PromSum(registry_text, "llmdm_serve_submitted_total");
  Ratio coalesced{PromSum(registry_text, "llmdm_serve_coalesced_total"),
                  submitted};
  Ratio shed{PromSum(registry_text, "llmdm_serve_shed_total"), submitted};
  // Registry and meter figures are the last traced session's.
  const double session_requests =
      static_cast<double>(kSessionWindows * kWindowRequests);
  Ratio calls{session_calls, session_requests};
  Ratio tokens{session_input_tokens, session_requests};
  Ratio prefix{PromSum(registry_text, "llmdm_batch_prefix_cached_tokens_total"),
               session_input_tokens};

  std::vector<net::WireRequest> probe_requests;
  std::vector<std::string> probe_answers;
  for (uint64_t id = 0; id < kWindowRequests; ++id) {
    probe_requests.push_back(inputs.Make(id));
    probe_answers.push_back(first.answers[id].text);
  }
  const LayerProbes probes = ProbeLayers(probe_requests, probe_answers);
  if (!probes.ok) result.Fail("layer probes failed");
  const Ratio token_cache = TokenCacheHitShare();
  std::map<std::string, double> self = SelfTimeNsByLayer(trace);
  auto self_us = [&](const char* layer) {
    return traced_requests == 0
               ? 0.0
               : self[layer] / 1e3 / static_cast<double>(traced_requests);
  };
  double client_overhead = Summarize(rtt_us).p50 - server_wall_p50;

  result.Add("net.server_wall_us.p50", server_wall_p50, "us");
  result.Add("net.client_overhead_us.p50", client_overhead, "us");
  result.Add("net.codec_ns_per_frame", probes.codec_ns_per_frame, "ns");
  result.Add("net.bytes_per_request", bytes.value(), "bytes");
  result.Add("net.backpressure_pauses",
             PromSum(registry_text, "llmdm_net_backpressure_pauses_total"),
             "count");
  result.Add("net.protocol_errors",
             PromSum(registry_text, "llmdm_net_protocol_errors_total"),
             "count");
  result.Add("serve.submit_us.p50", 0.0, "us");
  result.Add("serve.submit_us.p99", 0.0, "us");
  result.Add("serve.dispatch_wait_us.p50", Summarize(dispatch_us).p50, "us");
  result.Add("serve.coalesced_share", coalesced.value(), "share");
  result.Add("serve.batch_occupancy_mean",
             PromHistogramMean(registry_text, "llmdm_batch_occupancy"),
             "count");
  result.Add("serve.shed_share", shed.value(), "share");
  result.Add("llm.call_us.p50", Summarize(call_us).p50, "us");
  result.Add("llm.call_us.p99",
             ReportedP99(call_us, "llm.call_us.p99", &result), "us");
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
  const double traced_qps = Median(traced.qps);
  result.Add("bench.turnaround_us.p99",
             ReportedP99(traced.turnaround_us, "bench.turnaround_us.p99",
                         &result),
             "us");
  result.Add("bench.tracing_overhead",
             traced_qps > 0 ? Median(untraced.qps) / traced_qps - 1 : 0.0,
             "share");

  result.Note("bases: net.bytes_per_request " + bytes.Describe() +
              "; serve.coalesced_share " + coalesced.Describe() +
              "; serve.shed_share " + shed.Describe() +
              "; llm.calls_per_query " + calls.Describe() +
              "; llm.input_tokens_per_query " + tokens.Describe() +
              "; llm.prefix_cached_share " + prefix.Describe() +
              "; text.token_cache_hit_share " + token_cache.Describe());
  result.Note("not measurable from outside on wire_fresh: serve.submit_us "
              "(NetServer calls Submit on its loop thread); "
              "serve.dispatch_wait_us is timed from the client's Send return; "
              "cache/vectordb/durability are bypassed (0)");
  result.Note("tracing overhead = untraced throughput / traced throughput "
              "- 1; bench.turnaround_us is the generator's time from an "
              "answer to the next Send");
  if (!WriteSpans(trace, options.state_dir + "/wire_fresh.spans.csv")) {
    result.Note("could not write the span file");
  }
  return result;
}

}  // namespace perfbench
