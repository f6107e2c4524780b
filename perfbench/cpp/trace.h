// In-memory span recorder for the traced run. Spans are recorded by the
// benchmark's own code around each call it makes into a layer (and by the
// TimedModel decorator around model calls), kept in memory, and written out
// when the run ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed layer call. `name` is "<layer>.<call>" (a string literal); the
/// root span of a request is named "request" and has parent 0.
struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Thread-safe span sink. Every request's root span has the id
/// RootSpanId(request), so a layer call on another thread (a serve worker
/// running the model) can name its parent from the request id alone.
class SpanRecorder {
 public:
  static uint64_t RootSpanId(uint64_t request) { return request + 1; }

  /// Records a span and returns its id.
  uint64_t Record(const char* name, uint64_t request, uint64_t parent,
                  int64_t start_ns, int64_t end_ns);
  /// Records the root span of `request`.
  void RecordRoot(uint64_t request, int64_t start_ns, int64_t end_ns);

  std::vector<Span> Take();

 private:
  std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t next_id_ = uint64_t{1} << 48;  // above every root id
};

/// Self time per layer, summed over all spans: a span's duration minus the
/// part of it covered by its children. The layer of a span is its name up
/// to the first '.'; root spans count as layer "unattributed" (time no
/// instrumented layer call covers).
std::map<std::string, double> SelfTimeNsByLayer(const std::vector<Span>& spans);

/// Writes spans as CSV (name,id,parent,request,start_ns,end_ns).
bool WriteSpans(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
