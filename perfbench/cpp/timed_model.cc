#include "timed_model.h"

namespace perfbench {

namespace {
thread_local uint64_t tls_current_request = 0;
constexpr uint64_t kSaltMultiplier = 1000003;
constexpr uint64_t kSaltOffset = 7;
}  // namespace

uint64_t RequestOf(const llmdm::llm::Prompt& prompt) {
  uint64_t salt = prompt.sample_salt;
  if (salt >= kSaltOffset && (salt - kSaltOffset) % kSaltMultiplier == 0) {
    return (salt - kSaltOffset) / kSaltMultiplier;
  }
  return tls_current_request;
}

void SetCurrentRequest(uint64_t request) { tls_current_request = request; }

llmdm::common::Result<llmdm::llm::Completion> TimedModel::Complete(
    const llmdm::llm::Prompt& prompt) {
  if (spans_ == nullptr) return inner_->Complete(prompt);
  int64_t start = NowNs();
  auto result = inner_->Complete(prompt);
  uint64_t request = RequestOf(prompt);
  spans_->Record("llm.call", request, SpanRecorder::RootSpanId(request), start,
                 NowNs());
  return result;
}

llmdm::common::Result<llmdm::llm::Completion> TimedModel::CompleteMetered(
    const llmdm::llm::Prompt& prompt, llmdm::llm::UsageMeter* meter) {
  if (spans_ == nullptr) return inner_->CompleteMetered(prompt, meter);
  int64_t start = NowNs();
  auto result = inner_->CompleteMetered(prompt, meter);
  uint64_t request = RequestOf(prompt);
  spans_->Record("llm.call", request, SpanRecorder::RootSpanId(request), start,
                 NowNs());
  return result;
}

std::vector<llmdm::common::Result<llmdm::llm::Completion>>
TimedModel::CompleteBatch(const std::vector<llmdm::llm::Prompt>& prompts) {
  if (spans_ == nullptr) return inner_->CompleteBatch(prompts);
  int64_t start = NowNs();
  auto results = inner_->CompleteBatch(prompts);
  int64_t end = NowNs();
  // The whole batch call is on each member's critical path.
  for (const llmdm::llm::Prompt& prompt : prompts) {
    uint64_t request = RequestOf(prompt);
    spans_->Record("llm.batch", request, SpanRecorder::RootSpanId(request),
                   start, end);
  }
  return results;
}

}  // namespace perfbench
