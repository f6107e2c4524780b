// Timing decorator over llm::LlmModel: forwards every call unchanged and, in
// the traced run, records one span per model call (per batch member for
// CompleteBatch) under the request the prompt belongs to.
#ifndef PERFBENCH_TIMED_MODEL_H_
#define PERFBENCH_TIMED_MODEL_H_

#include <memory>
#include <vector>

#include "llm/model.h"
#include "trace.h"

namespace perfbench {

/// Request id of a prompt. The serve layer salts each request's prompt with
/// `id * 1000003 + 7`, so a prompt issued by a serve worker names its
/// request; prompts the benchmark issues itself (salt 0) belong to the
/// request set with SetCurrentRequest on the calling thread.
uint64_t RequestOf(const llmdm::llm::Prompt& prompt);
void SetCurrentRequest(uint64_t request);

class TimedModel : public llmdm::llm::LlmModel {
 public:
  /// `spans` may be null (untraced run: calls are forwarded and nothing is
  /// recorded). It must outlive every call.
  TimedModel(std::shared_ptr<llmdm::llm::LlmModel> inner, SpanRecorder* spans)
      : inner_(std::move(inner)), spans_(spans) {}

  const llmdm::llm::ModelSpec& spec() const override { return inner_->spec(); }

  llmdm::common::Result<llmdm::llm::Completion> Complete(
      const llmdm::llm::Prompt& prompt) override;
  llmdm::common::Result<llmdm::llm::Completion> CompleteMetered(
      const llmdm::llm::Prompt& prompt,
      llmdm::llm::UsageMeter* meter) override;
  std::vector<llmdm::common::Result<llmdm::llm::Completion>> CompleteBatch(
      const std::vector<llmdm::llm::Prompt>& prompts) override;

 private:
  std::shared_ptr<llmdm::llm::LlmModel> inner_;
  SpanRecorder* spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMED_MODEL_H_
