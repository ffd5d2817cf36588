#ifndef ZEROTUNE_PERFBENCH_PROBES_H_
#define ZEROTUNE_PERFBENCH_PROBES_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/batch_inference.h"
#include "core/cost_predictor.h"
#include "core/model.h"
#include "core/search_space.h"
#include "obs/trace.h"

namespace perfbench {

/// What the timing decorators saw. One object may be shared by several
/// decorators (one per fleet replica), so every update takes `mu`.
struct ProbeTotals {
  double batch_ms = 0.0;
  uint64_t batch_calls = 0;
  zerotune::core::BatchInferenceStats batch;  // summed over calls
  double predict_ms = 0.0;
  uint64_t predict_calls = 0;
  /// Per-call Predict latencies, kept only when `keep_samples` is set.
  std::vector<double> predict_samples_ms;
  bool keep_samples = false;
  double enumerate_ms = 0.0;
  uint64_t candidates = 0;

  std::mutex mu;
};

/// CostPredictor decorator over the ZeroTune model: times Predict and
/// PredictBatch, and runs PredictBatch through core::BatchedPredict with a
/// stats sink so the batch engine's dedup counters are visible. Results
/// are exactly the model's own (same function, same pool).
class TimedPredictor : public zerotune::core::CostPredictor {
 public:
  TimedPredictor(const zerotune::core::ZeroTuneModel* model,
                 ProbeTotals* totals)
      : model_(model), totals_(totals) {}

  zerotune::Result<zerotune::core::CostPrediction> Predict(
      const zerotune::dsp::ParallelQueryPlan& plan) const override;
  zerotune::Result<std::vector<zerotune::core::CostPrediction>> PredictBatch(
      std::span<const zerotune::dsp::ParallelQueryPlan* const> plans)
      const override;
  std::string name() const override { return model_->name(); }

 private:
  const zerotune::core::ZeroTuneModel* model_;
  ProbeTotals* totals_;
};

/// SearchSpace decorator: times Enumerate and counts candidates.
class TimedSearchSpace : public zerotune::core::SearchSpace {
 public:
  TimedSearchSpace(const zerotune::core::SearchSpace* inner,
                   ProbeTotals* totals)
      : inner_(inner), totals_(totals) {}

  zerotune::Result<std::vector<zerotune::core::PlanCandidate>> Enumerate(
      const zerotune::dsp::QueryPlan& logical,
      const zerotune::dsp::Cluster& cluster) const override;
  std::string name() const override { return inner_->name(); }

 private:
  const zerotune::core::SearchSpace* inner_;
  ProbeTotals* totals_;
};

/// Span names the decorators record when tracing is on, so the layers
/// they time appear in the span tree next to the program's own spans.
inline constexpr const char* kEnumerateSpan = "perfbench/enumerate";
inline constexpr const char* kPredictSpan = "perfbench/predict";
inline constexpr const char* kPredictBatchSpan = "perfbench/predict_batch";

/// Per-name totals of a span set. A span's self time is its duration
/// minus the durations of the spans nested directly inside it on the
/// same thread.
struct SpanFold {
  std::map<std::string, double> total_ms;
  std::map<std::string, double> self_ms;
  std::map<std::string, uint64_t> count;

  double Total(const std::string& name) const;
  double Self(const std::string& name) const;
  /// Sum of self time over every name starting with `prefix`.
  double SelfWithPrefix(const std::string& prefix) const;
  uint64_t Count(const std::string& name) const;
};

SpanFold FoldSpans(const std::vector<zerotune::obs::SpanRecord>& spans);

/// Floating-point operations of one row through `mlp` (2·in·out per
/// layer).
double MlpFlopsPerRow(const zerotune::nn::Mlp& mlp);

}  // namespace perfbench

#endif  // ZEROTUNE_PERFBENCH_PROBES_H_
