#include "probes.h"

#include <algorithm>

#include "stats.h"

namespace perfbench {

using zerotune::Result;
using zerotune::core::CostPrediction;
using zerotune::core::PlanCandidate;

Result<CostPrediction> TimedPredictor::Predict(
    const zerotune::dsp::ParallelQueryPlan& plan) const {
  zerotune::obs::Span span(kPredictSpan);
  const int64_t t0 = NowNanos();
  Result<CostPrediction> out = model_->Predict(plan);
  const double ms = MillisBetween(t0, NowNanos());
  std::lock_guard<std::mutex> lock(totals_->mu);
  totals_->predict_ms += ms;
  ++totals_->predict_calls;
  if (totals_->keep_samples) totals_->predict_samples_ms.push_back(ms);
  return out;
}

Result<std::vector<CostPrediction>> TimedPredictor::PredictBatch(
    std::span<const zerotune::dsp::ParallelQueryPlan* const> plans) const {
  zerotune::obs::Span span(kPredictBatchSpan);
  zerotune::core::BatchInferenceStats stats;
  const int64_t t0 = NowNanos();
  Result<std::vector<CostPrediction>> out = zerotune::core::BatchedPredict(
      *model_, plans, model_->thread_pool(), &stats);
  const double ms = MillisBetween(t0, NowNanos());
  std::lock_guard<std::mutex> lock(totals_->mu);
  totals_->batch_ms += ms;
  ++totals_->batch_calls;
  zerotune::core::BatchInferenceStats& sum = totals_->batch;
  sum.plans += stats.plans;
  sum.unique_plans += stats.unique_plans;
  sum.operator_rows_encoded += stats.operator_rows_encoded;
  sum.operator_rows_total += stats.operator_rows_total;
  sum.resource_rows_encoded += stats.resource_rows_encoded;
  sum.resource_rows_total += stats.resource_rows_total;
  return out;
}

Result<std::vector<PlanCandidate>> TimedSearchSpace::Enumerate(
    const zerotune::dsp::QueryPlan& logical,
    const zerotune::dsp::Cluster& cluster) const {
  zerotune::obs::Span span(kEnumerateSpan);
  const int64_t t0 = NowNanos();
  Result<std::vector<PlanCandidate>> out = inner_->Enumerate(logical, cluster);
  const double ms = MillisBetween(t0, NowNanos());
  std::lock_guard<std::mutex> lock(totals_->mu);
  totals_->enumerate_ms += ms;
  if (out.ok()) totals_->candidates += out.value().size();
  return out;
}

double SpanFold::Total(const std::string& name) const {
  const auto it = total_ms.find(name);
  return it == total_ms.end() ? 0.0 : it->second;
}

double SpanFold::Self(const std::string& name) const {
  const auto it = self_ms.find(name);
  return it == self_ms.end() ? 0.0 : it->second;
}

double SpanFold::SelfWithPrefix(const std::string& prefix) const {
  double sum = 0.0;
  for (const auto& [name, ms] : self_ms) {
    if (name.compare(0, prefix.size(), prefix) == 0) sum += ms;
  }
  return sum;
}

uint64_t SpanFold::Count(const std::string& name) const {
  const auto it = count.find(name);
  return it == count.end() ? 0 : it->second;
}

SpanFold FoldSpans(const std::vector<zerotune::obs::SpanRecord>& spans) {
  std::vector<const zerotune::obs::SpanRecord*> order;
  order.reserve(spans.size());
  for (const auto& s : spans) order.push_back(&s);
  // Per thread, by start time; an enclosing span sorts before the spans
  // it contains (longer first on equal starts).
  std::sort(order.begin(), order.end(), [](const auto* a, const auto* b) {
    if (a->thread_index != b->thread_index) {
      return a->thread_index < b->thread_index;
    }
    if (a->start_nanos != b->start_nanos) {
      return a->start_nanos < b->start_nanos;
    }
    return a->duration_nanos > b->duration_nanos;
  });
  std::vector<int64_t> child_nanos(order.size(), 0);
  std::vector<size_t> stack;
  SpanFold fold;
  for (size_t i = 0; i < order.size(); ++i) {
    const auto* s = order[i];
    while (!stack.empty()) {
      const auto* top = order[stack.back()];
      const bool same_thread = top->thread_index == s->thread_index;
      const bool contains =
          s->start_nanos + s->duration_nanos <=
          top->start_nanos + top->duration_nanos;
      if (same_thread && contains) break;
      stack.pop_back();
    }
    if (!stack.empty()) child_nanos[stack.back()] += s->duration_nanos;
    stack.push_back(i);
  }
  for (size_t i = 0; i < order.size(); ++i) {
    const auto* s = order[i];
    const double total = static_cast<double>(s->duration_nanos) / 1e6;
    const double self =
        static_cast<double>(s->duration_nanos - child_nanos[i]) / 1e6;
    fold.total_ms[s->name] += total;
    fold.self_ms[s->name] += self;
    ++fold.count[s->name];
  }
  return fold;
}

double MlpFlopsPerRow(const zerotune::nn::Mlp& mlp) {
  double flops = 0.0;
  for (const auto& layer : mlp.layers()) {
    flops += 2.0 * static_cast<double>(layer.in_features()) *
             static_cast<double>(layer.out_features());
  }
  return flops;
}

}  // namespace perfbench
