#ifndef ZEROTUNE_CORE_BATCH_INFERENCE_H_
#define ZEROTUNE_CORE_BATCH_INFERENCE_H_

#include <span>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/cost_predictor.h"
#include "core/model.h"

namespace zerotune::core {

/// Counters describing how much work one BatchedPredict call amortized;
/// reported by the perf benchmarks.
struct BatchInferenceStats {
  size_t plans = 0;
  /// Distinct sink states scored, summed over chunks: identical plans in
  /// one chunk share every stage row and are read out once. Without a
  /// pool (one chunk per structure group) this is the distinct plan
  /// count.
  size_t unique_plans = 0;
  /// Number of distinct (topology, cluster) structure groups found.
  /// Candidates enumerated for one query all land in one group.
  size_t structure_groups = 0;
  /// Rows actually pushed through the operator encoder MLP after
  /// deduplication vs. what a per-plan path would encode.
  size_t operator_rows_encoded = 0;
  size_t operator_rows_total = 0;
  /// Same for the resource encoder (one row per cluster node per plan in
  /// the naive path; typically one row per cluster node overall here).
  size_t resource_rows_encoded = 0;
  size_t resource_rows_total = 0;
};

/// Batched ZeroTune GNN inference over many candidate plans.
///
/// The paper's optimizer scores hundreds of what-if candidates per query
/// which share the same logical operators and cluster and differ only in
/// parallelism/mapping features. This engine amortizes that structure:
///  * featurization runs once per plan (in parallel over `pool`),
///  * operator/resource encoder inputs are deduplicated across the whole
///    batch and encoded in one row-batched MLP call each,
///  * plans with identical topology and cluster are grouped, the
///    resource-exchange stage runs once per group, and every message-
///    passing stage runs as row-batched matrix ops across the group's
///    candidates (sharded over `pool` in deterministic chunks),
///  * within a chunk each distinct stage input row, readout included,
///    runs once, so identical candidates are scored once.
/// All of this deduplication goes through one bitwise key interner.
///
/// Predictions never depend on batch composition, chunking, or thread
/// count. Against ZeroTuneModel::Predict on each plan they are
/// bit-identical under the scalar kernels (ZEROTUNE_DISABLE_SIMD builds,
/// CPUs without AVX2+FMA, or nn::kernels::ForceScalar) and differ only by
/// FMA rounding under SIMD, within the relative tolerance documented in
/// nn/kernels.h and enforced by tests/predict_batch_test.cc.
Result<std::vector<CostPrediction>> BatchedPredict(
    const ZeroTuneModel& model,
    std::span<const dsp::ParallelQueryPlan* const> plans,
    zerotune::ThreadPool* pool = nullptr,
    BatchInferenceStats* stats = nullptr);

}  // namespace zerotune::core

#endif  // ZEROTUNE_CORE_BATCH_INFERENCE_H_
