// PredictBatch parity: the batched inference path must match per-plan
// Predict() for the GNN (with and without thread-pool sharding) and for
// every baseline predictor, across empty, single, and mixed-structure
// batches. "Match" depends on the active kernel implementation: under
// the scalar kernels (ZEROTUNE_DISABLE_SIMD builds, or any build on a
// CPU without AVX2+FMA) batched results are bit-identical to sequential
// Predict(); under the AVX2+FMA kernels the batched path uses fused
// multiply-adds that the sequential autograd path does not, so parity is
// a documented relative tolerance instead (see nn/kernels.h).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "baselines/flat_mlp.h"
#include "baselines/linear_model.h"
#include "baselines/random_forest.h"
#include "common/thread_pool.h"
#include "core/batch_inference.h"
#include "core/cost_predictor.h"
#include "core/dataset_builder.h"
#include "core/enumeration.h"
#include "core/model.h"
#include "core/oracle_predictor.h"
#include "nn/kernels.h"

namespace zerotune::core {
namespace {

using dsp::Cluster;
using dsp::ParallelQueryPlan;
using dsp::QueryPlan;

QueryPlan LinearQuery(double rate = 1000) {
  QueryPlan q;
  dsp::SourceProperties s;
  s.event_rate = rate;
  s.schema = dsp::TupleSchema::Uniform(3, dsp::DataType::kDouble);
  const int src = q.AddSource(s);
  const int f = q.AddFilter(src, dsp::FilterProperties{}).value();
  const int a = q.AddWindowAggregate(f, dsp::AggregateProperties{}).value();
  ZT_CHECK_OK(q.AddSink(a));
  return q;
}

QueryPlan TwoFilterQuery() {
  QueryPlan q;
  dsp::SourceProperties s;
  s.event_rate = 500;
  s.schema = dsp::TupleSchema::Uniform(2, dsp::DataType::kInt);
  const int src = q.AddSource(s);
  dsp::FilterProperties f;
  f.selectivity = 0.5;
  const int f1 = q.AddFilter(src, f).value();
  const int f2 = q.AddFilter(f1, f).value();
  ZT_CHECK_OK(q.AddSink(f2));
  return q;
}

ParallelQueryPlan Deploy(const QueryPlan& q, const Cluster& c,
                         int degree) {
  ParallelQueryPlan p(q, c);
  for (const dsp::Operator& op : q.operators()) {
    if (op.type != dsp::OperatorType::kSource &&
        op.type != dsp::OperatorType::kSink) {
      EXPECT_TRUE(p.SetParallelism(op.id, degree).ok());
    }
  }
  p.DerivePartitioning();
  EXPECT_TRUE(p.PlaceRoundRobin().ok());
  return p;
}

/// Many candidates of the same query (one structure group) plus a second
/// query shape and a second cluster (more groups).
std::vector<ParallelQueryPlan> MixedBatch() {
  const Cluster c4 = Cluster::Homogeneous("m510", 4).value();
  const Cluster c2 = Cluster::Homogeneous("rs620", 2).value();
  const QueryPlan linear = LinearQuery();
  const QueryPlan filters = TwoFilterQuery();
  std::vector<ParallelQueryPlan> plans;
  for (int d : {1, 2, 3, 4, 6, 8}) plans.push_back(Deploy(linear, c4, d));
  for (int d : {1, 2, 4}) plans.push_back(Deploy(filters, c4, d));
  for (int d : {1, 2}) plans.push_back(Deploy(linear, c2, d));
  return plans;
}

/// Target stats that keep DecodeOutput away from its clamp-at-zero so a
/// bitwise comparison is meaningful.
std::unique_ptr<ZeroTuneModel> MakeModel(
    FeatureConfig features = FeatureConfig::All()) {
  ModelConfig cfg;
  cfg.seed = 17;
  cfg.features = features;
  auto model = std::make_unique<ZeroTuneModel>(cfg);
  TargetStats stats;
  stats.latency_mean = 4.0;
  stats.latency_std = 1.5;
  stats.throughput_mean = 7.0;
  stats.throughput_std = 1.5;
  model->set_target_stats(stats);
  return model;
}

void ExpectBitIdentical(const CostPredictor& predictor,
                        const std::vector<ParallelQueryPlan>& plans) {
  Result<std::vector<CostPrediction>> batched =
      PredictBatch(predictor, plans);
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();
  ASSERT_EQ(batched.value().size(), plans.size());
  for (size_t i = 0; i < plans.size(); ++i) {
    Result<CostPrediction> single = predictor.Predict(plans[i]);
    ASSERT_TRUE(single.ok()) << single.status().ToString();
    // Exact ==, not NEAR: the batched path must replicate the sequential
    // arithmetic bit for bit.
    EXPECT_EQ(batched.value()[i].latency_ms, single.value().latency_ms)
        << "plan #" << i;
    EXPECT_EQ(batched.value()[i].throughput_tps,
              single.value().throughput_tps)
        << "plan #" << i;
  }
}

// Relative-tolerance bound for the GNN's batched-vs-sequential parity
// under the AVX2+FMA kernels. The sequential path runs scalar autograd
// arithmetic while the batched path runs FMA-fused dot products; each
// fused multiply-add perturbs a length-k sum by O(k·2⁻⁵³) relative, and
// the perturbation passes through ~8 MLP blocks plus the exp() in
// DecodeOutput. Observed divergence is ~1e-13 relative; 1e-9 leaves four
// orders of magnitude of headroom without masking real batching bugs
// (which produce O(1) differences).
constexpr double kSimdRelTolerance = 1e-9;

void ExpectRelNear(double a, double b, size_t plan_idx, const char* what) {
  const double scale = std::max({std::abs(a), std::abs(b), 1e-300});
  EXPECT_LE(std::abs(a - b), kSimdRelTolerance * scale)
      << what << " diverged on plan #" << plan_idx << ": batched=" << a
      << " sequential=" << b;
}

// GNN parity: exact under the scalar kernels, relative-tolerance under
// SIMD (see the file comment).
void ExpectGnnParity(const CostPredictor& predictor,
                     const std::vector<ParallelQueryPlan>& plans) {
  if (nn::kernels::ActiveIsa() == nn::kernels::Isa::kScalar) {
    ExpectBitIdentical(predictor, plans);
    return;
  }
  Result<std::vector<CostPrediction>> batched =
      PredictBatch(predictor, plans);
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();
  ASSERT_EQ(batched.value().size(), plans.size());
  for (size_t i = 0; i < plans.size(); ++i) {
    Result<CostPrediction> single = predictor.Predict(plans[i]);
    ASSERT_TRUE(single.ok()) << single.status().ToString();
    ExpectRelNear(batched.value()[i].latency_ms, single.value().latency_ms, i,
                  "latency_ms");
    ExpectRelNear(batched.value()[i].throughput_tps,
                  single.value().throughput_tps, i, "throughput_tps");
  }
}

TEST(PredictBatchTest, GnnBatchedMatchesSequentialExactly) {
  const std::unique_ptr<ZeroTuneModel> model = MakeModel();
  ExpectGnnParity(*model, MixedBatch());
}

// The batched path must stay bit-identical to itself regardless of ISA
// choice being scalar: forcing the scalar kernels must reproduce the
// sequential arithmetic exactly even in a SIMD-enabled build.
TEST(PredictBatchTest, GnnBatchedMatchesSequentialExactlyUnderForcedScalar) {
  nn::kernels::ForceScalar(true);
  const std::unique_ptr<ZeroTuneModel> model = MakeModel();
  ExpectBitIdentical(*model, MixedBatch());
  nn::kernels::ForceScalar(false);
}

TEST(PredictBatchTest, GnnParityHoldsUnderThreadPoolSharding) {
  std::unique_ptr<ZeroTuneModel> model = MakeModel();
  ThreadPool pool(4);
  model->set_thread_pool(&pool);
  ExpectGnnParity(*model, MixedBatch());
}

TEST(PredictBatchTest, GnnParityHoldsForMaskedFeatureConfigs) {
  for (FeatureConfig fc :
       {FeatureConfig::OperatorOnly(), FeatureConfig::ParallelismAndResource(),
        FeatureConfig::PerInstance()}) {
    ExpectGnnParity(*MakeModel(fc), MixedBatch());
  }
}

// Regression: BuildChunkPlan once sized its mapping-edge interner for 16
// edges per candidate, and the interner's linear probe spun forever once
// the table filled. A plan spread over 64 nodes has one mapping edge per
// (operator, hosting node) pair, far more distinct edges than that.
TEST(PredictBatchTest, ManyDistinctMappingEdgesMatchSequential) {
  const std::unique_ptr<ZeroTuneModel> model = MakeModel();
  const Cluster c = Cluster::Homogeneous("m510", 64).value();
  ExpectGnnParity(*model, {Deploy(LinearQuery(), c, 64)});
}

// Identical candidates share every stage row, so their duplicates must
// score exactly like the sequential path wherever they sit in the batch:
// adjacent (same chunk) or far apart (different chunks under a pool).
TEST(PredictBatchTest, DuplicateCandidatesMatchSequential) {
  const std::vector<ParallelQueryPlan> distinct = MixedBatch();
  std::vector<ParallelQueryPlan> plans = distinct;
  plans.insert(plans.begin() + 1, distinct[0]);
  plans.insert(plans.end(), distinct.begin(), distinct.end());

  std::unique_ptr<ZeroTuneModel> model = MakeModel();
  ExpectGnnParity(*model, plans);

  std::vector<const ParallelQueryPlan*> ptrs;
  for (const ParallelQueryPlan& p : plans) ptrs.push_back(&p);
  BatchInferenceStats stats;
  ASSERT_TRUE(BatchedPredict(*model, ptrs, nullptr, &stats).ok());
  EXPECT_EQ(stats.plans, plans.size());
  EXPECT_EQ(stats.unique_plans, distinct.size());

  ThreadPool pool(4);
  model->set_thread_pool(&pool);
  ExpectGnnParity(*model, plans);
}

TEST(PredictBatchTest, EmptyBatchReturnsEmptyVector) {
  const std::unique_ptr<ZeroTuneModel> model = MakeModel();
  const std::vector<ParallelQueryPlan> none;
  Result<std::vector<CostPrediction>> r = PredictBatch(*model, none);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().empty());
}

TEST(PredictBatchTest, SingleElementBatchMatchesPredict) {
  const std::unique_ptr<ZeroTuneModel> model = MakeModel();
  const Cluster c = Cluster::Homogeneous("m510", 4).value();
  ExpectGnnParity(*model, {Deploy(LinearQuery(), c, 2)});
}

TEST(PredictBatchTest, NullPlanFailsWithIndex) {
  const std::unique_ptr<ZeroTuneModel> model = MakeModel();
  const Cluster c = Cluster::Homogeneous("m510", 4).value();
  const ParallelQueryPlan ok_plan = Deploy(LinearQuery(), c, 2);
  const std::vector<const ParallelQueryPlan*> ptrs = {&ok_plan, nullptr};
  Result<std::vector<CostPrediction>> r = model->PredictBatch(ptrs);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("plan #1"), std::string::npos)
      << r.status().ToString();
}

TEST(PredictBatchTest, InvalidPlanFailsWithIndexAndContext) {
  const std::unique_ptr<ZeroTuneModel> model = MakeModel();
  const Cluster c = Cluster::Homogeneous("m510", 2).value();
  std::vector<ParallelQueryPlan> plans;
  plans.push_back(Deploy(LinearQuery(), c, 2));
  // Degree far beyond the cluster's cores fails plan validation.
  ParallelQueryPlan bad(LinearQuery(), c);
  ASSERT_TRUE(bad.SetParallelism(1, 10000).ok());
  bad.DerivePartitioning();
  plans.push_back(bad);
  Result<std::vector<CostPrediction>> r = PredictBatch(*model, plans);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("plan #1"), std::string::npos)
      << r.status().ToString();
}

TEST(PredictBatchTest, DefaultPathBaselinesMatchSequential) {
  // Every baseline goes through CostPredictor's default PredictBatch
  // (sequential loop) — parity plus the Result plumbing must hold.
  OptiSampleEnumerator enumerator;
  DatasetBuilderOptions opts;
  opts.count = 60;
  opts.seed = 31;
  const workload::Dataset corpus = BuildDataset(enumerator, opts).value();
  const std::vector<ParallelQueryPlan> plans = MixedBatch();

  baselines::LinearRegressionModel linear;
  ASSERT_TRUE(linear.Fit(corpus).ok());
  ExpectBitIdentical(linear, plans);

  baselines::FlatMlpModel mlp;
  ASSERT_TRUE(mlp.Fit(corpus).ok());
  ExpectBitIdentical(mlp, plans);

  baselines::RandomForestModel forest;
  ASSERT_TRUE(forest.Fit(corpus).ok());
  ExpectBitIdentical(forest, plans);

  ExpectBitIdentical(OraclePredictor(), plans);
}

TEST(PredictBatchTest, UnfittedBaselineErrorCarriesPlanContext) {
  baselines::LinearRegressionModel unfitted;
  const std::vector<ParallelQueryPlan> plans = MixedBatch();
  Result<std::vector<CostPrediction>> r = PredictBatch(unfitted, plans);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  // Default PredictBatch annotates which plan failed; the baseline
  // itself names the predictor and plan shape.
  EXPECT_NE(r.status().message().find("plan #0"), std::string::npos)
      << r.status().ToString();
  EXPECT_NE(r.status().message().find("not fitted"), std::string::npos)
      << r.status().ToString();
}

TEST(PredictBatchTest, BatchStatsReportAmortization) {
  const std::unique_ptr<ZeroTuneModel> model = MakeModel();
  const Cluster c = Cluster::Homogeneous("m510", 4).value();
  const QueryPlan q = LinearQuery();
  std::vector<ParallelQueryPlan> plans;
  std::vector<const ParallelQueryPlan*> ptrs;
  for (int d = 1; d <= 4; ++d) plans.push_back(Deploy(q, c, d));
  for (const ParallelQueryPlan& p : plans) ptrs.push_back(&p);
  BatchInferenceStats stats;
  Result<std::vector<CostPrediction>> r =
      BatchedPredict(*model, ptrs, nullptr, &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(stats.plans, 4u);
  // All candidates share one topology + cluster.
  EXPECT_EQ(stats.structure_groups, 1u);
  // Source/sink rows repeat across candidates, so dedup must win.
  EXPECT_LT(stats.operator_rows_encoded, stats.operator_rows_total);
  // The cluster is shared: its node rows encode once.
  EXPECT_LT(stats.resource_rows_encoded, stats.resource_rows_total);
}

}  // namespace
}  // namespace zerotune::core
