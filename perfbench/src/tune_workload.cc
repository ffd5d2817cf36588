// Closed-loop tuning workloads (tune_exhaustive, tune_prescreen).
//
// The parent process builds the seeded query stream and the simulator
// reference scores, then hands operations one at a time to a forked
// worker that holds the trained model. An operation that overruns the
// time limit is counted as failed; its worker is killed and replaced, so
// a hang neither stalls the run nor keeps a core busy.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>

#include "analysis/plan_analyzer.h"
#include "core/optimizer.h"
#include "core/search_space.h"
#include "obs/metrics.h"
#include "probes.h"
#include "sim/cost_engine.h"
#include "workload/generator.h"
#include "workloads.h"

namespace perfbench {

namespace zt = zerotune;
using zt::workload::QueryStructure;

namespace {

/// Optimizer defaults (ParallelismOptimizer::Options), restated for the
/// simulator reference.
constexpr double kWeight = 0.5;
constexpr int kMaxParallelism = 128;

/// Queries per pass; each runs on every cluster size. A pass is the unit
/// that repeats exactly.
constexpr size_t kQueriesPerPass = 144;
/// A run starts no pass after this long, whatever --seconds says.
constexpr double kHardCapSeconds = 120.0;
constexpr size_t kMaxOperators = 32;

const QueryStructure kStructures[] = {
    QueryStructure::kLinear,         QueryStructure::kTwoWayJoin,
    QueryStructure::kThreeWayJoin,   QueryStructure::kThreeChainedFilters,
    QueryStructure::kFourWayJoin,    QueryStructure::kFiveWayJoin,
};
/// m510 nodes have 8 cores: 64, 256 and 1024 cores.
constexpr int kClusterNodes[] = {8, 32, 128};

/// Per-operation limit by workload and cluster size: at least four times
/// the slowest successful tune measured in that class (perfbench/README.md
/// has the figures), and at least 100 ms.
double LimitMs(bool prescreen, int cores) {
  if (prescreen) return cores >= 1024 ? 200.0 : 100.0;
  if (cores >= 1024) return 200.0;
  return cores >= 256 ? 750.0 : 300.0;
}

constexpr const char* kPhases[] = {
    "validate", "featurize", "intern",  "encode", "dedup",
    "group",    "resource_state", "mp_plan", "mp_mlp", "readout",
};
constexpr size_t kNumPhases = sizeof(kPhases) / sizeof(kPhases[0]);

struct TuneOp {
  QueryStructure structure = QueryStructure::kLinear;
  zt::dsp::QueryPlan logical;
  zt::dsp::Cluster cluster;
  int cores = 0;
  /// Simulator scores S = wt·ln L − (1−wt)·ln T over the grid candidates.
  double s_best = 0.0;
  double s_worst = 0.0;
};

struct OpRequest {
  uint32_t op = 0;
  uint32_t traced = 0;
};

/// Fixed-size reply, small enough for one atomic pipe write.
struct OpReply {
  uint32_t op = 0;
  uint8_t ok = 0;
  uint8_t analyzer_ok = 0;
  uint8_t predict_exact = 0;
  uint8_t traced = 0;
  uint32_t num_degrees = 0;
  int32_t degrees[kMaxOperators] = {};
  double tune_ms = 0.0;  // wall time of Tune()
  double cpu_ms = 0.0;   // CPU time of Tune(), which excludes stolen time
  // TuningResult and optimizer counters.
  double evaluated = 0.0;
  double rejected = 0.0;
  double prescreened = 0.0;
  double kept = 0.0;
  double hill_rounds = 0.0;
  double fallbacks = 0.0;
  // Decorators and folded spans (traced operations only).
  double enumerate_ms = 0.0;
  double candidates = 0.0;
  double batch_ms = 0.0;
  double batch_calls = 0.0;
  double batch_plans = 0.0;
  double batch_unique = 0.0;
  double op_rows_encoded = 0.0;
  double op_rows_total = 0.0;
  double res_rows_encoded = 0.0;
  double res_rows_total = 0.0;
  double predict_ms = 0.0;
  double predict_calls = 0.0;
  double optimizer_self_ms = 0.0;
  double calibrate_ms = 0.0;
  double rank_ms = 0.0;
  double phase_ms[kNumPhases] = {};
};
static_assert(sizeof(OpReply) <= PIPE_BUF, "reply must be one pipe write");

double Score(double latency_ms, double throughput_tps) {
  return kWeight * std::log(std::max(latency_ms, 1e-6)) -
         (1.0 - kWeight) * std::log(std::max(throughput_tps, 1e-6));
}

/// The optimizer's own materialization of a degree vector.
zt::Result<zt::dsp::ParallelQueryPlan> Materialize(
    const TuneOp& op, const std::vector<int>& degrees) {
  zt::dsp::ParallelQueryPlan plan(op.logical, op.cluster);
  for (const zt::dsp::Operator& o : op.logical.operators()) {
    ZT_RETURN_IF_ERROR(
        plan.SetParallelism(o.id, degrees[static_cast<size_t>(o.id)]));
  }
  plan.DerivePartitioning();
  ZT_RETURN_IF_ERROR(plan.PlaceRoundRobin());
  return plan;
}

zt::Result<double> SimScore(const zt::sim::CostEngine& engine,
                            const TuneOp& op,
                            const std::vector<int>& degrees) {
  ZT_ASSIGN_OR_RETURN(const zt::dsp::ParallelQueryPlan plan,
                      Materialize(op, degrees));
  ZT_RETURN_IF_ERROR(zt::analysis::PlanAnalyzer::Check(plan));
  ZT_ASSIGN_OR_RETURN(const zt::sim::CostMeasurement m,
                      engine.MeasureNoiseless(plan));
  return Score(m.latency_ms, m.throughput_tps);
}

/// The seeded operation stream: kQueriesPerPass queries cycling the six
/// structures, each on every cluster size, with simulator references.
zt::Result<std::vector<TuneOp>> BuildOps(uint64_t seed) {
  zt::workload::QueryGenerator gen(zt::workload::QueryGenerator::Options(),
                                   seed);
  zt::core::GridSearchSpace::Options gopts;
  gopts.max_parallelism = kMaxParallelism;
  const zt::core::GridSearchSpace grid(gopts);
  const zt::sim::CostEngine engine;
  std::vector<TuneOp> ops;
  for (size_t q = 0; q < kQueriesPerPass; ++q) {
    const QueryStructure structure =
        kStructures[q % (sizeof(kStructures) / sizeof(kStructures[0]))];
    ZT_ASSIGN_OR_RETURN(zt::workload::GeneratedQuery g,
                        gen.Generate(structure));
    if (g.plan.num_operators() > kMaxOperators) {
      return zt::Status::Internal("generated query exceeds kMaxOperators");
    }
    for (int nodes : kClusterNodes) {
      TuneOp op;
      op.structure = structure;
      op.logical = g.plan;
      ZT_ASSIGN_OR_RETURN(op.cluster,
                          zt::dsp::Cluster::Homogeneous("m510", nodes, 10.0));
      op.cores = op.cluster.TotalCores();
      ZT_ASSIGN_OR_RETURN(const std::vector<zt::core::PlanCandidate> cands,
                          grid.Enumerate(op.logical, op.cluster));
      bool any = false;
      for (const zt::core::PlanCandidate& c : cands) {
        const zt::Result<double> s = SimScore(engine, op, c.degrees);
        if (!s.ok()) continue;
        op.s_best = any ? std::min(op.s_best, s.value()) : s.value();
        op.s_worst = any ? std::max(op.s_worst, s.value()) : s.value();
        any = true;
      }
      if (!any) {
        return zt::Status::Internal(
            "no valid reference candidate for a generated query");
      }
      ops.push_back(std::move(op));
    }
  }
  return ops;
}

// ---------------------------------------------------------------- worker

struct ChildContext {
  const zt::core::ZeroTuneModel* model = nullptr;
  const std::vector<TuneOp>* ops = nullptr;
  bool prescreen = false;
};

double CounterValue(const char* name) {
  return static_cast<double>(
      zt::obs::MetricsRegistry::Global()->GetCounter(name)->Value());
}

OpReply RunOp(const ChildContext& ctx, const OpRequest& req) {
  const TuneOp& op = (*ctx.ops)[req.op];
  OpReply reply;
  reply.op = req.op;
  reply.traced = req.traced != 0;

  ProbeTotals totals;
  const TimedPredictor timed(ctx.model, &totals);
  zt::core::GridSearchSpace::Options gopts;
  gopts.max_parallelism = kMaxParallelism;
  const zt::core::GridSearchSpace grid(gopts);
  const TimedSearchSpace timed_space(&grid, &totals);

  zt::core::ParallelismOptimizer::Options opts;
  opts.weight = kWeight;
  opts.max_parallelism = kMaxParallelism;
  opts.prescreen.enabled = ctx.prescreen;
  const zt::core::CostPredictor* predictor = ctx.model;
  if (reply.traced) {
    opts.search_space = &timed_space;
    predictor = &timed;
  }
  const zt::core::ParallelismOptimizer optimizer(predictor, opts);

  const double rounds0 = CounterValue("optimizer.hill_climb_rounds_total");
  const double fallbacks0 =
      CounterValue("optimizer.prescreen.fallbacks_total");
  zt::obs::TraceRecorder* recorder = zt::obs::TraceRecorder::Global();
  if (reply.traced) {
    recorder->Clear();
    recorder->Enable();
  }
  const int64_t cpu0 = ProcessCpuNanos();
  const int64_t t0 = NowNanos();
  zt::Result<zt::core::ParallelismOptimizer::TuningResult> tuned =
      optimizer.Tune(op.logical, op.cluster);
  reply.tune_ms = MillisBetween(t0, NowNanos());
  reply.cpu_ms = MillisBetween(cpu0, ProcessCpuNanos());
  if (reply.traced) recorder->Disable();
  reply.hill_rounds =
      CounterValue("optimizer.hill_climb_rounds_total") - rounds0;
  reply.fallbacks =
      CounterValue("optimizer.prescreen.fallbacks_total") - fallbacks0;

  if (!tuned.ok()) {
    std::fprintf(stderr, "tune op %u failed: %s\n", req.op,
                 tuned.status().ToString().c_str());
    return reply;
  }
  const auto& r = tuned.value();
  reply.ok = 1;
  reply.evaluated = static_cast<double>(r.candidates_evaluated);
  reply.rejected = static_cast<double>(r.candidates_rejected);
  reply.prescreened = static_cast<double>(r.candidates_prescreened);
  reply.kept = static_cast<double>(r.prescreen_kept);
  const std::vector<int> degrees = r.plan.ParallelismVector();
  reply.num_degrees = static_cast<uint32_t>(degrees.size());
  for (size_t i = 0; i < degrees.size(); ++i) reply.degrees[i] = degrees[i];

  // Correctness checks, outside the timed call.
  reply.analyzer_ok = zt::analysis::PlanAnalyzer::Check(r.plan).ok();
  const zt::Result<zt::core::CostPrediction> direct =
      ctx.model->Predict(r.plan);
  reply.predict_exact =
      direct.ok() &&
      std::memcmp(&direct.value().latency_ms, &r.predicted.latency_ms,
                  sizeof(double)) == 0 &&
      std::memcmp(&direct.value().throughput_tps, &r.predicted.throughput_tps,
                  sizeof(double)) == 0;

  if (reply.traced) {
    const SpanFold fold = FoldSpans(recorder->Snapshot());
    recorder->Clear();
    reply.enumerate_ms = totals.enumerate_ms;
    reply.candidates = static_cast<double>(totals.candidates);
    reply.batch_ms = totals.batch_ms;
    reply.batch_calls = static_cast<double>(totals.batch_calls);
    reply.batch_plans = static_cast<double>(totals.batch.plans);
    reply.batch_unique = static_cast<double>(totals.batch.unique_plans);
    reply.op_rows_encoded =
        static_cast<double>(totals.batch.operator_rows_encoded);
    reply.op_rows_total = static_cast<double>(totals.batch.operator_rows_total);
    reply.res_rows_encoded =
        static_cast<double>(totals.batch.resource_rows_encoded);
    reply.res_rows_total =
        static_cast<double>(totals.batch.resource_rows_total);
    reply.predict_ms = totals.predict_ms;
    reply.predict_calls = static_cast<double>(totals.predict_calls);
    reply.calibrate_ms = fold.Self("optimizer/prescreen_calibrate");
    reply.rank_ms = fold.Self("optimizer/prescreen_rank");
    reply.optimizer_self_ms =
        fold.SelfWithPrefix("optimizer/") - reply.calibrate_ms - reply.rank_ms;
    for (size_t i = 0; i < kNumPhases; ++i) {
      reply.phase_ms[i] =
          fold.Total(std::string("batch_inference/") + kPhases[i]);
    }
  }
  return reply;
}

bool ReadFull(int fd, void* buf, size_t n) {
  auto* p = static_cast<char*>(buf);
  while (n > 0) {
    const ssize_t got = read(fd, p, n);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    p += got;
    n -= static_cast<size_t>(got);
  }
  return true;
}

bool WriteFull(int fd, const void* buf, size_t n) {
  const auto* p = static_cast<const char*>(buf);
  while (n > 0) {
    const ssize_t put = write(fd, p, n);
    if (put < 0 && errno == EINTR) continue;
    if (put <= 0) return false;
    p += put;
    n -= static_cast<size_t>(put);
  }
  return true;
}

/// One forked tuning worker. The destructor kills and reaps it.
class Worker {
 public:
  explicit Worker(const ChildContext& ctx) {
    int req[2];
    int rep[2];
    if (pipe2(req, O_CLOEXEC) != 0) return;
    if (pipe2(rep, O_CLOEXEC) != 0) {
      close(req[0]);
      close(req[1]);
      return;
    }
    std::cout.flush();
    std::cerr.flush();
    std::fflush(nullptr);
    const pid_t parent = getpid();
    const pid_t pid = fork();
    if (pid == 0) {
      // Die with the parent, even when it is killed.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (getppid() != parent) _exit(1);
      close(req[1]);
      close(rep[0]);
      OpRequest request;
      while (ReadFull(req[0], &request, sizeof(request))) {
        const OpReply reply = RunOp(ctx, request);
        if (!WriteFull(rep[1], &reply, sizeof(reply))) break;
      }
      _exit(0);
    }
    close(req[0]);
    close(rep[1]);
    if (pid < 0) {
      close(req[1]);
      close(rep[0]);
      return;
    }
    pid_ = pid;
    req_fd_ = req[1];
    rep_fd_ = rep[0];
  }
  ~Worker() {
    if (pid_ <= 0) return;
    kill(pid_, SIGKILL);
    close(req_fd_);
    close(rep_fd_);
    int status = 0;
    while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
  }
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  bool alive() const { return pid_ > 0; }

  bool Send(const OpRequest& request) {
    return WriteFull(req_fd_, &request, sizeof(request));
  }

  enum class Outcome { kReply, kTimeout, kDied };

  Outcome Receive(OpReply* reply, int64_t deadline_nanos) {
    for (;;) {
      const int64_t left = deadline_nanos - NowNanos();
      if (left <= 0) return Outcome::kTimeout;
      pollfd p{rep_fd_, POLLIN, 0};
      const int timeout_ms = static_cast<int>((left + 999999) / 1000000);
      const int n = poll(&p, 1, timeout_ms);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) return Outcome::kDied;
      if (n == 0) continue;  // re-check the deadline
      return ReadFull(rep_fd_, reply, sizeof(*reply)) ? Outcome::kReply
                                                      : Outcome::kDied;
    }
  }

 private:
  pid_t pid_ = -1;
  int req_fd_ = -1;
  int rep_fd_ = -1;
};

// ---------------------------------------------------------------- report

struct OpRecord {
  bool ok = false;
  /// Tune latency: the worker's CPU time for Tune(), or for a failed tune
  /// the limit (or the wall time until the parent gave up, if later).
  double ms = 0.0;
  double wall_ms = 0.0;  // the same with the wall time of Tune()
  OpReply reply;
  /// Traced runs only: the same tune again with the probes and tracing
  /// on (run first for even operations, second for odd ones).
  bool traced_ok = false;
  OpReply traced;
};

std::string DegreesKey(const OpReply& r) {
  std::string key;
  for (uint32_t i = 0; i < r.num_degrees; ++i) {
    key += std::to_string(r.degrees[i]) + (i + 1 < r.num_degrees ? "," : "");
  }
  return key;
}

/// Runs operation `op` in the worker (starting one if needed) and waits at
/// most the limit. Returns the tune's wall time, or for a failed tune the
/// limit or the time it was given up on, whichever is later.
double RunOne(const ChildContext& ctx, uint32_t op, bool traced,
              std::unique_ptr<Worker>* worker, bool* ok, OpReply* reply) {
  *ok = false;
  if (*worker == nullptr) *worker = std::make_unique<Worker>(ctx);
  const double limit_ms = LimitMs(ctx.prescreen, (*ctx.ops)[op].cores);
  const int64_t t0 = NowNanos();
  Worker::Outcome outcome = Worker::Outcome::kDied;
  if ((*worker)->alive() && (*worker)->Send(OpRequest{op, traced ? 1u : 0u})) {
    outcome = (*worker)->Receive(reply,
                                 t0 + static_cast<int64_t>(limit_ms * 1e6));
  }
  const double waited_ms = MillisBetween(t0, NowNanos());
  if (outcome != Worker::Outcome::kReply) worker->reset();
  if (outcome == Worker::Outcome::kReply && reply->op == op && reply->ok) {
    *ok = true;
    return reply->tune_ms;
  }
  return std::max(limit_ms, waited_ms);
}

/// One pass over the stream. With `paired`, every operation that succeeds
/// also runs traced, in alternating order.
std::vector<OpRecord> RunPass(const ChildContext& ctx, bool paired,
                              std::unique_ptr<Worker>* worker,
                              std::vector<std::string>* problems) {
  std::vector<OpRecord> records(ctx.ops->size());
  for (uint32_t i = 0; i < records.size(); ++i) {
    OpRecord& rec = records[i];
    const bool traced_first = paired && i % 2 == 0;
    bool first_ok = false;
    double first_ms = RunOne(ctx, i, traced_first, worker, &first_ok,
                             traced_first ? &rec.traced : &rec.reply);
    if (!paired || !first_ok) {
      rec.ok = first_ok;
      rec.wall_ms = first_ms;
      rec.ms = first_ok ? rec.reply.cpu_ms : first_ms;
      continue;
    }
    bool second_ok = false;
    const double second_ms = RunOne(ctx, i, !traced_first, worker, &second_ok,
                                    traced_first ? &rec.reply : &rec.traced);
    if (!second_ok) {
      problems->push_back("op " + std::to_string(i) +
                          " failed on its repeat only");
    }
    rec.ok = first_ok && second_ok;
    rec.traced_ok = rec.ok;
    rec.wall_ms = traced_first ? second_ms : first_ms;
    rec.ms = rec.ok ? rec.reply.cpu_ms : rec.wall_ms;
  }
  return records;
}

}  // namespace

WorkloadOutput RunTuneWorkload(const SetupResult& setup, const RunConfig& run,
                               bool prescreen) {
  WorkloadOutput out;
  zt::Result<std::vector<TuneOp>> built = BuildOps(run.seed);
  if (!built.ok()) {
    out.problems.push_back("building the query stream: " +
                           built.status().ToString());
    return out;
  }
  const std::vector<TuneOp>& ops = built.value();
  const ChildContext ctx{setup.model.get(), &ops, prescreen};

  // Passes while another one is expected to end within --seconds; a
  // traced run makes one pass that runs every tune untraced and traced.
  std::vector<std::vector<OpRecord>> passes;
  std::unique_ptr<Worker> worker;
  const int64_t loop_start = NowNanos();
  double loop_s = 0.0;
  for (;;) {
    passes.push_back(RunPass(ctx, run.traced, &worker, &out.problems));
    const double pass_s = MillisBetween(loop_start, NowNanos()) / 1000.0 -
                          loop_s;
    loop_s += pass_s;
    if (run.traced || !out.problems.empty() ||
        loop_s + pass_s > run.seconds || loop_s >= kHardCapSeconds) {
      break;
    }
  }
  worker.reset();

  // Correctness and exact repetition across passes.
  const std::vector<OpRecord>& first = passes.front();
  std::vector<double> all_ms;
  std::vector<double> all_wall_ms;
  uint64_t ok_total = 0;
  for (const std::vector<OpRecord>& pass : passes) {
    for (size_t i = 0; i < pass.size(); ++i) {
      const OpRecord& rec = pass[i];
      ++out.attempted;
      all_ms.push_back(rec.ms);
      all_wall_ms.push_back(rec.wall_ms);
      if (!rec.ok) {
        ++out.failed;
        if (first[i].ok) {
          out.problems.push_back("op " + std::to_string(i) +
                                 " failed in a later pass only");
        }
        continue;
      }
      ++ok_total;
      if (!rec.reply.analyzer_ok) {
        out.problems.push_back("op " + std::to_string(i) +
                               ": winner fails PlanAnalyzer::Check");
      }
      if (!rec.reply.predict_exact) {
        out.problems.push_back("op " + std::to_string(i) +
                               ": TuningResult::predicted != model.Predict");
      }
      if (!first[i].ok || DegreesKey(first[i].reply) != DegreesKey(rec.reply)) {
        out.problems.push_back("op " + std::to_string(i) +
                               ": winner differs between passes");
      }
      if (rec.traced_ok &&
          (!rec.traced.analyzer_ok || !rec.traced.predict_exact ||
           DegreesKey(rec.traced) != DegreesKey(rec.reply))) {
        out.problems.push_back("op " + std::to_string(i) +
                               ": traced tune disagrees with untraced");
      }
    }
  }

  // Regret against the noiseless simulator, from the first pass.
  const zt::sim::CostEngine engine;
  std::vector<double> regrets;
  std::map<std::string, std::vector<double>> by_structure;
  uint64_t first_failed = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    const TuneOp& op = ops[i];
    double regret = std::exp(op.s_worst - op.s_best);
    if (first[i].ok) {
      const std::vector<int> degrees(first[i].reply.degrees,
                                     first[i].reply.degrees +
                                         first[i].reply.num_degrees);
      const zt::Result<double> s = SimScore(engine, op, degrees);
      if (!s.ok()) {
        out.problems.push_back("op " + std::to_string(i) +
                               ": winner cannot be measured: " +
                               s.status().ToString());
      } else {
        regret = std::exp(s.value() - std::min(op.s_best, s.value()));
      }
    } else {
      ++first_failed;
    }
    regrets.push_back(regret);
    by_structure[zt::workload::ToString(op.structure)].push_back(regret);
  }
  double worst_group = 1.0;
  for (const auto& [name, values] : by_structure) {
    worst_group = std::max(worst_group, GeoMean(values));
  }

  std::string winners;
  for (const OpRecord& rec : first) {
    winners += rec.ok ? DegreesKey(rec.reply) : std::string("fail");
    winners += ";";
  }
  out.repeat["failed_per_pass"] = std::to_string(first_failed);
  out.repeat["winners_fnv"] = std::to_string(Fnv1a(winners));
  out.repeat["regret_gmean"] = JsonNumber(GeoMean(regrets));

  out.notes.push_back("passes " + std::to_string(passes.size()) + " x " +
                      std::to_string(ops.size()) + " tunes, failed " +
                      std::to_string(first_failed) + " per pass");
  std::map<int, double> slowest_ok;
  std::map<int, uint64_t> failed_by_cores;
  for (size_t i = 0; i < ops.size(); ++i) {
    const int cores = ops[i].cores;
    failed_by_cores[cores] += first[i].ok ? 0 : 1;
    for (const auto& pass : passes) {
      if (pass[i].ok) {
        slowest_ok[cores] = std::max(slowest_ok[cores], pass[i].wall_ms);
      }
    }
  }
  for (const auto& [cores, failed] : failed_by_cores) {
    out.notes.push_back(std::to_string(cores) + " cores: failed " +
                        std::to_string(failed) + ", slowest successful tune " +
                        JsonNumber(slowest_ok[cores]) + " ms (limit " +
                        JsonNumber(LimitMs(prescreen, cores)) + " ms)");
  }
  for (const auto& [name, values] : by_structure) {
    out.notes.push_back("plan_regret_gmean[" + name +
                        "] = " + JsonNumber(GeoMean(values)));
  }

  MetricTable& m = out.metrics;
  if (!run.traced) {
    m.Set("latency_ms_p50", Percentile(all_ms, 50.0), "ms");
    m.Set("ok_per_s", static_cast<double>(ok_total) / loop_s, "1/s");
    m.Set("ok_share",
          static_cast<double>(ok_total) / static_cast<double>(out.attempted),
          "share");
    m.Set("answer_err_gmean", GeoMean(regrets), "ratio");
    m.Set("answer_err_worst_group", worst_group, "ratio");
    return out;
  }

  // Traced run: per-layer figures from the traced tunes, averaged per
  // successful tune; overhead against the same tunes untraced.
  OpReply sum;
  double n = 0.0;
  double wall_ms = 0.0;
  double traced_cpu_ms = 0.0;
  double untraced_cpu_ms = 0.0;
  double unaccounted_ms = 0.0;
  for (const OpRecord& rec : first) {
    if (!rec.traced_ok) continue;
    const OpReply& r = rec.traced;
    n += 1.0;
    wall_ms += r.tune_ms;
    traced_cpu_ms += r.cpu_ms;
    untraced_cpu_ms += rec.reply.cpu_ms;
    unaccounted_ms += r.tune_ms -
                      (r.optimizer_self_ms + r.calibrate_ms + r.rank_ms +
                       r.enumerate_ms + r.batch_ms + r.predict_ms);
    sum.evaluated += r.evaluated;
    sum.rejected += r.rejected;
    sum.prescreened += r.prescreened;
    sum.kept += r.kept;
    sum.hill_rounds += r.hill_rounds;
    sum.fallbacks += r.fallbacks;
    sum.enumerate_ms += r.enumerate_ms;
    sum.candidates += r.candidates;
    sum.batch_ms += r.batch_ms;
    sum.batch_calls += r.batch_calls;
    sum.batch_plans += r.batch_plans;
    sum.batch_unique += r.batch_unique;
    sum.op_rows_encoded += r.op_rows_encoded;
    sum.op_rows_total += r.op_rows_total;
    sum.res_rows_encoded += r.res_rows_encoded;
    sum.res_rows_total += r.res_rows_total;
    sum.predict_ms += r.predict_ms;
    sum.predict_calls += r.predict_calls;
    sum.optimizer_self_ms += r.optimizer_self_ms;
    sum.calibrate_ms += r.calibrate_ms;
    sum.rank_ms += r.rank_ms;
    for (size_t p = 0; p < kNumPhases; ++p) sum.phase_ms[p] += r.phase_ms[p];
  }
  m.Set("tune.latency_ms_p90", Percentile(all_ms, 90.0), "ms");
  m.Set("tune.wall_ms_p50", Percentile(all_wall_ms, 50.0), "ms");
  m.Set("optimizer.regret_p90", Percentile(regrets, 90.0), "ratio");
  const auto per_tune = [n](double v) { return n > 0.0 ? v / n : 0.0; };
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  m.Set("search_space.enumerate_ms", per_tune(sum.enumerate_ms), "ms");
  m.Set("search_space.candidates", per_tune(sum.candidates), "count");
  m.Set("optimizer.self_ms", per_tune(sum.optimizer_self_ms), "ms");
  m.Set("optimizer.gnn_scored", per_tune(sum.evaluated), "count");
  m.Set("optimizer.rejected", per_tune(sum.rejected), "count");
  m.Set("optimizer.hill_climb_rounds", per_tune(sum.hill_rounds), "count");
  m.Set("prescreen.calibrate_ms", per_tune(sum.calibrate_ms), "ms");
  m.Set("prescreen.rank_ms", per_tune(sum.rank_ms), "ms");
  m.Set("prescreen.ranked", per_tune(sum.prescreened), "count");
  m.Set("prescreen.kept", per_tune(sum.kept), "count");
  m.Set("prescreen.fallbacks", per_tune(sum.fallbacks), "count");
  m.Set("batch_inference.ms", per_tune(sum.batch_ms), "ms");
  m.Set("batch_inference.calls", per_tune(sum.batch_calls), "count");
  m.Set("batch_inference.plans_per_call",
        ratio(sum.batch_plans, sum.batch_calls), "count");
  m.Set("batch_inference.unique_plan_ratio",
        ratio(sum.batch_unique, sum.batch_plans), "ratio");
  m.Set("batch_inference.op_rows_ratio",
        ratio(sum.op_rows_encoded, sum.op_rows_total), "ratio");
  m.Set("batch_inference.res_rows_ratio",
        ratio(sum.res_rows_encoded, sum.res_rows_total), "ratio");
  for (size_t p = 0; p < kNumPhases; ++p) {
    m.Set(std::string("batch_inference.") + kPhases[p] + "_ms",
          per_tune(sum.phase_ms[p]), "ms");
  }
  const zt::core::ZeroTuneModel::GnnBlocks blocks = setup.model->blocks();
  const double rows = sum.op_rows_encoded + sum.res_rows_encoded;
  const double flops =
      sum.op_rows_encoded * MlpFlopsPerRow(*blocks.op_encoder) +
      sum.res_rows_encoded * MlpFlopsPerRow(*blocks.res_encoder);
  m.Set("nn.mlp_rows", per_tune(rows), "count");
  m.Set("nn.gemm_flops", per_tune(flops), "count");
  m.Set("model.predict_ms", per_tune(sum.predict_ms), "ms");
  m.Set("model.predict_calls", per_tune(sum.predict_calls), "count");
  m.Set("trace.overhead_share",
        ratio(traced_cpu_ms - untraced_cpu_ms, untraced_cpu_ms), "share");
  const double unaccounted = ratio(unaccounted_ms, wall_ms);
  m.Set("trace.tune_unaccounted_share", unaccounted, "share");
  // The layer self times must sum back to the measured tune time.
  constexpr double kUnaccountedTolerance = 0.05;
  if (std::abs(unaccounted) > kUnaccountedTolerance) {
    out.problems.push_back("tune layer times leave " +
                           JsonNumber(unaccounted) +
                           " of tune time unaccounted (tolerance " +
                           JsonNumber(kUnaccountedTolerance) + ")");
  }
  return out;
}

}  // namespace perfbench
