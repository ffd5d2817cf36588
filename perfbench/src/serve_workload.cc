// Open-loop serving workload (serve_fleet).
//
// Single-plan predictions go into a pooled PredictionFleet, the way
// `zerotune serve-sim --replicas N --threads T` runs one: caller threads
// hand requests to the fleet, whose attempts and hedges race on a thread
// pool. Request i of a reference rung is due at start + i / rate; callers
// send each request at its due time, or as soon as one is free, and its
// latency counts from the due time, so a stall is charged to every
// request queued behind it. In closed-loop rungs the callers send back to
// back.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <thread>

#include "analysis/plan_analyzer.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/oracle_predictor.h"
#include "core/search_space.h"
#include "probes.h"
#include "serve/chaos_predictor.h"
#include "serve/fleet/fleet.h"
#include "serve/fleet/hash_ring.h"
#include "workload/generator.h"
#include "workloads.h"

namespace perfbench {

namespace zt = zerotune;
using zt::workload::QueryStructure;

namespace {

constexpr size_t kQueries = 180;
constexpr int kClusterNodes[] = {8, 32, 128};
constexpr size_t kPlansPerQueryCluster = 2;
const QueryStructure kStructures[] = {
    QueryStructure::kLinear,         QueryStructure::kTwoWayJoin,
    QueryStructure::kThreeWayJoin,   QueryStructure::kThreeChainedFilters,
    QueryStructure::kFourWayJoin,    QueryStructure::kFiveWayJoin,
};

/// Caller threads plus pool threads: one per core on a 4-core machine.
constexpr size_t kCallers = 2;
constexpr size_t kPoolThreads = 2;
/// The fleet drill in `zerotune serve-sim`'s usage: 4 replicas, 100 tenants,
/// 10% injected primary failures (its --fail-rate default), 5 ms slow
/// calls (its --slow-ms default) and no deadline.
constexpr size_t kReplicas = 4;
constexpr size_t kTenants = 100;
constexpr double kFailRate = 0.1;
constexpr double kSlowMs = 5.0;
/// serve-sim injects no slow calls by default. 2% keeps them above the
/// hedge delay (the fleet's 95th latency percentile), so they are the
/// requests that hedge.
constexpr double kSlowRate = 0.02;
/// Tenant popularity: Zipf with exponent 1.
constexpr double kTenantSkew = 1.0;
/// Callers spin for the last stretch before a due time.
constexpr int64_t kSpinNanos = 300000;

/// An untraced run splits --seconds into kClosedRungs closed-loop rungs.
/// A traced run spends half of --seconds on kReferenceRungs rungs at
/// kReferenceRate, as much again on as many traced rungs, and as much
/// again searching for the highest rate that keeps up: the rate doubles
/// from kReferenceRate until a rung misses, then kBisections rungs bisect
/// between the last rate that kept up and the first that missed.
///
/// kReferenceRate is about a fifth of serve.max_rps as measured on the
/// revision that added this benchmark (perfbench/README.md).
constexpr size_t kClosedRungs = 10;
constexpr double kReferenceRate = 200.0;
constexpr size_t kReferenceRungs = 5;
constexpr double kMaxRate = 64000.0;
constexpr size_t kBisections = 5;
constexpr size_t kSearchRungs = 10;  // rung length = search time / this
constexpr double kP99LimitMs = 50.0;
/// Samples kept per closed-loop rung, far above what a rung of a few
/// seconds sends; a rung stops sending at this many.
constexpr size_t kMaxClosedRequests = 1 << 16;

struct ServePlan {
  zt::dsp::ParallelQueryPlan plan;
  std::string structure;
  zt::core::CostPrediction expected;  // the model's direct Predict
};

/// q-error with both values floored at 1 (ms or tuples/s): the model
/// answers 0 for about a third of these plans, and a fallback answer must
/// not count as infinitely far from a zero.
double QError(double predicted, double truth) {
  const double p = std::max(predicted, 1.0);
  const double t = std::max(truth, 1.0);
  return std::max(p / t, t / p);
}

/// How far a served answer is from the model's own prediction for the
/// plan: the geometric mean of the latency and throughput q-errors, 1 for
/// an exact answer. Only degraded (fallback) answers differ.
double AnswerError(const zt::core::CostPrediction& answer,
                   const zt::core::CostPrediction& model) {
  return std::sqrt(QError(answer.latency_ms, model.latency_ms) *
                   QError(answer.throughput_tps, model.throughput_tps));
}

bool SameBits(const zt::core::CostPrediction& a,
              const zt::core::CostPrediction& b) {
  const auto same = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof(double)) == 0;
  };
  return same(a.latency_ms, b.latency_ms) &&
         same(a.throughput_tps, b.throughput_tps);
}

/// Materialized grid candidates of the seeded query stream.
zt::Result<std::vector<ServePlan>> BuildPlans(
    const zt::core::ZeroTuneModel& model, uint64_t seed) {
  zt::workload::QueryGenerator gen(zt::workload::QueryGenerator::Options(),
                                   seed);
  zt::Rng pick(zt::serve::fleet::DeriveSeed(seed, 11));
  const zt::core::GridSearchSpace grid;
  std::vector<ServePlan> plans;
  for (size_t q = 0; q < kQueries; ++q) {
    const QueryStructure structure =
        kStructures[q % (sizeof(kStructures) / sizeof(kStructures[0]))];
    ZT_ASSIGN_OR_RETURN(zt::workload::GeneratedQuery g,
                        gen.Generate(structure));
    for (int nodes : kClusterNodes) {
      ZT_ASSIGN_OR_RETURN(zt::dsp::Cluster cluster,
                          zt::dsp::Cluster::Homogeneous("m510", nodes, 10.0));
      ZT_ASSIGN_OR_RETURN(std::vector<zt::core::PlanCandidate> cands,
                          grid.Enumerate(g.plan, cluster));
      // A seeded sample of the valid candidates.
      pick.Shuffle(&cands);
      size_t taken = 0;
      for (const zt::core::PlanCandidate& c : cands) {
        if (taken == kPlansPerQueryCluster) break;
        zt::dsp::ParallelQueryPlan plan(g.plan, cluster);
        bool ok = true;
        for (const zt::dsp::Operator& o : g.plan.operators()) {
          const int degree = c.degrees[static_cast<size_t>(o.id)];
          ok = ok && plan.SetParallelism(o.id, degree).ok();
        }
        if (!ok) continue;
        plan.DerivePartitioning();
        if (!plan.PlaceRoundRobin().ok()) continue;
        if (!zt::analysis::PlanAnalyzer::Check(plan).ok()) continue;
        ServePlan sp{std::move(plan), zt::workload::ToString(structure), {}};
        ZT_ASSIGN_OR_RETURN(sp.expected, model.Predict(sp.plan));
        plans.push_back(std::move(sp));
        ++taken;
      }
    }
  }
  return plans;
}

/// The primary each replica serves: counts calls, injects seeded
/// failures and slow calls, and times the model underneath.
class ReplicaPrimary : public zt::core::CostPredictor {
 public:
  ReplicaPrimary(const zt::core::ZeroTuneModel* model, ProbeTotals* totals,
                 std::atomic<uint64_t>* calls, bool timed,
                 zt::serve::ChaosPredictor::Options chaos)
      : timed_(model, totals),
        chaos_(timed ? static_cast<const zt::core::CostPredictor*>(&timed_)
                     : model,
               chaos, nullptr),
        calls_(calls) {}

  zt::Result<zt::core::CostPrediction> Predict(
      const zt::dsp::ParallelQueryPlan& plan) const override {
    calls_->fetch_add(1, std::memory_order_relaxed);
    return chaos_.Predict(plan);
  }
  std::string name() const override { return chaos_.name(); }

 private:
  TimedPredictor timed_;
  zt::serve::ChaosPredictor chaos_;
  std::atomic<uint64_t>* calls_;
};

/// One request's outcome, as the caller saw it.
struct Sample {
  bool answered = false;
  bool degraded = false;
  bool exact = true;        // non-degraded answer equals the model's own
  double latency_ms = 0.0;  // completion minus due time
  double late_ms = 0.0;     // send time minus due time
  double queue_wait_ms = 0.0;
  double answer_err = 1.0;
  size_t plan = 0;
};

using Field = double Sample::*;

struct Rung {
  double rate = 0.0;  // 0: closed loop
  size_t requests = 0;
  std::vector<Sample> samples;
  zt::serve::fleet::FleetStats stats;
  double fleet_start_ms = 0.0;
  double wall_s = 0.0;
  /// Process CPU time from the first send until the pool is idle: every
  /// thread's work for the rung's requests, without the time spent
  /// waiting or the CPU time a hypervisor took away.
  double cpu_ms = 0.0;
  uint64_t primary_calls = 0;
  std::vector<std::string> problems;

  double Percentile(double p, Field field = &Sample::latency_ms) const {
    std::vector<double> v;
    v.reserve(samples.size());
    for (const Sample& s : samples) v.push_back(s.*field);
    return perfbench::Percentile(std::move(v), p);
  }
  uint64_t answered() const {
    uint64_t n = 0;
    for (const Sample& s : samples) n += s.answered;
    return n;
  }
  /// Answered by the model, not by a fallback.
  uint64_t ok() const {
    uint64_t n = 0;
    for (const Sample& s : samples) n += s.answered && !s.degraded;
    return n;
  }
  uint64_t shed() const {
    return stats.shed_fleet_capacity + stats.shed_tenant_quota +
           stats.shed_fair_share;
  }
  /// Meets the latency limit, answers (nearly) everything and keeps up:
  /// the last quarter of requests is sent no later than the limit.
  bool Meets() const {
    std::vector<double> tail_late;
    for (size_t i = samples.size() * 3 / 4; i < samples.size(); ++i) {
      tail_late.push_back(samples[i].late_ms);
    }
    const double answered_share =
        static_cast<double>(answered()) / static_cast<double>(samples.size());
    return Percentile(99.0) <= kP99LimitMs && answered_share >= 0.99 &&
           perfbench::Percentile(tail_late, 99.0) <= kP99LimitMs;
  }
};

/// Zipf-distributed tenant for request `i` (seeded, thread-independent).
std::string TenantOf(uint64_t stream, size_t i,
                     const std::vector<double>& cdf) {
  const uint64_t bits = zt::serve::fleet::Mix64(stream ^ i) >> 11;
  const double u = static_cast<double>(bits) / 9007199254740992.0;  // 2^53
  const size_t t = static_cast<size_t>(
      std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
  return "t" + std::to_string(std::min(t, cdf.size() - 1));
}

/// One rung on a fresh fleet. With `rate` > 0, `requests` requests are
/// due at fixed intervals; with `rate` == 0, callers send back to back
/// for `seconds`.
Rung RunRung(const SetupResult& setup, const std::vector<ServePlan>& plans,
             uint64_t seed, double rate, size_t requests, double seconds,
             bool traced, ProbeTotals* totals) {
  Rung rung;
  rung.rate = rate;
  const bool closed = rate <= 0.0;
  rung.samples.resize(closed ? kMaxClosedRequests : requests);
  std::atomic<uint64_t> primary_calls{0};

  zt::serve::ChaosPredictor::Options chaos;
  chaos.fail_rate = kFailRate;
  chaos.slow_rate = kSlowRate;
  chaos.slow_ms = kSlowMs;
  const uint64_t chaos_stream = zt::serve::fleet::DeriveSeed(seed, 1);
  const zt::core::ZeroTuneModel* model = setup.model.get();
  auto factory = [&, model](uint32_t id)
      -> std::unique_ptr<const zt::core::CostPredictor> {
    zt::serve::ChaosPredictor::Options per_replica = chaos;
    per_replica.seed = zt::serve::fleet::DeriveSeed(chaos_stream, id);
    return std::make_unique<ReplicaPrimary>(model, totals, &primary_calls,
                                            traced, per_replica);
  };
  const zt::core::OraclePredictor fallback;
  zt::serve::fleet::FleetOptions fopts;
  fopts.initial_replicas = kReplicas;
  fopts.replica.seed = zt::serve::fleet::DeriveSeed(seed, 2);

  std::vector<double> cdf(kTenants);
  double mass = 0.0;
  for (size_t t = 0; t < kTenants; ++t) {
    mass += 1.0 / std::pow(static_cast<double>(t + 1), kTenantSkew);
    cdf[t] = mass;
  }
  for (double& c : cdf) c /= mass;
  const uint64_t tenant_stream = zt::serve::fleet::DeriveSeed(seed, 3);
  const uint64_t plan_stream = zt::serve::fleet::DeriveSeed(seed, 4);

  zt::obs::TraceRecorder* recorder = zt::obs::TraceRecorder::Global();
  // One pool for the whole run, as a server keeps one; every rung still
  // starts a fresh fleet.
  static zt::ThreadPool pool(kPoolThreads);
  std::atomic<size_t> next{0};
  const int64_t t_start_fleet = ProcessCpuNanos();
  {
    zt::serve::fleet::PredictionFleet fleet(factory, &fallback, fopts, &pool,
                                            nullptr);
    rung.fleet_start_ms = MillisBetween(t_start_fleet, ProcessCpuNanos());
    if (traced) {
      recorder->Clear();
      recorder->Enable();
    }

    const int64_t cpu0 = ProcessCpuNanos();
    const int64_t t0 = NowNanos();
    const int64_t t_end = t0 + static_cast<int64_t>(seconds * 1e9);
    const double interval_ns = closed ? 0.0 : 1e9 / rate;
    auto caller = [&]() {
      zt::serve::fleet::FleetRequest req;
      for (;;) {
        if (closed && NowNanos() >= t_end) return;
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= rung.samples.size()) return;
        Sample& s = rung.samples[i];
        int64_t now = NowNanos();
        int64_t due = now;
        if (!closed) {
          due = t0 + static_cast<int64_t>(interval_ns * static_cast<double>(i));
        }
        // Sleep to shortly before the due time, then spin, so the send
        // time does not carry the scheduler's wake-up delay.
        if (due - now > kSpinNanos) {
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(due - now - kSpinNanos));
        }
        while ((now = NowNanos()) < due) {
        }
        const uint64_t pick = zt::serve::fleet::Mix64(plan_stream ^ i);
        s.plan = static_cast<size_t>(pick % plans.size());
        req.plan = &plans[s.plan].plan;
        req.tenant = TenantOf(tenant_stream, i, cdf);
        s.late_ms = MillisBetween(due, now);
        const zt::Result<zt::serve::fleet::FleetPrediction> got =
            fleet.Predict(req);
        s.latency_ms = MillisBetween(due, NowNanos());
        if (!got.ok()) continue;
        const zt::serve::fleet::FleetPrediction& fp = got.value();
        s.answered = true;
        s.degraded = fp.served.degraded || fp.rescued;
        s.queue_wait_ms = std::max(0.0, fp.latency_ms - fp.served.total_ms);
        s.exact =
            s.degraded || SameBits(fp.served.cost, plans[s.plan].expected);
        s.answer_err = AnswerError(fp.served.cost, plans[s.plan].expected);
      }
    };
    std::vector<std::thread> callers;
    for (size_t c = 0; c < kCallers; ++c) callers.emplace_back(caller);
    for (std::thread& t : callers) t.join();
    rung.wall_s = MillisBetween(t0, NowNanos()) / 1000.0;
    // Hedge losers may still be running; quiesce so the counts balance.
    pool.Wait();
    rung.cpu_ms = MillisBetween(cpu0, ProcessCpuNanos());
    if (traced) recorder->Disable();
    rung.stats = fleet.Snapshot();
  }
  rung.requests = std::min(next.load(), rung.samples.size());
  rung.samples.resize(rung.requests);
  rung.samples.shrink_to_fit();
  rung.primary_calls = primary_calls.load();

  const auto& st = rung.stats;
  if (st.received != st.admitted + rung.shed()) {
    rung.problems.push_back("FleetStats: received != admitted + shed");
  }
  if (st.admitted != st.answered + st.deadline_expired + st.failed) {
    rung.problems.push_back(
        "FleetStats: admitted != answered + expired + failed");
  }
  if (st.received != rung.requests) {
    rung.problems.push_back("FleetStats: received != requests sent");
  }
  if (st.answered != rung.answered()) {
    rung.problems.push_back("FleetStats: answered != answers seen");
  }
  for (const Sample& s : rung.samples) {
    if (s.answered && !s.exact) {
      rung.problems.push_back(
          "a non-degraded fleet answer differs from model.Predict");
      break;
    }
  }
  return rung;
}

double MedianOf(const std::vector<Rung>& rungs, double p, Field field) {
  std::vector<double> v;
  for (const Rung& r : rungs) v.push_back(r.Percentile(p, field));
  return Median(v);
}

double Ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

/// What the fleet's own counters say about a set of rungs.
std::string Describe(const std::vector<Rung>& rungs) {
  uint64_t requests = 0, degraded = 0, quota = 0, fair = 0, capacity = 0,
           hedges = 0, retries = 0, trips = 0;
  for (const Rung& r : rungs) {
    requests += r.requests;
    degraded += r.stats.degraded;
    quota += r.stats.shed_tenant_quota;
    fair += r.stats.shed_fair_share;
    capacity += r.stats.shed_fleet_capacity;
    hedges += r.stats.hedges_sent;
    for (const auto& replica : r.stats.replicas) {
      retries += replica.service.retries;
      trips += replica.service.breaker_trips;
    }
  }
  std::string s = std::to_string(requests) + " requests in ";
  s += std::to_string(rungs.size()) + " rungs: shed ";
  s += std::to_string(capacity) + " capacity / ";
  s += std::to_string(quota) + " tenant quota / ";
  s += std::to_string(fair) + " fair share, hedges ";
  s += std::to_string(hedges) + ", retries " + std::to_string(retries);
  s += ", breaker trips " + std::to_string(trips);
  s += ", degraded " + std::to_string(degraded);
  return s;
}

/// Untraced run: the end-to-end metrics, from closed-loop rungs. The
/// bounded figures are CPU times (perfbench/README.md): a request's
/// latency is the process CPU time per request, and goodput is counted
/// per CPU second; the wall-clock figures go to `notes`.
void MeasureClosedLoop(const SetupResult& setup,
                       const std::vector<ServePlan>& plans,
                       const RunConfig& run, std::vector<Rung>* rungs,
                       MetricTable* m, std::vector<std::string>* notes) {
  const double rung_s = run.seconds / static_cast<double>(kClosedRungs);
  std::vector<double> cpu_ms, goodput, wall_goodput;
  for (size_t k = 0; k < kClosedRungs; ++k) {
    ProbeTotals unused;
    rungs->push_back(
        RunRung(setup, plans, run.seed, 0.0, 0, rung_s, false, &unused));
    const Rung& r = rungs->back();
    const double ok = static_cast<double>(r.ok());
    cpu_ms.push_back(r.cpu_ms / static_cast<double>(r.requests));
    goodput.push_back(ok / (r.cpu_ms / 1000.0));
    wall_goodput.push_back(ok / r.wall_s);
  }
  notes->push_back(
      "closed loop, by wall clock: p50 " +
      JsonNumber(MedianOf(*rungs, 50.0, &Sample::latency_ms)) + " ms, " +
      JsonNumber(Median(wall_goodput)) + " answers/s");
  std::vector<double> errs;
  std::map<std::string, std::vector<double>> by_structure;
  uint64_t ok = 0, requests = 0;
  for (const Rung& r : *rungs) {
    ok += r.ok();
    requests += r.requests;
    for (const Sample& s : r.samples) {
      if (!s.answered) continue;
      errs.push_back(s.answer_err);
      by_structure[plans[s.plan].structure].push_back(s.answer_err);
    }
  }
  double worst_group = 1.0;
  for (const auto& [name, values] : by_structure) {
    worst_group = std::max(worst_group, GeoMean(values));
  }
  m->Set("latency_ms_p50", Median(cpu_ms), "ms");
  m->Set("ok_per_s", Median(goodput), "1/s");
  m->Set("ok_share", Ratio(static_cast<double>(ok), requests), "share");
  m->Set("answer_err_gmean", GeoMean(errs), "ratio");
  m->Set("answer_err_worst_group", worst_group, "ratio");
}

/// The highest rate that keeps up, by a wall-clock search; every rung
/// it runs is appended to `rungs` and described in `notes`.
double SearchMaxRate(const SetupResult& setup,
                     const std::vector<ServePlan>& plans,
                     const RunConfig& run, double search_s,
                     std::vector<Rung>* rungs,
                     std::vector<std::string>* notes) {
  const double rung_s = search_s / static_cast<double>(kSearchRungs);
  double max_rps = 0.0;
  auto keeps_up = [&](double rate) {
    const size_t n = static_cast<size_t>(std::ceil(rate * rung_s));
    ProbeTotals unused;
    rungs->push_back(
        RunRung(setup, plans, run.seed, rate, n, 0.0, false, &unused));
    const Rung& r = rungs->back();
    const bool meets = r.Meets();
    std::string note = "rate " + JsonNumber(rate) + "/s: p50 ";
    note += JsonNumber(r.Percentile(50.0)) + " ms, p99 ";
    note += JsonNumber(r.Percentile(99.0)) + " ms, late p99 ";
    note += JsonNumber(r.Percentile(99.0, &Sample::late_ms)) + " ms, ";
    notes->push_back(note + Describe({r}) + (meets ? "" : "  (misses)"));
    if (meets) {
      max_rps =
          std::max(max_rps, static_cast<double>(r.answered()) / r.wall_s);
    }
    return meets;
  };
  double lo = 0.0;
  double hi = kReferenceRate;
  while (hi <= kMaxRate && keeps_up(hi)) {
    lo = hi;
    hi *= 2.0;
  }
  if (lo > 0.0 && hi <= kMaxRate) {
    for (size_t b = 0; b < kBisections; ++b) {
      const double mid = 0.5 * (lo + hi);
      (keeps_up(mid) ? lo : hi) = mid;
    }
  }
  return max_rps;
}

/// Traced run: the per-layer metrics. A traced rung at the reference rate
/// follows each untraced one; the layer figures come from the traced
/// rungs, the wall times from the untraced ones.
void MeasureLayers(const SetupResult& setup,
                   const std::vector<ServePlan>& plans, const RunConfig& run,
                   std::vector<Rung>* ref, std::vector<Rung>* traced,
                   std::vector<Rung>* search, WorkloadOutput* out) {
  const double half_s = run.seconds / 2.0;
  const size_t ref_requests = static_cast<size_t>(std::ceil(
      kReferenceRate * half_s / static_cast<double>(kReferenceRungs)));
  ProbeTotals totals;
  totals.keep_samples = true;
  for (size_t k = 0; k < kReferenceRungs; ++k) {
    ProbeTotals unused;
    ref->push_back(RunRung(setup, plans, run.seed, kReferenceRate,
                           ref_requests, 0.0, false, &unused));
    traced->push_back(RunRung(setup, plans, run.seed, kReferenceRate,
                              ref_requests, 0.0, true, &totals));
  }
  const double max_rps =
      SearchMaxRate(setup, plans, run, half_s, search, &out->notes);

  std::vector<double> late, wait;
  // Same layout in every fleet, so the histograms merge.
  zt::Histogram fleet_ms = traced->front().stats.latency_ms;
  zt::Histogram service_ms = traced->front().stats.replica_latency_ms;
  uint64_t requests = 0, answered = 0, degraded = 0, hedges = 0,
           hedges_won = 0, failovers = 0, rescues = 0, shed = 0, retries = 0,
           trips = 0, primary_calls = 0;
  for (const Rung& r : *traced) {
    for (const Sample& s : r.samples) {
      late.push_back(s.late_ms);
      if (s.answered) wait.push_back(s.queue_wait_ms);
    }
    const auto& st = r.stats;
    if (&r != &traced->front()) {
      (void)fleet_ms.Merge(st.latency_ms);
      (void)service_ms.Merge(st.replica_latency_ms);
    }
    requests += r.requests;
    answered += st.answered;
    degraded += st.degraded;
    hedges += st.hedges_sent;
    hedges_won += st.hedges_won;
    failovers += st.failovers;
    rescues += st.fallback_rescues;
    shed += r.shed();
    for (const auto& replica : st.replicas) {
      retries += replica.service.retries;
      trips += replica.service.breaker_trips;
    }
    primary_calls += r.primary_calls;
  }
  MetricTable& m = out->metrics;
  const auto count = [](uint64_t v) { return static_cast<double>(v); };
  m.Set("loadgen.late_ms_p99", Percentile(late, 99.0), "ms");
  m.Set("fleet.queue_wait_ms_p50", Percentile(wait, 50.0), "ms");
  m.Set("fleet.queue_wait_ms_p99", Percentile(wait, 99.0), "ms");
  m.Set("fleet.latency_ms_p50", fleet_ms.Percentile(50.0), "ms");
  m.Set("fleet.latency_ms_p99", fleet_ms.Percentile(99.0), "ms");
  m.Set("service.latency_ms_p50", service_ms.Percentile(50.0), "ms");
  m.Set("service.latency_ms_p99", service_ms.Percentile(99.0), "ms");
  m.Set("model.predict_ms_p50", Median(totals.predict_samples_ms), "ms");
  m.Set("model.predict_ms",
        Ratio(totals.predict_ms, count(totals.predict_calls)), "ms");
  m.Set("model.predict_calls",
        Ratio(count(totals.predict_calls), count(requests)), "count");
  m.Set("fleet.hedges_sent", count(hedges), "count");
  m.Set("fleet.hedge_useful_ratio", Ratio(count(hedges_won), count(hedges)),
        "ratio");
  m.Set("fleet.failovers", count(failovers), "count");
  m.Set("fleet.rescues", count(rescues), "count");
  m.Set("fleet.shed", count(shed), "count");
  m.Set("fleet.degraded_share", Ratio(count(degraded), count(requests)),
        "share");
  m.Set("service.retries", count(retries), "count");
  m.Set("service.breaker_trips", count(trips), "count");
  m.Set("serve.useful_ratio", Ratio(count(answered), count(primary_calls)),
        "ratio");
  m.Set("serve.max_rps", max_rps, "1/s");
  m.Set("serve.wall_ms_p50", MedianOf(*ref, 50.0, &Sample::latency_ms), "ms");
  m.Set("serve.wall_ms_p99", MedianOf(*ref, 99.0, &Sample::latency_ms), "ms");
  m.Set("trace.overhead_share",
        Ratio(MedianOf(*traced, 50.0, &Sample::latency_ms),
              MedianOf(*ref, 50.0, &Sample::latency_ms)) -
            1.0,
        "share");
}

}  // namespace

WorkloadOutput RunServeWorkload(const SetupResult& setup,
                                const RunConfig& run) {
  WorkloadOutput out;
  zt::Result<std::vector<ServePlan>> built =
      BuildPlans(*setup.model, run.seed);
  if (!built.ok()) {
    out.problems.push_back("building serve plans: " +
                           built.status().ToString());
    return out;
  }
  const std::vector<ServePlan>& plans = built.value();

  // Every figure is a median over rungs, each on a fresh fleet, so a
  // burst of machine noise in one rung does not move it. `measured` holds
  // the rungs that `attempted` and `failed` count.
  std::vector<Rung> measured;
  std::vector<Rung> traced;
  std::vector<Rung> search;
  if (run.traced) {
    MeasureLayers(setup, plans, run, &measured, &traced, &search, &out);
  } else {
    MeasureClosedLoop(setup, plans, run, &measured, &out.metrics,
                      &out.notes);
  }

  std::vector<double> fleet_start_ms;
  const std::vector<Rung>* all[] = {&measured, &traced, &search};
  for (const std::vector<Rung>* rungs : all) {
    for (const Rung& r : *rungs) {
      fleet_start_ms.push_back(r.fleet_start_ms);
      for (const std::string& p : r.problems) {
        out.problems.push_back("rate " + JsonNumber(r.rate) + ": " + p);
      }
    }
  }
  std::string rung_p50s;
  for (const Rung& r : measured) {
    rung_p50s += JsonNumber(r.Percentile(50.0)) + " ";
    out.attempted += r.requests;
    out.failed += r.requests - r.answered();
  }
  std::string note = run.traced ? "reference rate " +
                                      JsonNumber(kReferenceRate) + "/s: "
                                : std::string("closed loop: ");
  note += Describe(measured) + "; plans " + std::to_string(plans.size());
  out.notes.push_back(note + "; per-rung p50 ms: " + rung_p50s);
  AddSetupMetrics(setup, run.traced, Median(fleet_start_ms), &out);
  return out;
}

}  // namespace perfbench
