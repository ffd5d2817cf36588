#include "core/batch_inference.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <optional>
#include <unordered_map>
#include <utility>

#include "core/features.h"
#include "core/plan_graph.h"
#include "nn/kernels.h"
#include "nn/layers.h"
#include "nn/matrix.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace zerotune::core {

namespace {

using nn::Matrix;

// FNV-1a over the byte representation of a double sequence, run as four
// interleaved streams so the 64-bit multiplies pipeline instead of
// forming one serial dependency chain (feature rows are ~50 words, and
// the interner hashes every row of every candidate). Bitwise matching is
// exactly what the intern/dedup transforms need: identical bytes
// guarantee identical downstream arithmetic, and featurization is
// deterministic so equal inputs produce equal bytes. Only dispersion
// matters — every table that uses this confirms bucket hits by comparing
// the full key bytes.
uint64_t HashDoubles(const double* p, size_t n, uint64_t seed) {
  constexpr uint64_t kPrime = 1099511628211ull;
  uint64_t h0 = seed;
  uint64_t h1 = seed ^ 0x9E3779B97F4A7C15ull;
  uint64_t h2 = seed ^ 0xC2B2AE3D27D4EB4Full;
  uint64_t h3 = seed ^ 0x165667B19E3779F9ull;
  uint64_t w[4];
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    std::memcpy(w, p + i, sizeof w);
    h0 = (h0 ^ w[0]) * kPrime;
    h1 = (h1 ^ w[1]) * kPrime;
    h2 = (h2 ^ w[2]) * kPrime;
    h3 = (h3 ^ w[3]) * kPrime;
  }
  for (; i < n; ++i) {
    std::memcpy(w, p + i, sizeof w[0]);
    h0 = (h0 ^ w[0]) * kPrime;
  }
  h0 = (h0 ^ h1) * kPrime;
  h0 = (h0 ^ h2) * kPrime;
  h0 = (h0 ^ h3) * kPrime;
  return h0;
}

constexpr uint64_t kFnvOffset = 1469598103934665603ull;

uint64_t HashInts(const int* p, size_t n, uint64_t seed) {
  uint64_t hsh = seed;
  for (size_t i = 0; i < n; ++i) {
    hsh ^= static_cast<uint64_t>(static_cast<uint32_t>(p[i]));
    hsh *= 1099511628211ull;
  }
  return hsh;
}

// Interns feature vectors so each distinct row is pushed through an
// encoder MLP exactly once per batch. Candidates enumerated for one query
// share most operator rows (only parallelism features vary) and all
// resource rows, so the win is large in the optimizer's hot loop. Rows
// are matched bitwise (hash bucket + memcmp), which is cheaper than the
// lexicographic compares of an ordered map on this hot path.
class RowInterner {
 public:
  size_t Intern(const std::vector<double>& row) {
    const uint64_t hsh = HashDoubles(row.data(), row.size(), kFnvOffset);
    auto& bucket = ids_[hsh];
    for (size_t id : bucket) {
      const std::vector<double>& have = rows_[id];
      if (have.size() == row.size() &&
          std::memcmp(have.data(), row.data(),
                      row.size() * sizeof(double)) == 0) {
        return id;
      }
    }
    const size_t id = rows_.size();
    rows_.push_back(row);
    bucket.push_back(id);
    return id;
  }

  size_t num_unique() const { return rows_.size(); }

  // Unique rows stacked in first-seen order, ready for one batched
  // encoder call. Empty matrix when nothing was interned.
  Matrix Stacked() const {
    if (rows_.empty()) return Matrix();
    Matrix out(rows_.size(), rows_[0].size());
    for (size_t r = 0; r < rows_.size(); ++r) {
      std::memcpy(out.data() + r * out.cols(), rows_[r].data(),
                  rows_[r].size() * sizeof(double));
    }
    return out;
  }

 private:
  std::unordered_map<uint64_t, std::vector<size_t>> ids_;
  std::vector<std::vector<double>> rows_;
};

// Plans whose graphs share topology (operator DAG + sink) and cluster
// encoding share the resource-exchange stage and are row-batched through
// every operator-side stage.
struct Group {
  std::vector<size_t> members;       // indices into `plans` / `graphs`
  std::vector<size_t> res_row_ids;   // interned resource rows
  const PlanGraph* shape = nullptr;  // representative graph (topology)
  Matrix res_state;                  // n_res × h shared exchange output
};

// Pointer to the start of row `r` (Matrix is row-major; the const
// accessor returns by value, so element addresses go through data()).
const double* RowPtr(const Matrix& m, size_t r) {
  return m.data() + r * m.cols();
}
double* RowPtr(Matrix& m, size_t r) { return m.data() + r * m.cols(); }

// Copies `src_cols` doubles from `src` into row `r` of `dst` starting at
// column `col0` — the value side of nn::ConcatCols.
void CopyIntoRow(Matrix& dst, size_t r, size_t col0, const double* src,
                 size_t src_cols) {
  std::memcpy(dst.data() + r * dst.cols() + col0, src,
              src_cols * sizeof(double));
}

// Mean of selected rows, written into row `r` of `dst` at `col0`.
// kernels::MeanRowsF64 replicates nn::MeanAll's value in both kernel
// implementations: sum in the given order, then multiply by 1/n —
// bit-identical to the sequential forward pass.
void MeanIntoRow(Matrix& dst, size_t r, size_t col0,
                 const std::vector<const double*>& rows, size_t cols) {
  nn::kernels::MeanRowsF64(dst.data() + r * dst.cols() + col0, rows.data(),
                           rows.size(), cols);
}

// Interns variable-length uint32 keys: equal keys get equal ids, handed
// out densely in first-seen order. The message-passing stages build keys
// from content-unique ids (interned encoder rows, previous-stage state
// ids, unique message ids), so equal keys are *guaranteed* to name
// bitwise-identical input rows — dedup by key never merges rows that
// differ. Distinct keys for coincidentally equal rows only cost a
// redundant MLP row, never a wrong result. Compared with hashing the
// 2h-double input rows per stage (the previous design), keys are a few
// words long, and no B-row input assembly or output scatter is needed.
class IntKeyInterner {
 public:
  /// Prepares the table for up to `expected` inserts, discarding all
  /// previously interned keys. Reuses the slot array across calls (a
  /// generation counter marks live slots), so a chunk's dozens of
  /// per-operator dedup rounds cost zero allocations after the first.
  void Reset(size_t expected) {
    size_t cap = 16;
    while (cap < 2 * expected) cap <<= 1;  // load factor ≤ 0.5
    if (slots_.size() < cap) slots_.assign(cap, Slot{});
    mask_ = cap - 1;
    if (gen_ == UINT32_MAX) {  // wrap: wipe stale generations
      std::fill(slots_.begin(), slots_.end(), Slot{});
      gen_ = 0;
    }
    ++gen_;
    keys_.clear();
    spans_.clear();
  }

  uint32_t Intern(const uint32_t* key, size_t len) {
    // Linear probing only terminates while a free slot exists, so the
    // load factor stays ≤ 0.5 even past Reset()'s `expected`.
    if (2 * (spans_.size() + 1) > mask_ + 1) Grow();
    uint64_t hsh = kFnvOffset;
    for (size_t i = 0; i < len; ++i) {
      hsh = (hsh ^ key[i]) * 1099511628211ull;
    }
    for (size_t idx = Home(hsh);; idx = (idx + 1) & mask_) {
      Slot& s = slots_[idx];
      if (s.gen != gen_) {  // free slot: first time this key is seen
        const auto uid = static_cast<uint32_t>(spans_.size());
        s.gen = gen_;
        s.hash = hsh;
        s.uid = uid;
        spans_.push_back(Span{static_cast<uint32_t>(keys_.size()),
                              static_cast<uint32_t>(len)});
        keys_.insert(keys_.end(), key, key + len);
        return uid;
      }
      if (s.hash != hsh) continue;
      const Span sp = spans_[s.uid];
      if (sp.len == len &&
          std::memcmp(keys_.data() + sp.off, key,
                      len * sizeof(uint32_t)) == 0) {
        return s.uid;
      }
    }
  }

  size_t num_unique() const { return spans_.size(); }

 private:
  struct Slot {
    uint64_t hash = 0;
    uint32_t gen = 0;
    uint32_t uid = 0;
  };
  struct Span {
    uint32_t off, len;
  };

  // FNV's low bits are weak for power-of-two tables; fold in the top.
  size_t Home(uint64_t hsh) const {
    return static_cast<size_t>(hsh ^ (hsh >> 32)) & mask_;
  }

  // Doubles the table and re-places the live slots by their stored hash.
  void Grow() {
    std::vector<Slot> old(2 * (mask_ + 1));
    old.swap(slots_);
    const size_t old_cap = mask_ + 1;
    mask_ = slots_.size() - 1;
    for (size_t i = 0; i < old_cap; ++i) {
      if (old[i].gen != gen_) continue;
      size_t idx = Home(old[i].hash);
      while (slots_[idx].gen == gen_) idx = (idx + 1) & mask_;
      slots_[idx] = old[i];
    }
  }

  std::vector<Slot> slots_;  // open addressing, linear probing
  size_t mask_ = 0;
  uint32_t gen_ = 0;
  std::vector<uint32_t> keys_;  // interned keys back to back
  std::vector<Span> spans_;
};

// One message-passing stage's dedup result for a chunk: candidate b's
// state is unique row remap[b], and unique row u was first produced by
// candidate uniq_rep[u] (whose inputs the executor reads to assemble it).
struct StageDedup {
  std::vector<uint32_t> remap;     // candidate -> unique row index
  std::vector<uint32_t> uniq_rep;  // unique row -> representative candidate
};

// The integer skeleton of one chunk's message passing: which rows are
// distinct at every stage and how candidates map onto them. Built once
// per chunk from interned ids only — no floating-point data is touched —
// and then executed by ExecuteChunk. Keys are content-unique ids, so
// equal keys guarantee bitwise-identical stage inputs.
struct ChunkPlan {
  size_t B = 0;
  std::vector<StageDedup> flow;    // stage 1, per operator
  std::vector<StageDedup> mapped;  // stage 3b, per operator
  std::vector<StageDedup> flow2;   // stage 4, per operator
  // Unique mapping edges across the chunk (stage 3a) and, per
  // (candidate, operator) in CSR layout, the incoming unique-message ids
  // in mapping-edge order — the order Forward() pushes them into the
  // mean.
  std::vector<const PlanGraph::MappingEdge*> uniq_edges;
  std::vector<uint32_t> inc_off;  // B*n_ops+1 offsets into inc_uids
  std::vector<uint32_t> inc_uids;
};

ChunkPlan BuildChunkPlan(const Group& group, size_t begin, size_t end,
                         const std::vector<PlanGraph>& graphs,
                         const std::vector<std::vector<size_t>>& op_row_ids) {
  const PlanGraph& shape = *group.shape;
  const size_t n_ops = shape.num_operators();
  const size_t B = end - begin;
  ChunkPlan plan;
  plan.B = B;
  plan.flow.resize(n_ops);
  plan.mapped.resize(n_ops);
  plan.flow2.resize(n_ops);

  std::vector<uint32_t> key;  // scratch: current candidate's key
  IntKeyInterner keys;        // reused across every dedup round below

  // Stage 1: bottom-up data-flow pass. A candidate's state row is
  // determined by its interned encoder row and its upstream state ids,
  // so that integer tuple is the dedup key.
  for (int id : shape.topo_order) {
    const auto& ups = shape.operator_upstreams[static_cast<size_t>(id)];
    const size_t klen = 1 + ups.size();
    keys.Reset(B);
    StageDedup& sd = plan.flow[static_cast<size_t>(id)];
    sd.remap.resize(B);
    key.resize(klen);
    for (size_t b = 0; b < B; ++b) {
      const size_t pl = group.members[begin + b];
      key[0] =
          static_cast<uint32_t>(op_row_ids[pl][static_cast<size_t>(id)]);
      for (size_t j = 0; j < ups.size(); ++j) {
        key[1 + j] = plan.flow[static_cast<size_t>(ups[j])].remap[b];
      }
      const uint32_t uid = keys.Intern(key.data(), klen);
      if (uid == sd.uniq_rep.size()) {
        sd.uniq_rep.push_back(static_cast<uint32_t>(b));
      }
      sd.remap[b] = uid;
    }
  }

  // Stage 3a: mapping messages. A message row is determined by the
  // resource index (which names the shared res_state row) and the edge's
  // feature bytes, so edges dedup on that pair across the whole chunk.
  // The key packs the index plus the raw feature words — bitwise feature
  // equality is exactly word equality, so the interner's compare matches
  // the row-level dedup semantics.
  std::vector<uint32_t> edge_uid;  // per (candidate, edge), in edge order
  std::vector<size_t> edge_off(B + 1, 0);
  {
    assert(FeatureEncoder::MappingDim() == 2 &&
           "edge key packing assumes 2 mapping features");
    // The chunk's edge count bounds its unique edges. Large clusters give
    // a candidate one edge per (operator, hosting node) pair — hundreds at
    // 128 nodes — so no per-candidate constant can size this table.
    size_t n_edges = 0;
    for (size_t b = 0; b < B; ++b) {
      n_edges += graphs[group.members[begin + b]].mapping_edges.size();
    }
    keys.Reset(n_edges);
    edge_uid.reserve(n_edges);
    uint32_t ekey[1 + 2 * 2];
    for (size_t b = 0; b < B; ++b) {
      edge_off[b] = edge_uid.size();
      const PlanGraph& g = graphs[group.members[begin + b]];
      for (const PlanGraph::MappingEdge& e : g.mapping_edges) {
        ekey[0] = static_cast<uint32_t>(e.resource_index);
        std::memcpy(ekey + 1, e.features.data(), 2 * sizeof(double));
        const uint32_t uid = keys.Intern(ekey, 5);
        if (uid == plan.uniq_edges.size()) plan.uniq_edges.push_back(&e);
        edge_uid.push_back(uid);
      }
    }
    edge_off[B] = edge_uid.size();
  }

  // CSR of incoming unique-message ids per (candidate, operator).
  plan.inc_off.assign(B * n_ops + 1, 0);
  plan.inc_uids.resize(edge_uid.size());
  {
    for (size_t b = 0; b < B; ++b) {
      const PlanGraph& g = graphs[group.members[begin + b]];
      for (const PlanGraph::MappingEdge& e : g.mapping_edges) {
        ++plan.inc_off[b * n_ops + static_cast<size_t>(e.operator_index) + 1];
      }
    }
    for (size_t i = 1; i <= B * n_ops; ++i) {
      plan.inc_off[i] += plan.inc_off[i - 1];
    }
    std::vector<uint32_t> cursor(plan.inc_off.begin(), plan.inc_off.end() - 1);
    for (size_t b = 0; b < B; ++b) {
      const PlanGraph& g = graphs[group.members[begin + b]];
      size_t pos = edge_off[b];
      for (const PlanGraph::MappingEdge& e : g.mapping_edges) {
        plan.inc_uids[cursor[b * n_ops +
                             static_cast<size_t>(e.operator_index)]++] =
            edge_uid[pos++];
      }
    }
  }

  // Stage 3b: residual map_update per operator. Key = (state id,
  // incoming message ids in edge order); the residual sum shares the
  // update's remap because the key pins the state id.
  for (size_t i = 0; i < n_ops; ++i) {
    keys.Reset(B);
    StageDedup& sd = plan.mapped[i];
    sd.remap.resize(B);
    for (size_t b = 0; b < B; ++b) {
      const uint32_t lo = plan.inc_off[b * n_ops + i];
      const uint32_t hi = plan.inc_off[b * n_ops + i + 1];
      key.clear();
      key.push_back(plan.flow[i].remap[b]);
      key.insert(key.end(), plan.inc_uids.begin() + lo,
                 plan.inc_uids.begin() + hi);
      const uint32_t uid = keys.Intern(key.data(), key.size());
      if (uid == sd.uniq_rep.size()) {
        sd.uniq_rep.push_back(static_cast<uint32_t>(b));
      }
      sd.remap[b] = uid;
    }
  }

  // Stage 4: second bottom-up pass, same key shape as stage 1 with the
  // mapped ids in place of encoder rows.
  for (int id : shape.topo_order) {
    const auto& ups = shape.operator_upstreams[static_cast<size_t>(id)];
    const size_t klen = 1 + ups.size();
    keys.Reset(B);
    StageDedup& sd = plan.flow2[static_cast<size_t>(id)];
    sd.remap.resize(B);
    key.resize(klen);
    for (size_t b = 0; b < B; ++b) {
      key[0] = plan.mapped[static_cast<size_t>(id)].remap[b];
      for (size_t j = 0; j < ups.size(); ++j) {
        key[1 + j] = plan.flow2[static_cast<size_t>(ups[j])].remap[b];
      }
      const uint32_t uid = keys.Intern(key.data(), klen);
      if (uid == sd.uniq_rep.size()) {
        sd.uniq_rep.push_back(static_cast<uint32_t>(b));
      }
      sd.remap[b] = uid;
    }
  }

  return plan;
}

// Shared resource-node exchange (Forward() stage 2). Depends only on the
// cluster encoding, so it runs once per structure group regardless of how
// many candidates the group holds.
Matrix ComputeResourceState(const ZeroTuneModel::GnnBlocks& blocks,
                            const Matrix& res_encoded,
                            const std::vector<size_t>& res_row_ids,
                            size_t h) {
  const size_t n_res = res_row_ids.size();
  Matrix input(n_res, 2 * h);
  std::vector<const double*> peers;
  for (size_t i = 0; i < n_res; ++i) {
    const double* self = RowPtr(res_encoded, res_row_ids[i]);
    CopyIntoRow(input, i, 0, self, h);
    if (n_res > 1) {
      peers.clear();
      for (size_t j = 0; j < n_res; ++j) {
        if (j != i) peers.push_back(RowPtr(res_encoded, res_row_ids[j]));
      }
      MeanIntoRow(input, i, h, peers, h);
    }  // else: peer message stays zero (ZeroState)
  }
  return blocks.res_update->ForwardValue(std::move(input));
}

// Runs one chunk's message passing + readout, assembling only the
// distinct rows the ChunkPlan identified, and writes the decoded
// predictions into `out` at each member's original plan index. The row
// arithmetic replicates the sequential Forward() bit for bit under the
// scalar kernels (see the kernel numerics contract), which the
// exact-equality tests in tests/predict_batch_test.cc pin down. Per-row
// arithmetic never crosses rows, so results are independent of how
// members are chunked across threads.
void ExecuteChunk(const ChunkPlan& plan, const ZeroTuneModel& model,
                  const ZeroTuneModel::GnnBlocks& blocks,
                  const Matrix& op_encoded, const Group& group, size_t begin,
                  const std::vector<std::vector<size_t>>& op_row_ids,
                  size_t h, std::vector<CostPrediction>& out) {
  const PlanGraph& shape = *group.shape;
  const size_t n_ops = shape.num_operators();
  const size_t B = plan.B;

  // optional<> so the span can end exactly where message passing hands
  // off to the readout below.
  std::optional<obs::Span> mp_span;
  mp_span.emplace("batch_inference/message_passing");
  mp_span->AddArg("candidates", std::to_string(B));
  std::optional<obs::Span> stage_span;
  std::vector<const double*> rows;  // scratch: mean inputs

  // Stage 1: bottom-up data-flow pass over the distinct rows.
  stage_span.emplace("batch_inference/mp_flow");
  std::vector<Matrix> state(n_ops);
  for (int id : shape.topo_order) {
    const auto& ups = shape.operator_upstreams[static_cast<size_t>(id)];
    const StageDedup& sd = plan.flow[static_cast<size_t>(id)];
    const size_t uniq = sd.uniq_rep.size();
    // Sources keep the zero-filled upstream half (ZeroState); with
    // upstreams every element is written, so skip the fill.
    Matrix input = ups.empty() ? Matrix(uniq, 2 * h)
                               : Matrix::Uninitialized(uniq, 2 * h);
    for (size_t u = 0; u < uniq; ++u) {
      const size_t b = sd.uniq_rep[u];
      const size_t pl = group.members[begin + b];
      CopyIntoRow(input, u, 0,
                  RowPtr(op_encoded, op_row_ids[pl][static_cast<size_t>(id)]),
                  h);
      if (!ups.empty()) {
        rows.clear();
        for (int up : ups) {
          rows.push_back(RowPtr(state[static_cast<size_t>(up)],
                                plan.flow[static_cast<size_t>(up)].remap[b]));
        }
        MeanIntoRow(input, u, h, rows, h);
      }
    }
    obs::Span mlp_span("batch_inference/mp_mlp");
    state[static_cast<size_t>(id)] =
        blocks.flow_update->ForwardValue(std::move(input));
  }

  // Stage 3a: forward each distinct mapping message once.
  stage_span.emplace("batch_inference/mp_map_message");
  Matrix messages;
  if (!plan.uniq_edges.empty()) {
    const size_t map_dim = FeatureEncoder::MappingDim();
    Matrix edge_in =
        Matrix::Uninitialized(plan.uniq_edges.size(), h + map_dim);
    for (size_t u = 0; u < plan.uniq_edges.size(); ++u) {
      const PlanGraph::MappingEdge& e = *plan.uniq_edges[u];
      const auto res = static_cast<size_t>(e.resource_index);
      CopyIntoRow(edge_in, u, 0, RowPtr(group.res_state, res), h);
      CopyIntoRow(edge_in, u, h, e.features.data(), map_dim);
    }
    obs::Span mlp_span("batch_inference/mp_mlp");
    messages = blocks.map_message->ForwardValue(std::move(edge_in));
  }

  // Stage 3b: residual map_update per operator.
  stage_span.emplace("batch_inference/mp_map_update");
  std::vector<Matrix> mapped(n_ops);
  for (size_t i = 0; i < n_ops; ++i) {
    const StageDedup& sd = plan.mapped[i];
    const size_t uniq = sd.uniq_rep.size();
    Matrix input(uniq, 2 * h);  // zero message half when no incoming edges
    for (size_t u = 0; u < uniq; ++u) {
      const size_t b = sd.uniq_rep[u];
      CopyIntoRow(input, u, 0, RowPtr(state[i], plan.flow[i].remap[b]), h);
      const uint32_t lo = plan.inc_off[b * n_ops + i];
      const uint32_t hi = plan.inc_off[b * n_ops + i + 1];
      if (lo != hi) {
        rows.clear();
        for (uint32_t e = lo; e < hi; ++e) {
          rows.push_back(RowPtr(messages, plan.inc_uids[e]));
        }
        MeanIntoRow(input, u, h, rows, h);
      }
    }
    Matrix upd;
    {
      obs::Span mlp_span("batch_inference/mp_mlp");
      upd = blocks.map_update->ForwardValue(std::move(input));
    }
    Matrix res = Matrix::Uninitialized(uniq, h);
    for (size_t u = 0; u < uniq; ++u) {
      const size_t b = sd.uniq_rep[u];
      CopyIntoRow(res, u, 0, RowPtr(state[i], plan.flow[i].remap[b]), h);
      nn::kernels::AddF64(RowPtr(res, u), RowPtr(upd, u), h);  // residual
    }
    mapped[i] = std::move(res);
  }

  // Stage 4: second bottom-up pass over the resource-aware states.
  stage_span.emplace("batch_inference/mp_flow2");
  std::vector<Matrix> final_state(n_ops);
  for (int id : shape.topo_order) {
    const auto& ups = shape.operator_upstreams[static_cast<size_t>(id)];
    const StageDedup& sd = plan.flow2[static_cast<size_t>(id)];
    const size_t uniq = sd.uniq_rep.size();
    Matrix input = ups.empty() ? Matrix(uniq, 2 * h)
                               : Matrix::Uninitialized(uniq, 2 * h);
    const Matrix& own = mapped[static_cast<size_t>(id)];
    const std::vector<uint32_t>& mp_remap =
        plan.mapped[static_cast<size_t>(id)].remap;
    for (size_t u = 0; u < uniq; ++u) {
      const size_t b = sd.uniq_rep[u];
      CopyIntoRow(input, u, 0, RowPtr(own, mp_remap[b]), h);
      if (!ups.empty()) {
        rows.clear();
        for (int up : ups) {
          rows.push_back(RowPtr(final_state[static_cast<size_t>(up)],
                                plan.flow2[static_cast<size_t>(up)].remap[b]));
        }
        MeanIntoRow(input, u, h, rows, h);
      }
    }
    Matrix upd;
    {
      obs::Span mlp_span("batch_inference/mp_mlp");
      upd = blocks.flow_update2->ForwardValue(std::move(input));
    }
    Matrix res = Matrix::Uninitialized(uniq, h);
    for (size_t u = 0; u < uniq; ++u) {
      const size_t b = sd.uniq_rep[u];
      CopyIntoRow(res, u, 0, RowPtr(own, mp_remap[b]), h);
      nn::kernels::AddF64(RowPtr(res, u), RowPtr(upd, u), h);  // residual
    }
    final_state[static_cast<size_t>(id)] = std::move(res);
  }

  stage_span.reset();
  mp_span.reset();
  obs::Span readout_span("batch_inference/readout");
  readout_span.AddArg("candidates", std::to_string(B));

  // Readout at the sink: forward and decode each distinct sink state
  // once, then fan the decoded predictions out to the candidates.
  const StageDedup& sink = plan.flow2[static_cast<size_t>(shape.sink_index)];
  const Matrix readout = blocks.readout->ForwardValue(
      std::move(final_state[static_cast<size_t>(shape.sink_index)]));
  std::vector<CostPrediction> decoded(sink.uniq_rep.size());
  Matrix row = Matrix::Uninitialized(1, readout.cols());
  for (size_t u = 0; u < decoded.size(); ++u) {
    CopyIntoRow(row, 0, 0, RowPtr(readout, u), readout.cols());
    decoded[u] = model.DecodeOutput(row);
  }
  for (size_t b = 0; b < B; ++b) {
    out[group.members[begin + b]] = decoded[sink.remap[b]];
  }
}

}  // namespace

Result<std::vector<CostPrediction>> BatchedPredict(
    const ZeroTuneModel& model,
    std::span<const dsp::ParallelQueryPlan* const> plans,
    zerotune::ThreadPool* pool, BatchInferenceStats* stats) {
  if (stats) *stats = BatchInferenceStats{};
  const size_t n = plans.size();
  std::vector<CostPrediction> out(n);
  if (n == 0) return out;

  obs::Span batch_span("batch_inference/predict");
  batch_span.AddArg("plans", std::to_string(n));
  auto* metrics = obs::MetricsRegistry::Global();
  metrics->GetCounter("batch_inference.batches_total")->Increment();
  metrics->GetCounter("batch_inference.plans_total")->Increment(n);
  metrics->GetHistogram("batch_inference.batch_size", {}, 1.0, 1e6)
      ->Record(static_cast<double>(n));

  // Validation stays sequential so the reported failing index is the
  // first bad plan, matching the per-plan fallback path.
  {
    obs::Span span("batch_inference/validate");
    for (size_t i = 0; i < n; ++i) {
      if (plans[i] == nullptr) {
        return Status::InvalidArgument("PredictBatch: plan #" +
                                       std::to_string(i) + " is null");
      }
      Status s = plans[i]->Validate();
      if (!s.ok()) {
        return s.Annotated("PredictBatch: plan #" + std::to_string(i) +
                           " of " + std::to_string(n) + " failed");
      }
    }
  }

  // Featurization (EstimatedInputRates et al.) dominates graph building
  // and is independent per plan — shard it over the pool.
  std::vector<PlanGraph> graphs(n);
  const FeatureConfig& features = model.config().features;
  {
    obs::Span span("batch_inference/featurize");
    ParallelFor(pool, n, [&](size_t i) {
      graphs[i] = BuildPlanGraph(*plans[i], features);
    });
  }

  // Intern encoder inputs across the whole batch and encode each unique
  // row exactly once, in two row-batched MLP calls.
  RowInterner op_rows, res_rows;
  std::vector<std::vector<size_t>> op_row_ids(n);
  std::vector<std::vector<size_t>> res_row_ids(n);
  size_t op_total = 0, res_total = 0;
  {
    obs::Span span("batch_inference/intern");
    for (size_t i = 0; i < n; ++i) {
      op_row_ids[i].reserve(graphs[i].num_operators());
      for (const auto& f : graphs[i].operator_features) {
        op_row_ids[i].push_back(op_rows.Intern(f));
      }
      res_row_ids[i].reserve(graphs[i].num_resources());
      for (const auto& f : graphs[i].resource_features) {
        res_row_ids[i].push_back(res_rows.Intern(f));
      }
      op_total += graphs[i].num_operators();
      res_total += graphs[i].num_resources();
    }
  }
  const ZeroTuneModel::GnnBlocks blocks = model.blocks();
  batch_span.AddArg("isa", nn::kernels::IsaName(nn::kernels::ActiveIsa()));

  Matrix op_encoded, res_encoded;
  {
    obs::Span span("batch_inference/encode");
    if (op_rows.num_unique() > 0) {
      op_encoded = blocks.op_encoder->ForwardValue(op_rows.Stacked());
    }
    if (res_rows.num_unique() > 0) {
      res_encoded = blocks.res_encoder->ForwardValue(res_rows.Stacked());
    }
  }

  // Dedup identical candidates wholesale: the prediction is a pure
  // function of the feature graph, so plans whose graphs match row-for-row
  // (structure, interned encoder rows, and mapping edges) score once and
  // the result fans out. Reconfiguration and multi-query scoring re-submit
  // overlapping candidate sets, where this collapses most of the batch.
  // Candidates are matched by hashing the full signature (FNV-1a) and
  // confirming field-by-field on bucket hits; mapping-edge features
  // compare bitwise, matching the row-level dedup semantics above.
  std::vector<size_t> canonical(n);
  std::vector<size_t> reps;
  {
    obs::Span span("batch_inference/dedup");
    auto sig_hash = [&](size_t i) {
      const PlanGraph& g = graphs[i];
      uint64_t hsh = kFnvOffset;
      for (size_t id : op_row_ids[i]) {
        hsh = (hsh ^ static_cast<uint64_t>(id)) * 1099511628211ull;
      }
      for (size_t id : res_row_ids[i]) {
        hsh = (hsh ^ static_cast<uint64_t>(id)) * 1099511628211ull;
      }
      hsh = HashInts(g.topo_order.data(), g.topo_order.size(), hsh);
      for (const auto& ups : g.operator_upstreams) {
        hsh = (hsh ^ (ups.size() + 1)) * 1099511628211ull;
        hsh = HashInts(ups.data(), ups.size(), hsh);
      }
      hsh = (hsh ^ static_cast<uint64_t>(
                       static_cast<uint32_t>(g.sink_index))) *
            1099511628211ull;
      for (const PlanGraph::MappingEdge& e : g.mapping_edges) {
        hsh = (hsh ^ static_cast<uint64_t>(
                         static_cast<uint32_t>(e.operator_index))) *
              1099511628211ull;
        hsh = (hsh ^ static_cast<uint64_t>(
                         static_cast<uint32_t>(e.resource_index))) *
              1099511628211ull;
        hsh = HashDoubles(e.features.data(), e.features.size(), hsh);
      }
      return hsh;
    };
    auto sig_equal = [&](size_t a, size_t b) {
      const PlanGraph& ga = graphs[a];
      const PlanGraph& gb = graphs[b];
      if (op_row_ids[a] != op_row_ids[b] ||
          res_row_ids[a] != res_row_ids[b] ||
          ga.sink_index != gb.sink_index || ga.topo_order != gb.topo_order ||
          ga.operator_upstreams != gb.operator_upstreams ||
          ga.mapping_edges.size() != gb.mapping_edges.size()) {
        return false;
      }
      for (size_t e = 0; e < ga.mapping_edges.size(); ++e) {
        const PlanGraph::MappingEdge& ea = ga.mapping_edges[e];
        const PlanGraph::MappingEdge& eb = gb.mapping_edges[e];
        if (ea.operator_index != eb.operator_index ||
            ea.resource_index != eb.resource_index ||
            std::memcmp(ea.features.data(), eb.features.data(),
                        ea.features.size() * sizeof(double)) != 0) {
          return false;
        }
      }
      return true;
    };
    std::unordered_map<uint64_t, std::vector<size_t>> seen;
    seen.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      auto& bucket = seen[sig_hash(i)];
      size_t rep = SIZE_MAX;
      for (size_t j : bucket) {
        if (sig_equal(i, j)) {
          rep = j;
          break;
        }
      }
      if (rep == SIZE_MAX) {
        rep = i;
        bucket.push_back(i);
        reps.push_back(i);
      }
      canonical[i] = rep;
    }
  }

  // Group the representative plans by structure so each group shares one
  // resource-exchange pass and row-batches the operator stages. Groups
  // are matched by hash + field-compare (like the dedup above) — cheaper
  // than an ordered map keyed on copies of the topology vectors.
  std::vector<Group> groups;
  {
    obs::Span span("batch_inference/group");
    auto group_hash = [&](size_t i) {
      const PlanGraph& g = graphs[i];
      uint64_t hsh = kFnvOffset;
      hsh = HashInts(g.topo_order.data(), g.topo_order.size(), hsh);
      for (const auto& ups : g.operator_upstreams) {
        hsh = (hsh ^ (ups.size() + 1)) * 1099511628211ull;
        hsh = HashInts(ups.data(), ups.size(), hsh);
      }
      hsh = (hsh ^ static_cast<uint64_t>(
                       static_cast<uint32_t>(g.sink_index))) *
            1099511628211ull;
      for (size_t id : res_row_ids[i]) {
        hsh = (hsh ^ static_cast<uint64_t>(id)) * 1099511628211ull;
      }
      return hsh;
    };
    auto group_matches = [&](size_t i, const Group& g) {
      const PlanGraph& a = graphs[i];
      const PlanGraph& b = *g.shape;
      return a.sink_index == b.sink_index && a.topo_order == b.topo_order &&
             a.operator_upstreams == b.operator_upstreams &&
             res_row_ids[i] == g.res_row_ids;
    };
    std::unordered_map<uint64_t, std::vector<size_t>> buckets;
    for (size_t i : reps) {
      auto& bucket = buckets[group_hash(i)];
      size_t gid = SIZE_MAX;
      for (size_t c : bucket) {
        if (group_matches(i, groups[c])) {
          gid = c;
          break;
        }
      }
      if (gid == SIZE_MAX) {
        gid = groups.size();
        Group g;
        g.res_row_ids = res_row_ids[i];
        g.shape = &graphs[i];
        groups.push_back(std::move(g));
        bucket.push_back(gid);
      }
      groups[gid].members.push_back(i);
    }
  }

  const size_t h = model.config().hidden_dim;
  {
    obs::Span span("batch_inference/resource_state");
    for (Group& g : groups) {
      if (g.res_row_ids.empty()) continue;
      g.res_state = ComputeResourceState(blocks, res_encoded, g.res_row_ids, h);
    }
  }

  metrics->GetCounter("batch_inference.unique_plans_total")
      ->Increment(reps.size());
  metrics->GetCounter("batch_inference.dedup_hits_total")
      ->Increment(n - reps.size());
  batch_span.AddArg("unique_plans", std::to_string(reps.size()));
  batch_span.AddArg("structure_groups", std::to_string(groups.size()));

  if (stats) {
    stats->plans = n;
    stats->unique_plans = reps.size();
    stats->structure_groups = groups.size();
    stats->operator_rows_encoded = op_rows.num_unique();
    stats->operator_rows_total = op_total;
    stats->resource_rows_encoded = res_rows.num_unique();
    stats->resource_rows_total = res_total;
  }

  // Shard each group's candidates into contiguous chunks. Without a pool
  // one chunk per group maximizes row-batch width; with a pool, chunks
  // target the worker count. Chunking never changes results — per-row
  // arithmetic is independent of which rows share a matrix.
  struct Chunk {
    size_t group, begin, end;
  };
  std::vector<Chunk> chunks;
  const size_t workers = pool != nullptr ? std::max<size_t>(pool->num_threads(), 1) : 1;
  for (size_t g = 0; g < groups.size(); ++g) {
    const size_t members = groups[g].members.size();
    const size_t chunk_size =
        workers > 1 ? std::max<size_t>((members + workers - 1) / workers, 4)
                    : members;
    for (size_t b = 0; b < members; b += chunk_size) {
      chunks.push_back(Chunk{g, b, std::min(b + chunk_size, members)});
    }
  }
  ParallelFor(pool, chunks.size(), [&](size_t c) {
    const Chunk& chunk = chunks[c];
    const Group& group = groups[chunk.group];
    ChunkPlan plan;
    {
      obs::Span span("batch_inference/mp_plan");
      plan = BuildChunkPlan(group, chunk.begin, chunk.end, graphs, op_row_ids);
    }
    ExecuteChunk(plan, model, blocks, op_encoded, group, chunk.begin,
                 op_row_ids, h, out);
  });

  // Fan scored representatives out to their duplicates.
  for (size_t i = 0; i < n; ++i) {
    if (canonical[i] != i) out[i] = out[canonical[i]];
  }

  return out;
}

}  // namespace zerotune::core
