#include "setup.h"

#include <fstream>
#include <sstream>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/dataset_builder.h"
#include "core/enumeration.h"
#include "stats.h"

namespace perfbench {

namespace zt = zerotune;

namespace {

constexpr size_t kRepeats = 3;
constexpr size_t kCorpusQueries = 400;
constexpr size_t kEpochs = 12;
constexpr size_t kHiddenDim = 32;
/// Corpus labelling and gradient accumulation threads.
constexpr size_t kThreads = 4;
constexpr uint64_t kCorpusSeed = 2024;
constexpr uint64_t kSplitSeed = 1;
constexpr uint64_t kModelSeed = 1;

zt::Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return zt::Status::IOError("cannot read " + path);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

}  // namespace

zt::Result<SetupResult> RunSetup(const SetupOptions& options) {
  SetupResult result;
  std::string first_bytes;
  std::string last_path;
  for (size_t rep = 0; rep < kRepeats; ++rep) {
    const bool trace_this = options.traced && rep + 1 == kRepeats;
    if (trace_this) {
      zt::obs::TraceRecorder::Global()->Clear();
      zt::obs::TraceRecorder::Global()->Enable();
    }
    const int64_t t0 = ProcessCpuNanos();
    zt::ThreadPool pool(kThreads);

    zt::core::DatasetBuilderOptions dopts;
    dopts.count = kCorpusQueries;
    dopts.seed = kCorpusSeed;
    dopts.pool = &pool;
    ZT_ASSIGN_OR_RETURN(
        zt::workload::Dataset corpus,
        zt::core::BuildDataset(zt::core::OptiSampleEnumerator(), dopts));
    const int64_t t1 = ProcessCpuNanos();

    zt::Rng rng(kSplitSeed);
    zt::workload::Dataset train, val, test;
    ZT_RETURN_IF_ERROR(corpus.Split(0.8, 0.1, &rng, &train, &val, &test));
    zt::core::ModelConfig config;
    config.hidden_dim = kHiddenDim;
    config.seed = kModelSeed;
    zt::core::ZeroTuneModel model(config);
    zt::core::TrainOptions topts;
    topts.epochs = kEpochs;
    topts.pool = &pool;
    ZT_ASSIGN_OR_RETURN(result.report,
                        zt::core::Trainer(&model, topts).Train(train, val));
    const int64_t t2 = ProcessCpuNanos();

    last_path = options.work_dir + "/model_" + std::to_string(rep) + ".txt";
    ZT_RETURN_IF_ERROR(model.Save(last_path));
    const int64_t t3 = ProcessCpuNanos();

    result.corpus_ms.push_back(MillisBetween(t0, t1));
    result.train_ms.push_back(MillisBetween(t1, t2));
    result.setup_ms.push_back(MillisBetween(t0, t3));
    result.train_samples = train.size();
    if (trace_this) {
      zt::obs::TraceRecorder::Global()->Disable();
      result.trainer_spans =
          FoldSpans(zt::obs::TraceRecorder::Global()->Snapshot());
      zt::obs::TraceRecorder::Global()->Clear();
    }

    ZT_ASSIGN_OR_RETURN(const std::string bytes, ReadFile(last_path));
    if (rep == 0) {
      first_bytes = bytes;
      result.model_hash = Fnv1a(bytes);
    } else if (bytes != first_bytes) {
      result.bytes_identical = false;
    }
  }
  ZT_ASSIGN_OR_RETURN(result.model,
                      zt::core::ZeroTuneModel::LoadFromFile(last_path));
  return result;
}

}  // namespace perfbench
