#ifndef ZEROTUNE_PERFBENCH_SETUP_H_
#define ZEROTUNE_PERFBENCH_SETUP_H_

#include <memory>
#include <string>
#include <vector>

#include "core/model.h"
#include "core/trainer.h"
#include "probes.h"

namespace perfbench {

/// The set-up every workload shares: build a seeded training corpus with
/// the simulator and train the GNN on it, three times; setup_s is the
/// median. The corpus and training seeds are fixed, not the workload seed,
/// so every run serves the same model.
struct SetupOptions {
  std::string work_dir;  // model files are written here
  bool traced = false;   // fold the trainer's spans into `trainer_spans`
};

struct SetupResult {
  /// Loaded back from the last model file, as `zerotune tune` would.
  std::unique_ptr<zerotune::core::ZeroTuneModel> model;
  /// Process CPU time per repetition (all threads), so that CPU time the
  /// hypervisor takes away does not count: corpus + train + save.
  std::vector<double> setup_ms;
  std::vector<double> corpus_ms;
  std::vector<double> train_ms;
  zerotune::core::TrainReport report;  // of the last repetition
  size_t train_samples = 0;
  uint64_t model_hash = 0;
  /// Every repetition wrote byte-identical model files.
  bool bytes_identical = true;
  SpanFold trainer_spans;  // last repetition, traced runs only
};

zerotune::Result<SetupResult> RunSetup(const SetupOptions& options);

}  // namespace perfbench

#endif  // ZEROTUNE_PERFBENCH_SETUP_H_
