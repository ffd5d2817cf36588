// zt_perfbench: one workload run of the end-to-end benchmark.
//
//   zt_perfbench --workload <tune_exhaustive|tune_prescreen|serve_fleet>
//                --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//
// Prints notes, then one JSON line with the metrics, the operation counts,
// any failed correctness checks and the figures that must repeat exactly.
// perfbench/run.py builds this binary and turns that line into the
// benchmark's result line.

#include <signal.h>

#include <cstdlib>
#include <iostream>
#include <string>

#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool traced = false;
  std::string work_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->traced = value == "1";
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !args->workload.empty() && args->seconds > 0.0;
}

void PrintResult(const WorkloadOutput& out) {
  std::string line = "{\"correct\": ";
  line += out.problems.empty() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.attempted);
  line += ", \"failed\": " + std::to_string(out.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : out.metrics.entries()) {
    line += first ? "" : ", ";
    line += JsonString(name) + ": {\"value\": " + JsonNumber(metric.value) +
            ", \"unit\": " + JsonString(metric.unit) + "}";
    first = false;
  }
  line += "}, \"problems\": [";
  first = true;
  for (const std::string& p : out.problems) {
    line += (first ? "" : ", ") + JsonString(p);
    first = false;
  }
  line += "], \"repeat\": {";
  first = true;
  for (const auto& [key, value] : out.repeat) {
    line += (first ? "" : ", ") + JsonString(key) + ": " + JsonString(value);
    first = false;
  }
  line += "}}";
  std::cout << line << std::endl;
}

}  // namespace

void AddSetupMetrics(const SetupResult& setup, bool traced,
                     double extra_setup_ms, WorkloadOutput* out) {
  out->repeat["model_fnv"] = std::to_string(setup.model_hash);
  if (!setup.bytes_identical) {
    out->problems.push_back("set-ups wrote different model bytes");
  }
  MetricTable& m = out->metrics;
  if (!traced) {
    m.Set("setup_s", (Median(setup.setup_ms) + extra_setup_ms) / 1000.0, "s");
    return;
  }
  m.Set("setup.corpus_ms", Median(setup.corpus_ms), "ms");
  m.Set("setup.train_ms", Median(setup.train_ms), "ms");
  const uint64_t epochs = setup.trainer_spans.Count("trainer/epoch");
  m.Set("trainer.epoch_ms",
        epochs > 0 ? setup.trainer_spans.Total("trainer/epoch") /
                         static_cast<double>(epochs)
                   : 0.0,
        "ms");
  m.Set("trainer.epochs_run", static_cast<double>(setup.report.epochs_run),
        "count");
  m.Set("trainer.samples_per_s",
        setup.report.train_seconds > 0.0
            ? static_cast<double>(setup.train_samples *
                                  setup.report.epochs_run) /
                  setup.report.train_seconds
            : 0.0,
        "1/s");
  m.Set("setup.fleet_start_ms", extra_setup_ms, "ms");
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  signal(SIGPIPE, SIG_IGN);
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: zt_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --work-dir <dir>\n";
    return 2;
  }
  const bool tune = args.workload == "tune_exhaustive" ||
                    args.workload == "tune_prescreen";
  if (!tune && args.workload != "serve_fleet") {
    std::cerr << "unknown workload " << args.workload << "\n";
    return 2;
  }

  SetupOptions sopts;
  sopts.work_dir = args.work_dir;
  sopts.traced = args.traced;
  zerotune::Result<SetupResult> setup = RunSetup(sopts);
  if (!setup.ok()) {
    std::cerr << "set-up failed: " << setup.status().ToString() << "\n";
    return 1;
  }

  const RunConfig run{args.seed, args.seconds, args.traced};
  WorkloadOutput out =
      tune ? RunTuneWorkload(setup.value(), run,
                             args.workload == "tune_prescreen")
           : RunServeWorkload(setup.value(), run);
  if (tune) AddSetupMetrics(setup.value(), args.traced, 0.0, &out);
  if (!args.traced) out.metrics.Set("peak_rss_mb", PeakRssMb(), "MB");
  for (const std::string& note : out.notes) std::cout << note << "\n";
  PrintResult(out);
  return 0;
}
