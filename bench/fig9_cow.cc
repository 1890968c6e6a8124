// Regenerates Figure 9: cycles of a write that triggers a copy-on-write
// fault, with all previous optimizations (all) vs all + CoW flush avoidance,
// in safe and unsafe mode.
#include <cstdio>
#include <functional>
#include <utility>
#include <vector>

#include "bench/report.h"
#include "src/exec/sweep.h"
#include "src/sim/stats.h"
#include "src/workloads/microbench.h"

namespace tlbsim {
namespace {

constexpr int kRuns = 5;
constexpr int kQuickRuns = 2;

struct Measured {
  RunningStat across_runs;
  uint64_t cow_faults = 0;
  uint64_t flushes_avoided = 0;
  Json metrics;  // from the last run
};

// Aggregates `runs` consecutive sweep results into one table cell.
Measured Aggregate(std::vector<CowResult>::iterator it, int runs) {
  Measured m;
  for (int run = 0; run < runs; ++run, ++it) {
    m.across_runs.Add(it->write_cycles.mean());
    m.cow_faults = it->cow_faults;
    m.flushes_avoided = it->flushes_avoided;
    m.metrics = std::move(it->metrics);
  }
  return m;
}

Json Row(bool pti, const char* config, const Measured& m) {
  Json row = Json::Object();
  row["mode"] = pti ? "safe" : "unsafe";
  row["config"] = config;
  row["cycles_mean"] = m.across_runs.mean();
  row["cycles_stddev"] = m.across_runs.stddev();
  row["cow_faults"] = m.cow_faults;
  row["flushes_avoided"] = m.flushes_avoided;
  return row;
}

}  // namespace
}  // namespace tlbsim

int main(int argc, char** argv) {
  using namespace tlbsim;
  BenchReport report("fig9_cow", argc, argv);
  const int runs = report.quick() ? kQuickRuns : kRuns;
  const std::vector<FlushBackendKind>& backends = report.backends();
  Json config = Json::Object();
  config["runs"] = runs;
  config["pages"] = 64;
  config["rounds"] = 4;
  if (!report.ipi_only()) {
    Json list = Json::Array();
    for (FlushBackendKind b : backends) {
      list.Append(Json(FlushBackendName(b)));
    }
    config["backends"] = std::move(list);
  }
  report.Set("config", std::move(config));

  // Jobs in cell-major order per backend: (safe all, safe all+cow, unsafe
  // all, unsafe all+cow), `runs` seeds each.
  std::vector<std::function<CowResult()>> jobs;
  for (FlushBackendKind backend : backends) {
    for (bool pti : {true, false}) {
      for (bool cow_avoidance : {false, true}) {
        for (int run = 0; run < runs; ++run) {
          CowConfig cfg;
          cfg.pti = pti;
          cfg.opts = OptimizationSet::AllGeneral();
          cfg.opts.cow_avoidance = cow_avoidance;
          cfg.pages = 64;
          cfg.rounds = 4;
          cfg.seed = 40 + static_cast<uint64_t>(run);
          cfg.backend = backend;
          jobs.emplace_back([cfg] { return RunCowMicrobench(cfg); });
        }
      }
    }
  }
  SweepRunner runner(report.threads());
  std::vector<CowResult> results = runner.Run(std::move(jobs));

  std::printf("# Figure 9: CoW page-fault write latency (cycles per event)\n");
  std::printf("# paper: CoW avoidance saves ~130 cycles (~3%% safe, ~5%% unsafe)\n\n");
  int rc = 0;
  Json last_metrics_ipi;
  Json last_metrics_queue;
  auto it = results.begin();
  for (FlushBackendKind backend : backends) {
    if (!report.ipi_only()) {
      std::printf("== backend: %s ==\n", FlushBackendName(backend));
    }
    std::printf("%-8s %-10s %12s\n", "mode", "config", "cycles");
    for (bool pti : {true, false}) {
      Measured all = Aggregate(it, runs);
      it += runs;
      Measured all_cow = Aggregate(it, runs);
      it += runs;
      std::printf("%-8s %-10s %8.0f +-%3.0f\n", pti ? "safe" : "unsafe", "all",
                  all.across_runs.mean(), all.across_runs.stddev());
      std::printf("%-8s %-10s %8.0f +-%3.0f   (saves %.0f cycles, %.1f%%)\n",
                  pti ? "safe" : "unsafe", "all+cow", all_cow.across_runs.mean(),
                  all_cow.across_runs.stddev(),
                  all.across_runs.mean() - all_cow.across_runs.mean(),
                  100.0 * (1.0 - all_cow.across_runs.mean() / all.across_runs.mean()));
      Json row_all = Row(pti, "all", all);
      Json row_cow = Row(pti, "all+cow", all_cow);
      if (!report.ipi_only()) {
        row_all["backend"] = FlushBackendName(backend);
        row_cow["backend"] = FlushBackendName(backend);
      }
      report.AddRow(std::move(row_all));
      report.AddRow(std::move(row_cow));
      if (backend == FlushBackendKind::kQueue) {
        last_metrics_queue = std::move(all_cow.metrics);
      } else {
        last_metrics_ipi = std::move(all_cow.metrics);
      }
      if (all_cow.across_runs.mean() >= all.across_runs.mean()) {
        std::printf("!! CoW avoidance did not help\n");
        rc = 1;
      }
    }
  }
  // Snapshot from each backend's last all+cow run: CI probes the
  // cow_flush_avoided counter of whichever protocol ran.
  if (!last_metrics_ipi.is_null()) {
    report.Set("metrics", std::move(last_metrics_ipi));
  }
  if (!last_metrics_queue.is_null()) {
    report.Set("metrics_queue", std::move(last_metrics_queue));
  }
  report.SetHost(runner);
  return report.Finish(rc);
}
