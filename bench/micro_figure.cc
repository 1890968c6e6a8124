#include "bench/micro_figure.h"

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
constexpr int kRuns = 5;          // the paper's 5-run methodology
constexpr int kQuickRuns = 2;     // --quick: local iteration
constexpr int kIterations = 300;  // madvise calls per run (paper: 100k; the
                                  // simulator's variance is far lower)

constexpr Placement kPlacements[] = {Placement::kSameCore, Placement::kSameSocket,
                                     Placement::kOtherSocket};
}  // namespace

int RunMicroFigure(const char* bench_name, const char* figure_name, bool pti, int pages, int argc,
                   char** argv) {
  BenchReport report(bench_name, argc, argv);
  const int runs = report.quick() ? kQuickRuns : kRuns;
  const std::vector<FlushBackendKind>& backends = report.backends();
  Json config = Json::Object();
  config["figure"] = figure_name;
  config["pti"] = pti;
  config["pages"] = pages;
  config["runs"] = runs;
  config["iterations"] = kIterations;
  if (!report.ipi_only()) {
    Json list = Json::Array();
    for (FlushBackendKind b : backends) {
      list.Append(Json(FlushBackendName(b)));
    }
    config["backends"] = std::move(list);
  }
  report.Set("config", std::move(config));

  // In unsafe mode there is no PTI, hence no in-context flushing bar.
  const int max_level = pti ? 4 : 3;

  // One job per (backend, placement, level, run): each constructs and runs
  // its own simulation, returning the result by value. Submission order is
  // the sequential loop order, and SweepRunner collects in submission order,
  // so aggregation below sees exactly the sequence the serial code produced.
  std::vector<std::function<MicroResult()>> jobs;
  for (FlushBackendKind backend : backends) {
    for (Placement place : kPlacements) {
      for (int level = 0; level <= max_level; ++level) {
        for (int run = 0; run < runs; ++run) {
          MicroConfig cfg;
          cfg.pti = pti;
          cfg.opts = OptimizationSet::Cumulative(level);
          cfg.pages = pages;
          cfg.placement = place;
          cfg.iterations = kIterations;
          cfg.seed = 1000 + static_cast<uint64_t>(run);
          cfg.backend = backend;
          jobs.emplace_back([cfg] { return RunMadviseMicrobench(cfg); });
        }
      }
    }
  }
  SweepRunner runner(report.threads());
  std::vector<MicroResult> results = runner.Run(std::move(jobs));

  std::printf("# %s: madvise(DONTNEED) microbenchmark, %s mode, flush %d PTE%s\n", figure_name,
              pti ? "safe" : "unsafe", pages, pages == 1 ? "" : "s");
  std::printf("# cycles per operation, mean +- stddev over %d runs x %d iterations\n", runs,
              kIterations);

  int rc = 0;
  Json last_metrics_ipi;
  Json last_metrics_queue;
  size_t next = 0;
  for (FlushBackendKind backend : backends) {
    if (!report.ipi_only()) {
      std::printf("== backend: %s ==\n", FlushBackendName(backend));
    }
    std::printf("%-13s %-12s %14s %14s %10s\n", "placement", "opts", "initiator", "responder",
                "vs-base");
    for (Placement place : kPlacements) {
      double base_initiator = 0.0;
      for (int level = 0; level <= max_level; ++level) {
        RunningStat initiator_runs;
        RunningStat responder_runs;
        uint64_t shootdowns = 0;
        uint64_t early_acks = 0;
        for (int run = 0; run < runs; ++run) {
          MicroResult& r = results[next++];
          initiator_runs.Add(r.initiator.mean());
          responder_runs.Add(r.responder_cycles_per_op);
          shootdowns = r.shootdowns;
          early_acks = r.early_acks;
          if (backend == FlushBackendKind::kQueue) {
            last_metrics_queue = std::move(r.metrics);
          } else {
            last_metrics_ipi = std::move(r.metrics);
          }
        }
        if (level == 0) {
          base_initiator = initiator_runs.mean();
        }
        double speed = base_initiator > 0 ? (1.0 - initiator_runs.mean() / base_initiator) : 0.0;
        const char* opts_name = OptimizationSet::kCumulativeNames[static_cast<size_t>(level)];
        std::printf("%-13s %-12s %8.0f +-%4.0f %8.0f +-%4.0f %9.1f%%\n", PlacementName(place),
                    opts_name, initiator_runs.mean(), initiator_runs.stddev(),
                    responder_runs.mean(), responder_runs.stddev(), 100.0 * speed);
        Json row = Json::Object();
        if (!report.ipi_only()) {
          row["backend"] = FlushBackendName(backend);
        }
        row["placement"] = PlacementName(place);
        row["level"] = level;
        row["opts"] = opts_name;
        row["initiator_mean"] = initiator_runs.mean();
        row["initiator_stddev"] = initiator_runs.stddev();
        row["responder_mean"] = responder_runs.mean();
        row["responder_stddev"] = responder_runs.stddev();
        row["reduction_vs_base"] = speed;
        row["shootdowns"] = shootdowns;
        row["early_acks"] = early_acks;
        report.AddRow(std::move(row));
        // Sanity: optimizations must not regress the initiator by > 5%.
        if (initiator_runs.mean() > base_initiator * 1.05) {
          std::printf("!! regression at level %d\n", level);
          rc = 1;
        }
      }
      std::printf("\n");
    }
  }
  // Full registry snapshot of each backend's last run (cross-socket, all
  // optimizations): the configurations CI's bench-smoke gate probes for
  // nonzero IPI / queue-protocol counters.
  if (last_metrics_ipi.type() != Json::Type::kNull) {
    report.Set("metrics", std::move(last_metrics_ipi));
  }
  if (last_metrics_queue.type() != Json::Type::kNull) {
    report.Set("metrics_queue", std::move(last_metrics_queue));
  }
  report.SetHost(runner);
  return report.Finish(rc);
}

}  // namespace tlbsim
