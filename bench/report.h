// BenchReport: shared --json plumbing for every bench target.
//
// Each bench main constructs one BenchReport from its argv; if the user
// passed `--json <path>` (or `--json=<path>`), Finish() serializes the
// accumulated document there. When <path> is a directory the file is named
// BENCH_<bench>.json inside it, which is the layout scripts/run_all.sh and CI
// collect.
//
// The document is deterministic by construction with one carve-out: every
// virtual-simulation quantity (config/rows/metrics) contains no wall-clock
// timestamps or host identifiers, and Json preserves insertion order — two
// identical seeded runs emit byte-identical files for those sections, so CI
// can diff them (the determinism gate). Host-side quantities (sweep wall
// time, realized parallel speedup) live exclusively under the "host" key,
// which CI strips before comparing (scripts/strip_nondeterministic.py).
//
// Sweep-shaped benches additionally accept `--threads N` (host threads for
// the SweepRunner fan-out; default hardware_concurrency; 1 = sequential) and
// `--quick` (reduced seed count for local iteration — changes the emitted
// document, so CI never passes it).
//
// `--check` turns the tlbcheck analysis subsystem (src/check/) on for every
// System the bench constructs: the stale-translation oracle, the protocol
// invariant checker and lockdep all run inside the simulation. Finish()
// embeds the accumulated violation report under root()["tlbcheck"] and
// forces a nonzero exit code when any violation was found — this is the CI
// gate that runs every paper configuration under checking.
//
// Canonical shape:
//   {"bench": <name>, "schema_version": 1,
//    "config": {...},            // bench-specific knobs (optional)
//    "rows": [...],              // one object per printed result row
//    "metrics": {...},           // full MetricsRegistry snapshot (optional)
//    "host": {...},              // non-deterministic host section (optional)
//    "status": "pass"|"fail"}
#ifndef TLBSIM_BENCH_REPORT_H_
#define TLBSIM_BENCH_REPORT_H_

#include <string>
#include <vector>

#include "src/core/system.h"
#include "src/exec/sweep.h"
#include "src/sim/json.h"

namespace tlbsim {

class BenchReport {
 public:
  // `name` is the bench target name (e.g. "fig5_safe_1pte"); argv is scanned
  // for --json, --threads and --quick. Unrecognized arguments are ignored so
  // targets stay usable under wrappers that append their own flags.
  BenchReport(const char* name, int argc, char** argv);

  // True when --json was requested (callers may skip expensive collection).
  bool enabled() const { return !path_.empty(); }

  const std::string& name() const { return name_; }

  // The mutable document root (an object pre-seeded with "bench"/"schema_version").
  Json& root() { return root_; }

  // Appends one result row to root()["rows"].
  void AddRow(Json row);

  // Collects all layer stats of `system` into its metrics registry and embeds
  // the serialized registry under root()[key].
  void Snapshot(System& system, const char* key = "metrics");

  // Sets root()[key] = value (convenience for config/ablation sections).
  void Set(const char* key, Json value);

  // Host threads requested via --threads (defaults to the machine's
  // hardware concurrency). Feed this to a SweepRunner.
  int threads() const { return threads_; }

  // True when --quick was passed: benches with seed loops cut them down for
  // fast local iteration.
  bool quick() const { return quick_; }

  // True when --check was passed (tlbcheck enabled for every System).
  bool check() const { return check_; }

  // The flush backends this invocation sweeps, in run order. Default is
  // {ipi, queue} (every figure carries both protocols side by side);
  // `--backend ipi|queue` narrows to one, `--backend both` is the explicit
  // default. A bad value prints usage to stderr and exits nonzero.
  const std::vector<FlushBackendKind>& backends() const { return backends_; }

  // True when this run is the paper's IPI protocol alone (`--backend ipi`).
  // In that mode benches must emit exactly the single-backend document —
  // no "backend" keys anywhere — so the output stays byte-identical with
  // reports produced before the backend axis existed.
  bool ipi_only() const {
    return backends_.size() == 1 && backends_[0] == FlushBackendKind::kIpi;
  }

  // Embeds `runner`'s accumulated host-side stats (wall seconds, realized
  // speedup) under root()["host"] — the one non-deterministic section.
  void SetHost(const SweepRunner& runner) { root_["host"] = runner.HostJson(); }

  // Records pass/fail from `rc`, writes the file when enabled, and returns
  // `rc` unchanged so mains can `return report.Finish(rc);`. Reports write
  // failures on stderr and turns them into a nonzero exit code.
  int Finish(int rc);

 private:
  std::string name_;
  std::string path_;  // empty: reporting disabled
  int threads_;
  bool quick_ = false;
  bool check_ = false;
  std::vector<FlushBackendKind> backends_;
  Json root_;
};

}  // namespace tlbsim

#endif  // TLBSIM_BENCH_REPORT_H_
