// tlbsim_perfbench: host cost per simulated shootdown on three traffic
// shapes. Normally driven by run.py, which builds this binary, times its
// set-up across several launches and prints the final result line.
//
//   tlbsim_perfbench --workload W --seed N --seconds S --trace 0|1
//                    --reference perfbench/reference/W.json
//                    [--setup-only] [--trace-out spans.json]
//   tlbsim_perfbench --record-reference W --out perfbench/reference/W.json
//
// A run builds the workload's job list from the seed, checks the reference
// covers it, runs an untimed warm-up, prints "ready <monotonic seconds>"
// and then measures whole passes over the job list for S seconds. Every
// job's result fields are checked against the reference and its registry
// counts against the first pass. After the measured phase, untimed: one
// tlbcheck pass over the job list and a self-test that a perturbed
// reference is caught. The last stdout line is a JSON report.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "perfbench/jobs.h"
#include "perfbench/probes.h"
#include "perfbench/spans.h"
#include "src/check/check_context.h"
#include "src/exec/sweep.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

using tlbsim::Json;
using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double MonotonicNow() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch()).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Linear-interpolation percentile, q in [0, 1].
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Job-time samples that put ten beyond the p90.
constexpr size_t kTenBeyondP90 = 100;

// Host-speed calibration. The development host (a 4-vCPU VM) runs through
// phases minutes long in which everything, this kernel included, takes up
// to 1.5x longer. End-to-end times are therefore scaled, pass by pass, by
// kCalibrationRefS / (calibration time around the pass): they read as
// seconds on a host where the calibration takes kCalibrationRefS. The
// kernel is the benchmark's own code and calls nothing in src/, so no
// change to the simulator can move it. It mimics the simulator's host
// work: an event heap, a hash table and small allocations.
constexpr double kCalibrationRefS = 0.040;
constexpr double kCalibrationEveryS = 1.0;

uint64_t CalibrationKernel() {
  using Event = std::pair<uint64_t, uint32_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> heap;
  std::unordered_map<uint64_t, uint64_t> table;
  std::vector<std::unique_ptr<std::array<uint64_t, 12>>> live(256);
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  uint64_t sink = 0;
  for (uint32_t i = 0; i < 64; ++i) {
    heap.push({i, i});
  }
  for (int n = 0; n < 300000; ++n) {
    auto [t, id] = heap.top();
    heap.pop();
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    table[x & 4095] += t;
    std::unique_ptr<std::array<uint64_t, 12>>& slot = live[x >> 56];
    slot = std::make_unique<std::array<uint64_t, 12>>();
    (*slot)[0] = t;
    sink += table.size();
    heap.push({t + 1 + (x & 1023), id});
  }
  return sink;
}

// Seconds for `threads` copies of the kernel run side by side, as wide as
// the workload's own host parallelism.
double CalibrationSeconds(int threads) {
  std::vector<uint64_t> sinks(static_cast<size_t>(threads));
  const Clock::time_point t0 = Clock::now();
  {
    std::vector<std::jthread> others;
    for (int i = 1; i < threads; ++i) {
      others.emplace_back([&sinks, i] { sinks[static_cast<size_t>(i)] = CalibrationKernel(); });
    }
    sinks[0] = CalibrationKernel();
  }
  const double s = Seconds(t0, Clock::now());
  for (uint64_t sink : sinks) {
    if (sink == 0) {  // never: keeps the kernel's work observable
      return 0.0;
    }
  }
  return s;
}

struct Options {
  Workload workload = Workload::kSysbenchMsync;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool setup_only = false;
  std::string reference;
  std::string trace_out;
  bool record = false;
  std::string out;
};

// One job's record within a pass. Times are relative to the pass start.
struct JobRecord {
  double start_s = 0;
  double end_s = 0;
  bool ok = false;
  std::string why;
  Counts counts;
  double snapshot_ms = 0;  // traced passes only
};

struct Pass {
  double wall_s = 0;
  std::vector<JobRecord> jobs;
  size_t calibration = 0;  // index of the calibration that follows the pass

  double JobSeconds() const {
    double s = 0;
    for (const JobRecord& j : jobs) {
      s += j.end_s - j.start_s;
    }
    return s;
  }
};

double Count(const Counts& c, const std::string& name) {
  auto it = c.find(name);
  return it == c.end() ? 0.0 : it->second;
}

double Shootdowns(const Counts& c) {
  return Count(c, "counters/shootdown.shootdowns") + Count(c, "counters/queue.shootdowns");
}

// Runs every job once through `runner`. With the tracer on, the sweep, each
// job and each snapshot serialization get a span.
Pass RunPass(const std::vector<JobSpec>& jobs, const Reference& ref, tlbsim::SweepRunner& runner,
             Tracer* tracer, uint64_t parent) {
  ScopedSpan sweep_span(tracer, "SweepRunner::Run", parent);
  const uint64_t sweep_id = sweep_span.id();
  const Clock::time_point t0 = Clock::now();
  std::vector<std::function<JobRecord()>> fns;
  for (const JobSpec& spec : jobs) {
    fns.emplace_back([&spec, &ref, tracer, sweep_id, t0] {
      JobRecord rec;
      JobOutcome outcome;
      {
        ScopedSpan job_span(tracer, "job", sweep_id);
        rec.start_s = Seconds(t0, Clock::now());
        outcome = RunJob(spec);
        rec.end_s = Seconds(t0, Clock::now());
        if (tracer->on()) {
          ScopedSpan snap_span(tracer, "snapshot", job_span.id());
          Clock::time_point s0 = Clock::now();
          std::string dump = outcome.metrics.Dump();
          rec.snapshot_ms = Seconds(s0, Clock::now()) * 1e3;
        }
      }
      rec.ok = MatchesReference(spec, outcome, ref, &rec.why);
      rec.counts = ExtractCounts(outcome.metrics);
      return rec;
    });
  }
  Pass pass;
  pass.jobs = runner.Run(std::move(fns));
  pass.wall_s = Seconds(t0, Clock::now());
  return pass;
}

// Counts of every job in `b` equal those in `a`; names the first mismatch.
bool SameCounts(const Pass& a, const Pass& b, const std::vector<JobSpec>& jobs, std::string* why) {
  for (size_t i = 0; i < jobs.size(); ++i) {
    const Counts& x = a.jobs[i].counts;
    const Counts& y = b.jobs[i].counts;
    if (x == y) {
      continue;
    }
    for (const auto& [name, v] : x) {
      auto it = y.find(name);
      if (it == y.end() || it->second != v) {
        *why = jobs[i].key + ": " + name + " " + std::to_string(v) + " vs " +
               (it == y.end() ? std::string("missing") : std::to_string(it->second));
        return false;
      }
    }
    *why = jobs[i].key + ": extra counts in the repeat";
    return false;
  }
  return true;
}

// The untimed tlbcheck pass: each job once with checking on, sequentially,
// so a violation is charged to the job that raised it. Storm jobs run their
// shards inline (sim_threads 1), which replays the sharded timeline.
struct CheckPass {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t violations = 0;
};

CheckPass RunCheckPass(const std::vector<JobSpec>& jobs, const Reference& ref) {
  CheckPass cp;
  tlbsim::InstallTlbCheckFactory();
  tlbsim::SetCheckEverySystem(true);
  for (JobSpec spec : jobs) {
    spec.storm.sim_threads = 1;
    uint64_t before = tlbsim::GlobalTlbCheckViolationCount();
    JobOutcome outcome = RunJob(spec);
    uint64_t found = tlbsim::GlobalTlbCheckViolationCount() - before;
    std::string why;
    bool ok = MatchesReference(spec, outcome, ref, &why);
    ++cp.attempted;
    if (found > 0) {
      std::fprintf(stderr, "tlbcheck: %s: %llu violation(s)\n", spec.key.c_str(),
                   static_cast<unsigned long long>(found));
    }
    if (!ok) {
      std::fprintf(stderr, "tlbcheck pass: %s\n", why.c_str());
    }
    if (found > 0 || !ok) {
      ++cp.failed;
    }
    cp.violations += found;
  }
  tlbsim::SetCheckEverySystem(false);
  return cp;
}

// A reference with any one result field perturbed must fail the check, and
// so must a missing entry: the comparison can never pass silently.
bool ReferenceSelfTest(const JobSpec& spec, const Reference& ref) {
  JobOutcome outcome = RunJob(spec);
  std::string why;
  if (!MatchesReference(spec, outcome, ref, &why)) {
    std::fprintf(stderr, "self-test: unperturbed reference failed: %s\n", why.c_str());
    return false;
  }
  for (const auto& [field, value] : ref.at(spec.key).members()) {
    Reference bad = ref;
    Json& f = bad[spec.key][field];
    f = value.type() == Json::Type::kDouble ? Json(value.AsDouble() * (1 + 1e-12) + 1e-300)
                                            : Json(value.AsUint() + 1);
    if (MatchesReference(spec, outcome, bad, &why)) {
      std::fprintf(stderr, "self-test: perturbed %s passed silently\n", field.c_str());
      return false;
    }
  }
  Reference missing = ref;
  missing.erase(spec.key);
  if (MatchesReference(spec, outcome, missing, &why)) {
    std::fprintf(stderr, "self-test: missing reference entry passed silently\n");
    return false;
  }
  return true;
}

// Workload shape the per-layer probes run on.
ProbeShape ShapeOf(const std::vector<JobSpec>& jobs, const std::vector<Counts>& counts,
                   uint64_t seed) {
  ProbeShape shape;
  shape.seed = seed;
  std::vector<double> fills;
  for (const Counts& c : counts) {
    fills.push_back(Count(c, "counters/coherence.memory_fills"));
  }
  shape.lines = std::max<uint64_t>(64, static_cast<uint64_t>(Median(fills)));
  const JobSpec& first = jobs.front();
  switch (first.workload) {
    case Workload::kSysbenchMsync:
      for (int c = 0; c < 16; ++c) {
        shape.cpus.push_back(c);
      }
      shape.mapped_pages = static_cast<uint64_t>(first.sysbench.file_pages);
      shape.frames = shape.mapped_pages;
      shape.system.kernel.pti = first.sysbench.pti;
      break;
    case Workload::kMadviseSweep:
      shape.cpus = {0, shape.topo.cpus_per_socket()};  // initiator and a remote responder
      shape.mapped_pages = 10;
      shape.frames = 10;
      shape.system.kernel.pti = first.micro.pti;
      break;
    case Workload::kProtocolStorm:
      shape.topo = first.storm.topo;
      for (int c = 0; c < shape.topo.num_cpus(); ++c) {
        shape.cpus.push_back(c);
      }
      shape.mapped_pages =
          static_cast<uint64_t>(first.storm.pages_per_cpu * shape.topo.cpus_per_socket());
      shape.frames = static_cast<uint64_t>(first.storm.pages_per_cpu * shape.topo.num_cpus());
      shape.system.machine.topo = shape.topo;
      shape.system.machine.sim_threads = first.storm.sim_threads;
      shape.system.machine.shard_protocol = first.storm.shard_protocol;
      break;
  }
  return shape;
}

struct Report {
  Json metrics = Json::Object();
  void Add(const std::string& name, double value, const char* unit) {
    Json& m = metrics[name];
    m["value"] = value;
    m["unit"] = unit;
  }
};

// ROADMAP gprof shares of fig10 --quick at 1 thread, ipi backend.
struct GprofShare {
  const char* layer;
  const char* metric;
  double share;
};
constexpr GprofShare kGprof[] = {
    {"sim", "sim.dispatch_est_ms", 0.15},
    {"cache", "cache.est_ms", 0.23},
    {"hw", "hw.flush_est_ms", 0.19},
    {"mm", "mm.est_ms", 0.04},
};

void AddLayerMetrics(Report* rep, Workload w, const std::vector<JobSpec>& jobs,
                     const std::vector<Pass>& untraced, const std::vector<Pass>& traced,
                     const ProbeResults& probe, const ProbeShape& shape, double storm_wall_1,
                     int threads) {
  // Model counts summed over one pass of the job list (every pass repeats
  // them exactly; checked by the caller).
  Counts sum;
  for (const JobRecord& j : untraced.front().jobs) {
    for (const auto& [name, v] : j.counts) {
      sum[name] += v;
    }
  }
  auto c = [&](const char* name) { return Count(sum, name); };
  const double shootdowns = Shootdowns(sum);
  const double events = c("counters/engine.events_processed");

  // Median of a histogram percentile over the jobs that recorded samples;
  // with protocol shards the histogram is banked per socket
  // ("<name>.socketN") and each bank is one sample.
  auto hist = [&](const std::string& name, const std::string& field) {
    std::vector<double> v;
    const std::string prefix = "histograms/" + name;
    for (const JobRecord& j : untraced.front().jobs) {
      for (auto it = j.counts.lower_bound(prefix); it != j.counts.end(); ++it) {
        const std::string& key = it->first;
        if (key.compare(0, prefix.size(), prefix) != 0) {
          break;
        }
        std::string bank = key.substr(0, key.rfind('/'));
        bool ours = bank == prefix || bank.compare(prefix.size(), 7, ".socket") == 0;
        if (ours && key.substr(bank.size() + 1) == "count" && it->second > 0) {
          v.push_back(Count(j.counts, bank + "/" + field));
        }
      }
    }
    return Median(v);
  };

  std::vector<double> walls, speedups, stragglers, traced_walls, snapshot_ms;
  for (const Pass& p : untraced) {
    walls.push_back(p.wall_s);
    speedups.push_back(Ratio(p.JobSeconds(), p.wall_s));
    std::vector<double> ends;
    for (const JobRecord& j : p.jobs) {
      ends.push_back(j.end_s);
    }
    std::sort(ends.begin(), ends.end());
    size_t idle_at = ends.size() >= static_cast<size_t>(threads) ? ends.size() - threads : 0;
    stragglers.push_back((p.wall_s - ends[idle_at]) * 1e3);
  }
  for (const Pass& p : traced) {
    traced_walls.push_back(p.wall_s);
    for (const JobRecord& j : p.jobs) {
      snapshot_ms.push_back(j.snapshot_ms);
    }
  }
  const double wall_s = Median(walls);
  const double traced_wall_s = Median(traced_walls);
  const double wall_ms = wall_s * 1e3;

  const double shard_windows = c("counters/engine.shard_windows");
  const double stalls = c("counters/engine.horizon_stalls");
  rep->Add("sim.events", events, "count");
  rep->Add("sim.events_per_shootdown", Ratio(events, shootdowns), "events");
  rep->Add("sim.ns_per_event", probe.ns_per_event, "ns");
  rep->Add("sim.dispatch_est_ms", probe.ns_per_event * events / 1e6, "ms");
  rep->Add("sim.windows", c("counters/engine.windows"), "count");
  rep->Add("sim.events_per_window", Ratio(c("counters/engine.parallel_events"), shard_windows),
           "events");
  rep->Add("sim.cross_shard_msgs", c("counters/engine.cross_shard_messages"), "count");
  rep->Add("sim.horizon_stall_frac", Ratio(stalls, stalls + shard_windows), "ratio");
  rep->Add("sim.shard_speedup",
           w == Workload::kProtocolStorm ? Ratio(storm_wall_1, wall_s) : 0.0, "x");

  rep->Add("exec.jobs", static_cast<double>(jobs.size()), "count");
  rep->Add("exec.speedup", Median(speedups), "x");
  rep->Add("exec.busy_frac", Median(speedups) / threads, "ratio");
  rep->Add("exec.straggler_ms", Median(stragglers), "ms");

  const double accesses = c("counters/coherence.accesses");
  rep->Add("cache.accesses", accesses, "count");
  rep->Add("cache.accesses_per_shootdown", Ratio(accesses, shootdowns), "accesses");
  rep->Add("cache.transfer_frac", Ratio(c("counters/coherence.transfers"), accesses), "ratio");
  rep->Add("cache.cross_socket_transfers", c("counters/coherence.cross_socket_transfers"),
           "count");
  rep->Add("cache.ns_per_access", probe.ns_per_access, "ns");
  rep->Add("cache.est_ms", probe.ns_per_access * accesses / 1e6, "ms");

  const double lookups = c("per_cpu/tlb.lookups");
  const double selective = c("per_cpu/tlb.selective_flushes") + c("per_cpu/itlb.selective_flushes");
  const double full = c("per_cpu/tlb.full_flushes") + c("per_cpu/itlb.full_flushes");
  rep->Add("hw.tlb_lookups", lookups, "count");
  rep->Add("hw.tlb_hit_ratio", Ratio(c("per_cpu/tlb.hits"), lookups), "ratio");
  rep->Add("hw.tlb_fastpath_ratio", Ratio(c("per_cpu/tlb.fastpath_hits"), lookups), "ratio");
  rep->Add("hw.tlb_selective_flushes", c("per_cpu/tlb.selective_flushes"), "count");
  rep->Add("hw.tlb_full_flushes", c("per_cpu/tlb.full_flushes"), "count");
  rep->Add("hw.ns_per_invlpg", probe.ns_per_invlpg, "ns");
  rep->Add("hw.flush_est_ms",
           (probe.ns_per_invlpg * selective + probe.ns_per_full_flush * full) / 1e6, "ms");
  rep->Add("hw.pwc_hit_ratio", Ratio(c("per_cpu/pwc.hits"), c("per_cpu/pwc.lookups")), "ratio");
  rep->Add("hw.ipis_per_shootdown", Ratio(c("counters/apic.ipis_sent"), shootdowns), "ipis");
  rep->Add("hw.irqs", c("per_cpu/cpu.irqs_handled"), "count");

  // Present-page visits are not counted by the library: every syscall is
  // taken to walk the whole mapped range, an upper bound.
  const double syscalls = c("counters/kernel.syscalls");
  const double faults = c("counters/kernel.page_faults");
  rep->Add("mm.ns_per_present_page", probe.ns_per_present_page, "ns");
  rep->Add("mm.ns_per_walk", probe.ns_per_walk, "ns");
  rep->Add("mm.ns_per_frame_alloc", probe.ns_per_frame_alloc, "ns");
  rep->Add("mm.est_ms",
           (probe.ns_per_walk * c("per_cpu/mmu.walks") + probe.ns_per_frame_alloc * faults +
            probe.ns_per_present_page * syscalls * static_cast<double>(shape.mapped_pages)) /
               1e6,
           "ms");

  rep->Add("kernel.syscalls", syscalls, "count");
  rep->Add("kernel.page_faults", faults, "count");
  rep->Add("kernel.flush_requests", c("counters/kernel.flush_requests"), "count");

  const double early = c("counters/shootdown.early_acks");
  const double late = c("counters/shootdown.late_acks");
  const double resp_full = c("counters/shootdown.responder_full") + c("counters/queue.drain_full");
  const double resp_all = c("counters/shootdown.responder_full") +
                          c("counters/shootdown.responder_selective") + c("counters/queue.drains");
  const double coalesced = c("counters/queue.ipi_coalesced");
  rep->Add("core.shootdowns", shootdowns, "count");
  rep->Add("core.early_ack_frac", Ratio(early, early + late), "ratio");
  rep->Add("core.responder_full_frac", Ratio(resp_full, resp_all), "ratio");
  rep->Add("core.initiator_cycles_p50", hist("shootdown.initiator_cycles", "p50"), "cycles");
  rep->Add("core.initiator_cycles_p99", hist("shootdown.initiator_cycles", "p99"), "cycles");
  rep->Add("core.flush_irq_cycles_p50", hist("shootdown.flush_irq_cycles", "p50"), "cycles");
  rep->Add("core.queue_enqueued", c("counters/queue.enqueued"), "count");
  rep->Add("core.queue_spin_polls", c("counters/queue.spin_polls"), "count");
  rep->Add("core.queue_ipi_coalesced_frac",
           Ratio(coalesced, coalesced + c("counters/queue.ipi_sends")), "ratio");
  rep->Add("core.snapshot_ms", Median(snapshot_ms), "ms");
  rep->Add("setup.system_ms", probe.system_ms, "ms");
  rep->Add("trace.overhead_ms", (traced_wall_s - wall_s) * 1e3, "ms");

  // Estimates against the whole untraced job-list wall time, next to the
  // ROADMAP's gprof shares (fig10 --quick, 1 thread, ipi).
  std::printf("est share of job-list wall (%.1f ms, %d host thread(s)):\n", wall_ms, threads);
  for (const GprofShare& g : kGprof) {
    double est = rep->metrics.Find(g.metric)->Find("value")->AsDouble();
    double share = Ratio(est, wall_ms * threads);
    const char* verdict = "";
    if (w == Workload::kSysbenchMsync) {
      verdict = share > 2 * g.share || share < g.share / 2 ? "  DISAGREES with gprof"
                                                           : "  agrees with gprof";
    }
    std::printf("  %-6s %-22s %6.1f%%   gprof %4.0f%%%s\n", g.layer, g.metric, share * 100,
                g.share * 100, verdict);
  }
}

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) {
        return false;
      }
      *out = argv[++i];
      return true;
    };
    std::string v;
    if (a == "--setup-only") {
      o->setup_only = true;
    } else if (a == "--workload" || a == "--record-reference") {
      o->record = a == "--record-reference";
      if (!value(&v) || !ParseWorkload(v, &o->workload)) {
        std::fprintf(stderr, "unknown workload '%s'\n", v.c_str());
        return false;
      }
    } else if (a == "--seed" && value(&v)) {
      o->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds" && value(&v)) {
      o->seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace" && value(&v)) {
      o->trace = v == "1";
    } else if (a == "--reference" && value(&o->reference)) {
    } else if (a == "--trace-out" && value(&o->trace_out)) {
    } else if (a == "--out" && value(&o->out)) {
    } else {
      std::fprintf(stderr, "bad argument '%s'\n", a.c_str());
      return false;
    }
  }
  return true;
}

int RecordReference(const Options& o) {
  std::vector<JobSpec> jobs = AllJobs(o.workload);
  std::vector<std::function<JobOutcome()>> fns;
  for (const JobSpec& spec : jobs) {
    fns.emplace_back([&spec] { return RunJob(spec); });
  }
  tlbsim::SweepRunner runner(4);  // results are identical at any width
  std::vector<JobOutcome> outcomes = runner.Run(std::move(fns));
  for (size_t i = 0; i < jobs.size(); ++i) {
    if (outcomes[i].threw) {
      std::fprintf(stderr, "%s threw: %s\n", jobs[i].key.c_str(), outcomes[i].error.c_str());
      return 1;
    }
  }
  std::ofstream out(o.out);
  out << ReferenceJson(jobs, outcomes).Dump(1) << "\n";
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", o.out.c_str());
    return 1;
  }
  std::printf("recorded %zu jobs into %s\n", jobs.size(), o.out.c_str());
  return 0;
}

int Main(int argc, char** argv) {
  Options o;
  if (!ParseArgs(argc, argv, &o)) {
    return 2;
  }
#ifndef NDEBUG
  std::fprintf(stderr, "refusing to measure: assertions are on (build type %s)\n",
               PERFBENCH_BUILD_TYPE);
  return 2;
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "refusing to measure a %s build; configure with Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  if (o.record) {
    return RecordReference(o);
  }

  const std::vector<JobSpec> jobs = JobList(o.workload, o.seed);
  Reference ref;
  std::string error;
  if (!LoadReference(o.reference, &ref, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  for (const JobSpec& spec : jobs) {
    if (ref.count(spec.key) == 0) {
      std::fprintf(stderr, "reference %s has no entry for %s\n", o.reference.c_str(),
                   spec.key.c_str());
      return 2;
    }
  }
  const int threads = SweepThreads(o.workload);
  tlbsim::SweepRunner runner(threads);
  Tracer tracer(o.trace);

  // Untimed warm-up: the list's last job per host thread (the largest
  // cells), through the same runner, so the pool, the allocators and the
  // host caches are filled before the first measured job.
  {
    std::vector<JobSpec> warm(jobs.end() - threads, jobs.end());
    RunPass(warm, ref, runner, &tracer, 0);
  }
  std::printf("ready %.9f\n", MonotonicNow());
  std::fflush(stdout);
  if (o.setup_only) {
    // The host's speed right after this set-up, to scale it by.
    std::vector<double> cal;
    for (int i = 0; i < 3; ++i) {
      cal.push_back(CalibrationSeconds(HostThreads(o.workload)));
    }
    std::printf("host_scale %.9f\n", kCalibrationRefS / Median(cal));
    return 0;
  }

  // Measured phase: whole passes until the budget is spent, at least two so
  // counts can be compared across passes. A traced run alternates untraced
  // and traced passes so the overhead comes from one host state.
  std::vector<Pass> untraced;
  std::vector<Pass> traced;
  const Clock::time_point m0 = Clock::now();
  const uint64_t root = tracer.Begin("workload", 0);
  double peak_rss_mb = 0;
  std::vector<double> calibration_s;
  size_t calibrated = 0;  // untraced passes that have their scale
  Clock::time_point last_calibration = m0;
  auto calibrate = [&] {
    for (; calibrated < untraced.size(); ++calibrated) {
      untraced[calibrated].calibration = calibration_s.size();
    }
    calibration_s.push_back(CalibrationSeconds(HostThreads(o.workload)));
    last_calibration = Clock::now();
  };
  while (Seconds(m0, Clock::now()) < o.seconds || untraced.size() < 2) {
    Tracer off(false);
    untraced.push_back(RunPass(jobs, ref, runner, &off, 0));
    if (o.trace) {
      traced.push_back(RunPass(jobs, ref, runner, &tracer, root));
    }
    if (calibration_s.empty() || Seconds(last_calibration, Clock::now()) >= kCalibrationEveryS) {
      calibrate();
    }
    if (untraced.size() == 2) {
      // Peak RSS at a fixed amount of work (set-up plus two passes): the
      // sharded storm's RSS keeps growing with every pass, so a
      // time-bounded run would tie this figure to host speed.
      rusage ru{};
      getrusage(RUSAGE_SELF, &ru);
      peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    }
  }
  if (calibrated < untraced.size()) {
    calibrate();
  }
  tracer.End(root);

  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::string why;
  for (const std::vector<Pass>* set : {&untraced, &traced}) {
    for (const Pass& p : *set) {
      if (!SameCounts(untraced.front(), p, jobs, &why)) {
        std::fprintf(stderr, "FAIL: per-layer counts did not repeat exactly: %s\n", why.c_str());
        correct = false;
      }
      for (const JobRecord& j : p.jobs) {
        ++attempted;
        if (!j.ok) {
          ++failed;
          std::fprintf(stderr, "failed job: %s\n", j.why.c_str());
        }
      }
    }
  }

  // Job-time percentiles are taken within each pass and reported as the
  // median over passes, like wall_s: a host slowdown that covers a few
  // passes moves a percentile of all jobs pooled, not the median pass's.
  std::vector<double> pass_p50;
  std::vector<double> pass_p90;
  size_t job_samples = 0;
  std::vector<double> walls;
  double measured_s = 0;
  for (const Pass& p : untraced) {
    walls.push_back(p.wall_s);
    measured_s += p.wall_s;
    std::vector<double> job_ms;
    for (const JobRecord& j : p.jobs) {
      job_ms.push_back((j.end_s - j.start_s) * 1e3);
    }
    job_samples += job_ms.size();
    pass_p50.push_back(Percentile(job_ms, 0.5));
    pass_p90.push_back(Percentile(job_ms, 0.9));
  }
  double pass_shootdowns = 0;  // the same in every pass (counts repeat)
  for (const JobRecord& j : untraced.front().jobs) {
    pass_shootdowns += Shootdowns(j.counts);
  }
  const double calibration_ms = Median(calibration_s) * 1e3;
  // Each pass is scaled by the calibrations around it, so a host phase that
  // starts or ends within the run is corrected pass by pass: the median of
  // the calibration that follows the pass and that one's two neighbours,
  // which keeps one noisy calibration from moving its passes.
  std::vector<double> scales;
  for (const Pass& p : untraced) {
    const size_t k = p.calibration;
    std::vector<double> around(calibration_s.begin() + static_cast<ptrdiff_t>(k > 0 ? k - 1 : 0),
                               calibration_s.begin() +
                                   static_cast<ptrdiff_t>(std::min(k + 2, calibration_s.size())));
    scales.push_back(kCalibrationRefS / Median(std::move(around)));
  }
  const double host_scale = Median(scales);
  auto scaled = [&scales](std::vector<double> v) {
    for (size_t i = 0; i < v.size(); ++i) {
      v[i] *= scales[i];
    }
    return v;
  };

  // ipi replay contract: the storm's counts at 1 host thread, and at one
  // per vCPU of a 4-vCPU host, equal those at the measured thread budget.
  double storm_wall_1 = 0;
  if (o.trace && o.workload == Workload::kProtocolStorm) {
    for (int sim_threads : {1, 4}) {
      std::vector<JobSpec> replay = jobs;
      for (JobSpec& spec : replay) {
        spec.storm.sim_threads = sim_threads;
      }
      Tracer off(false);
      Pass p = RunPass(replay, ref, runner, &off, 0);
      if (sim_threads == 1) {
        storm_wall_1 = p.wall_s;
      }
      if (!SameCounts(untraced.front(), p, jobs, &why)) {
        std::fprintf(stderr, "FAIL: storm counts differ between %d and %d host threads: %s\n",
                     sim_threads, jobs.front().storm.sim_threads, why.c_str());
        correct = false;
      }
      attempted += p.jobs.size();
      for (const JobRecord& j : p.jobs) {
        failed += j.ok ? 0 : 1;
      }
    }
  }

  ProbeResults probe;
  ProbeShape shape;
  if (o.trace) {
    std::vector<Counts> counts;
    for (const JobRecord& j : untraced.front().jobs) {
      counts.push_back(j.counts);
    }
    shape = ShapeOf(jobs, counts, o.seed);
    ScopedSpan span(&tracer, "probes", 0);
    probe = RunProbes(shape);
  }

  CheckPass cp = RunCheckPass(jobs, ref);
  attempted += cp.attempted;
  failed += cp.failed;
  if (!ReferenceSelfTest(jobs.front(), ref)) {
    std::fprintf(stderr, "FAIL: reference self-test\n");
    correct = false;
  }
  correct = correct && failed == 0;

  Report rep;
  if (o.trace) {
    AddLayerMetrics(&rep, o.workload, jobs, untraced, traced, probe, shape, storm_wall_1,
                    threads);
    rep.Add("host.calibration_ms", calibration_ms, "ms");
    if (!o.trace_out.empty() && !tracer.Write(o.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", o.trace_out.c_str());
    }
  } else {
    const double wall_s = Median(scaled(walls));
    rep.Add("wall_s", wall_s, "s");
    rep.Add("shootdowns_per_s", Ratio(pass_shootdowns, wall_s), "1/s");
    rep.Add("job_ms_p50", Median(scaled(pass_p50)), "ms");
    rep.Add("job_ms_p90", Median(scaled(pass_p90)), "ms");
    rep.Add("peak_rss_mb", peak_rss_mb, "MB");
    rep.Add("pass_frac", Ratio(static_cast<double>(attempted - failed), attempted), "ratio");
  }

  std::printf("measured %zu untraced pass(es) of %zu jobs in %.3f s; pass wall s: min %.4f "
              "p25 %.4f median %.4f p75 %.4f max %.4f\n",
              untraced.size(), jobs.size(), measured_s, Percentile(walls, 0), Percentile(walls, .25),
              Percentile(walls, .5), Percentile(walls, .75), Percentile(walls, 1));
  std::printf("job_ms samples: %zu over %zu passes, %zu beyond the per-pass p90s%s; unscaled "
              "median-pass p50 %.4f p90 %.4f ms\n",
              job_samples, untraced.size(), job_samples / 10,
              job_samples < kTenBeyondP90 ? " (fewer than ten: read the p90 as a tail bound)" : "",
              Median(pass_p50), Median(pass_p90));
  std::printf("calibration kernel: median %.3f ms over %zu runs; end-to-end times scaled pass by "
              "pass, median factor %.4f\n",
              calibration_ms, calibration_s.size(), host_scale);
  std::printf("tlbcheck pass: %llu jobs, %llu violation(s); fail_frac %.6f (%llu / %llu)\n",
              static_cast<unsigned long long>(cp.attempted),
              static_cast<unsigned long long>(cp.violations), Ratio(failed, attempted),
              static_cast<unsigned long long>(failed), static_cast<unsigned long long>(attempted));

  Json out = Json::Object();
  out["correct"] = correct;
  out["attempted"] = attempted;
  out["failed"] = failed;
  out["metrics"] = std::move(rep.metrics);
  out["job_ms_samples"] = static_cast<uint64_t>(job_samples);
  out["host_scale"] = host_scale;
  out["build_type"] = PERFBENCH_BUILD_TYPE;
  out["compiler"] = PERFBENCH_COMPILER;
  std::printf("%s\n", out.Dump().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
