// The benchmark's three workloads as job lists, each job one call into a
// public workload entry point (RunSysbench, RunMadviseMicrobench,
// RunProtocolStorm), plus the per-job reference check and the per-layer
// counts read from the registry snapshot every job returns.
#ifndef TLBSIM_PERFBENCH_JOBS_H_
#define TLBSIM_PERFBENCH_JOBS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/sim/json.h"
#include "src/workloads/microbench.h"
#include "src/workloads/protocol_storm.h"
#include "src/workloads/sysbench.h"

namespace perfbench {

enum class Workload { kSysbenchMsync, kMadviseSweep, kProtocolStorm };

bool ParseWorkload(const std::string& name, Workload* out);

// Host threads the workload's job list fans out over (SweepRunner width).
int SweepThreads(Workload w);

// Host threads one pass keeps busy: the sweep width, or the storm's
// sim_threads.
int HostThreads(Workload w);

// One simulation job. Exactly one of the configs is used, by `workload`.
struct JobSpec {
  Workload workload = Workload::kSysbenchMsync;
  std::string key;  // unique within the workload; names the reference entry
  tlbsim::SysbenchConfig sysbench;
  tlbsim::MicroConfig micro;
  tlbsim::ProtocolStormConfig storm;
};

// Every (cell, pool seed) combination of the workload: the reference set.
std::vector<JobSpec> AllJobs(Workload w);

// The job list a benchmark seed selects: every cell once, each with a pool
// seed drawn from `seed`. The same seed always yields the same list.
std::vector<JobSpec> JobList(Workload w, uint64_t seed);

// What one job returned.
struct JobOutcome {
  bool threw = false;
  std::string error;
  tlbsim::Json result;   // the workload's result-struct fields (reference-checked)
  tlbsim::Json metrics;  // full registry snapshot the job returned
};

// Runs the job through its workload entry point; never throws.
JobOutcome RunJob(const JobSpec& spec);

// Reference: job key -> result fields, as recorded at a known-good commit.
using Reference = std::map<std::string, tlbsim::Json>;

bool LoadReference(const std::string& path, Reference* out, std::string* error);
tlbsim::Json ReferenceJson(const std::vector<JobSpec>& jobs,
                           const std::vector<JobOutcome>& outcomes);

// True when the job did not throw and every recorded result field equals
// the reference exactly. `why` names the first difference otherwise.
bool MatchesReference(const JobSpec& spec, const JobOutcome& outcome, const Reference& ref,
                      std::string* why);

// Flat name -> value view of the registry counts the per-layer metrics are
// derived from (counter values, per-CPU totals, histogram counts and
// percentiles). Equal maps mean the run repeated exactly.
using Counts = std::map<std::string, double>;
Counts ExtractCounts(const tlbsim::Json& metrics);

}  // namespace perfbench

#endif  // TLBSIM_PERFBENCH_JOBS_H_
