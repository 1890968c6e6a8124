#include "perfbench/jobs.h"

#include <exception>
#include <fstream>
#include <iterator>
#include <sstream>
#include <utility>

#include "src/sim/rng.h"

namespace perfbench {

using tlbsim::FlushBackendKind;
using tlbsim::Json;
using tlbsim::OptimizationSet;
using tlbsim::Placement;

namespace {

constexpr FlushBackendKind kBackends[] = {FlushBackendKind::kIpi, FlushBackendKind::kQueue};

// Figure 10's thread axis, thinned to six points that still span 1-16.
constexpr int kSysbenchThreads[] = {1, 2, 4, 8, 12, 16};
constexpr uint64_t kSysbenchSeeds[] = {7, 8, 9, 10, 11, 12, 13, 14};

constexpr int kMicroPages[] = {1, 10};
constexpr Placement kPlacements[] = {Placement::kSameCore, Placement::kSameSocket,
                                     Placement::kOtherSocket};
constexpr int kMicroIterations = 300;  // what the Figs 5-8 benches run per job
constexpr uint64_t kMicroSeeds[] = {1000, 1001, 1002, 1003, 1004, 1005, 1006, 1007};

// Storm jobs per list, drawn without replacement from a 16-seed pool.
constexpr int kStormJobs = 8;
constexpr int kStormSeedPool = 16;
constexpr int kStormIterations = 2;
// Two shards, not one per vCPU: every shard window is a barrier across the
// engine's threads, so at one thread per vCPU any descheduled thread stalls
// the whole storm and the job times measure the host's scheduler.
constexpr int kStormSimThreads = 2;

const char* Mode(bool pti) { return pti ? "safe" : "unsafe"; }

// Figure 10's rightmost column: every general optimization plus batching.
OptimizationSet FullCumulative(bool pti) {
  OptimizationSet s = OptimizationSet::Cumulative(pti ? 4 : 3);
  s.userspace_batching = true;
  return s;
}

// A cell is a job without its seed; `seeds` lists the pool it draws from.
struct Cell {
  JobSpec spec;
  std::vector<uint64_t> seeds;
};

std::vector<Cell> Cells(Workload w) {
  std::vector<Cell> cells;
  switch (w) {
    case Workload::kSysbenchMsync:
      for (FlushBackendKind backend : kBackends) {
        for (bool pti : {true, false}) {
          for (int threads : kSysbenchThreads) {
            for (bool full : {false, true}) {
              Cell c;
              c.spec.workload = w;
              c.spec.sysbench.pti = pti;
              c.spec.sysbench.threads = threads;
              c.spec.sysbench.backend = backend;
              c.spec.sysbench.opts = full ? FullCumulative(pti) : OptimizationSet::None();
              c.spec.key = std::string(tlbsim::FlushBackendName(backend)) + "/" + Mode(pti) +
                           "/t" + std::to_string(threads) + (full ? "/full" : "/baseline");
              c.seeds.assign(std::begin(kSysbenchSeeds), std::end(kSysbenchSeeds));
              cells.push_back(std::move(c));
            }
          }
        }
      }
      break;
    case Workload::kMadviseSweep:
      for (FlushBackendKind backend : kBackends) {
        for (bool pti : {true, false}) {
          for (int pages : kMicroPages) {
            for (Placement place : kPlacements) {
              for (bool all : {false, true}) {
                Cell c;
                c.spec.workload = w;
                c.spec.micro.pti = pti;
                c.spec.micro.pages = pages;
                c.spec.micro.placement = place;
                c.spec.micro.iterations = kMicroIterations;
                c.spec.micro.backend = backend;
                c.spec.micro.opts = all ? OptimizationSet::All() : OptimizationSet::None();
                c.spec.key = std::string(tlbsim::FlushBackendName(backend)) + "/" + Mode(pti) +
                             "/p" + std::to_string(pages) + "/" + tlbsim::PlacementName(place) +
                             (all ? "/all" : "/none");
                c.seeds.assign(std::begin(kMicroSeeds), std::end(kMicroSeeds));
                cells.push_back(std::move(c));
              }
            }
          }
        }
      }
      break;
    case Workload::kProtocolStorm:
      for (int i = 0; i < kStormJobs; ++i) {
        Cell c;
        c.spec.workload = w;
        // Traffic fields and the host-thread budget only: mechanism fields
        // (shard_protocol, lookahead) keep their defaults.
        c.spec.storm.topo = tlbsim::Topology::EightSocket();
        c.spec.storm.backend = FlushBackendKind::kIpi;
        c.spec.storm.iterations = kStormIterations;
        c.spec.storm.sim_threads = kStormSimThreads;
        c.spec.key = "storm";
        for (int s = 1; s <= kStormSeedPool; ++s) {
          c.seeds.push_back(static_cast<uint64_t>(s));
        }
        cells.push_back(std::move(c));
      }
      break;
  }
  return cells;
}

JobSpec WithSeed(JobSpec spec, uint64_t seed) {
  spec.sysbench.seed = seed;
  spec.micro.seed = seed;
  spec.storm.seed = seed;
  spec.key += "/s" + std::to_string(seed);
  return spec;
}

}  // namespace

bool ParseWorkload(const std::string& name, Workload* out) {
  // In Workload's enumerator order.
  static const char* const kNames[] = {"sysbench_msync", "madvise_sweep", "protocol_storm"};
  for (size_t i = 0; i < std::size(kNames); ++i) {
    if (name == kNames[i]) {
      *out = static_cast<Workload>(i);
      return true;
    }
  }
  return false;
}

int SweepThreads(Workload w) { return w == Workload::kMadviseSweep ? 4 : 1; }

int HostThreads(Workload w) {
  return w == Workload::kProtocolStorm ? kStormSimThreads : SweepThreads(w);
}

std::vector<JobSpec> AllJobs(Workload w) {
  std::vector<JobSpec> jobs;
  std::vector<Cell> cells = Cells(w);
  if (w == Workload::kProtocolStorm) {
    cells.resize(1);  // every storm cell is the same traffic shape
  }
  for (const Cell& c : cells) {
    for (uint64_t seed : c.seeds) {
      jobs.push_back(WithSeed(c.spec, seed));
    }
  }
  return jobs;
}

std::vector<JobSpec> JobList(Workload w, uint64_t seed) {
  tlbsim::Rng rng(seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(w));
  std::vector<Cell> cells = Cells(w);
  std::vector<JobSpec> jobs;
  if (w == Workload::kProtocolStorm) {
    // Distinct seeds: a partial Fisher-Yates shuffle of the pool.
    std::vector<uint64_t> pool = cells.front().seeds;
    for (size_t i = 0; i < cells.size(); ++i) {
      size_t j = i + static_cast<size_t>(rng.UniformU64() % (pool.size() - i));
      std::swap(pool[i], pool[j]);
      jobs.push_back(WithSeed(cells[i].spec, pool[i]));
    }
    return jobs;
  }
  for (const Cell& c : cells) {
    jobs.push_back(WithSeed(c.spec, c.seeds[rng.UniformU64() % c.seeds.size()]));
  }
  return jobs;
}

JobOutcome RunJob(const JobSpec& spec) {
  JobOutcome out;
  out.result = Json::Object();
  try {
    switch (spec.workload) {
      case Workload::kSysbenchMsync: {
        tlbsim::SysbenchResult r = tlbsim::RunSysbench(spec.sysbench);
        out.result["writes_per_mcycle"] = r.writes_per_mcycle;
        out.result["total_cycles"] = static_cast<uint64_t>(r.total_cycles);
        out.result["shootdowns"] = r.shootdowns;
        out.result["responder_full_storm"] = r.responder_full_storm;
        out.result["skipped_gen"] = r.skipped_gen;
        out.metrics = std::move(r.metrics);
        break;
      }
      case Workload::kMadviseSweep: {
        tlbsim::MicroResult r = tlbsim::RunMadviseMicrobench(spec.micro);
        out.result["initiator_count"] = r.initiator.count();
        out.result["initiator_mean"] = r.initiator.mean();
        out.result["initiator_stddev"] = r.initiator.stddev();
        out.result["initiator_min"] = r.initiator.min();
        out.result["initiator_max"] = r.initiator.max();
        out.result["responder_cycles_per_op"] = r.responder_cycles_per_op;
        out.result["shootdowns"] = r.shootdowns;
        out.result["early_acks"] = r.early_acks;
        out.metrics = std::move(r.metrics);
        break;
      }
      case Workload::kProtocolStorm: {
        tlbsim::ProtocolStormResult r = tlbsim::RunProtocolStorm(spec.storm);
        out.result["checksum"] = r.checksum;
        out.result["end_time"] = static_cast<uint64_t>(r.end_time);
        out.result["events_processed"] = r.events_processed;
        out.metrics = std::move(r.metrics);
        break;
      }
    }
  } catch (const std::exception& e) {
    out.threw = true;
    out.error = e.what();
  } catch (...) {
    out.threw = true;
    out.error = "unknown exception";
  }
  return out;
}

bool LoadReference(const std::string& path, Reference* out, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open reference " + path;
    return false;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  std::optional<Json> doc = Json::Parse(buf.str());
  const Json* jobs = doc ? doc->Find("jobs") : nullptr;
  if (jobs == nullptr || !jobs->is_object()) {
    *error = "malformed reference " + path;
    return false;
  }
  out->clear();
  for (const auto& [key, fields] : jobs->members()) {
    (*out)[key] = fields;
  }
  return true;
}

Json ReferenceJson(const std::vector<JobSpec>& jobs, const std::vector<JobOutcome>& outcomes) {
  Json doc = Json::Object();
  Json& entries = doc["jobs"];
  entries = Json::Object();
  for (size_t i = 0; i < jobs.size(); ++i) {
    entries[jobs[i].key] = outcomes[i].result;
  }
  return doc;
}

bool MatchesReference(const JobSpec& spec, const JobOutcome& outcome, const Reference& ref,
                      std::string* why) {
  if (outcome.threw) {
    *why = spec.key + ": threw: " + outcome.error;
    return false;
  }
  auto it = ref.find(spec.key);
  if (it == ref.end()) {
    *why = spec.key + ": no reference entry";
    return false;
  }
  const Json& want = it->second;
  if (want.members().size() != outcome.result.members().size()) {
    *why = spec.key + ": result has " + std::to_string(outcome.result.members().size()) +
           " fields, reference " + std::to_string(want.members().size());
    return false;
  }
  for (const auto& [field, value] : want.members()) {
    const Json* got = outcome.result.Find(field);
    if (got == nullptr || *got != value) {
      *why = spec.key + ": " + field + " = " + (got ? got->Dump() : "missing") +
             ", reference " + value.Dump();
      return false;
    }
  }
  return true;
}

Counts ExtractCounts(const Json& metrics) {
  Counts counts;
  if (const Json* c = metrics.Find("counters")) {
    for (const auto& [name, v] : c->members()) {
      counts["counters/" + name] = v.AsDouble();
    }
  }
  if (const Json* p = metrics.Find("per_cpu")) {
    for (const auto& [name, v] : p->members()) {
      if (const Json* total = v.Find("total")) {
        counts["per_cpu/" + name] = total->AsDouble();
      }
    }
  }
  if (const Json* h = metrics.Find("histograms")) {
    for (const auto& [name, v] : h->members()) {
      for (const auto& [field, x] : v.members()) {
        if (x.is_number()) {
          counts["histograms/" + name + "/" + field] = x.AsDouble();
        }
      }
    }
  }
  return counts;
}

}  // namespace perfbench
