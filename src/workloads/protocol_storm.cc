#include "src/workloads/protocol_storm.h"

#include <algorithm>
#include <cassert>
#include <vector>

#include "src/core/snapshot.h"
#include "src/mm/pte.h"

namespace tlbsim {
namespace {

// Per-cpu storm state: only the owning cpu's program touches a lane, so the
// commutative checksum is race-free and order-independent across shards.
struct Lane {
  uint64_t base = 0;  // this cpu's page slice within its process's mapping
  uint64_t iters = 0;
  uint64_t checksum = 0;
};

// splitmix64-style finalizer: commutative-sum
// ingredients must be well mixed or colliding pairs cancel structurally.
uint64_t Mix(uint64_t cpu, uint64_t t, uint64_t kind) {
  uint64_t x = cpu * 0x9E3779B97F4A7C15ULL ^ (t + kind * 0xBF58476D1CE4E5B9ULL);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

// Setup, phase 1 (serial): the socket's first participating thread maps one
// region for the whole process; each participating cpu's slice base lands
// in its lane.
SimTask MapProgram(System& sys, Thread& t, std::vector<Lane>* lanes,
                   const std::vector<int>* cpus, uint64_t slice_bytes) {
  Kernel& k = sys.kernel();
  uint64_t base = co_await k.SysMmap(t, static_cast<uint64_t>(cpus->size()) * slice_bytes,
                                     /*writable=*/true, /*shared=*/false);
  for (size_t i = 0; i < cpus->size(); ++i) {
    (*lanes)[static_cast<size_t>((*cpus)[i])].base = base + static_cast<uint64_t>(i) * slice_bytes;
  }
}

// Setup, phase 2 (serial): every thread pre-faults its own slice so the
// measured phase never allocates frames (FrameAllocator is not banked).
SimTask FaultProgram(System& sys, Thread& t, const Lane* lane, int pages) {
  Kernel& k = sys.kernel();
  for (int i = 0; i < pages; ++i) {
    co_await k.UserAccess(t, lane->base + static_cast<uint64_t>(i) * kPageSize4K,
                          /*write=*/true);
  }
}

// Measured phase (sharded): pure protocol pressure. Both mprotects flush
// the slice on every CPU of the socket (the mm's cpumask); the reads in
// between exercise the TLB fast path on just-refilled translations.
SimTask StormProgram(System& sys, Thread& t, Lane* lane, const ProtocolStormConfig* cfg) {
  Kernel& k = sys.kernel();
  SimCpu& cpu = sys.machine().cpu(t.cpu);
  uint64_t bytes = static_cast<uint64_t>(cfg->pages_per_cpu) * kPageSize4K;
  for (int it = 0; it < cfg->iterations; ++it) {
    co_await k.SysMprotect(t, lane->base, bytes, /*writable=*/false);
    for (int i = 0; i < cfg->pages_per_cpu; ++i) {
      co_await k.UserAccess(t, lane->base + static_cast<uint64_t>(i) * kPageSize4K,
                            /*write=*/false);
    }
    co_await k.SysMprotect(t, lane->base, bytes, /*writable=*/true);
    ++lane->iters;
    lane->checksum += Mix(static_cast<uint64_t>(t.cpu), static_cast<uint64_t>(cpu.now()),
                          static_cast<uint64_t>(it));
  }
}

}  // namespace

ProtocolStormResult RunProtocolStorm(const ProtocolStormConfig& cfg,
                                     std::unique_ptr<System>* keep_system) {
  assert(cfg.topo.sockets >= 2 && "a one-socket storm has nothing to shard");

  SystemConfig sys_cfg;
  sys_cfg.machine.topo = cfg.topo;
  sys_cfg.machine.seed = cfg.seed;
  sys_cfg.machine.sim_threads = cfg.sim_threads;
  sys_cfg.machine.shard_protocol = cfg.shard_protocol;
  sys_cfg.backend = cfg.backend;
  auto owned = std::make_unique<System>(sys_cfg);
  System& sys = *owned;
  Kernel& k = sys.kernel();
  Engine& eng = sys.machine().engine();

  int sockets = cfg.topo.sockets;
  int cps = cfg.topo.cpus_per_socket();
  uint64_t slice_bytes = static_cast<uint64_t>(cfg.pages_per_cpu) * kPageSize4K;
  std::vector<Lane> lanes(static_cast<size_t>(cfg.topo.num_cpus()));

  // Participating cpus per socket (all by default; the property test feeds
  // random subsets — the shootdown target masks).
  std::vector<std::vector<int>> active(static_cast<size_t>(sockets));
  if (cfg.active_cpus.empty()) {
    for (int c = 0; c < cfg.topo.num_cpus(); ++c) {
      active[static_cast<size_t>(c / cps)].push_back(c);
    }
  } else {
    for (int c : cfg.active_cpus) {
      assert(c >= 0 && c < cfg.topo.num_cpus());
      active[static_cast<size_t>(c / cps)].push_back(c);
    }
  }

  // One process per socket, one thread per participating cpu: each mm's
  // cpumask covers (a subset of) exactly one socket, so every shootdown the
  // storm fires is confined.
  std::vector<std::vector<Thread*>> threads(static_cast<size_t>(sockets));
  for (int s = 0; s < sockets; ++s) {
    if (active[static_cast<size_t>(s)].empty()) {
      continue;
    }
    Process* p = k.CreateProcess();
    for (int c : active[static_cast<size_t>(s)]) {
      threads[static_cast<size_t>(s)].push_back(k.CreateThread(p, c));
    }
  }

  // Serial setup: map (engine run 1), then pre-fault (engine run 2). Two
  // runs keep the base-address handoff trivially ordered.
  for (int s = 0; s < sockets; ++s) {
    if (threads[static_cast<size_t>(s)].empty()) {
      continue;
    }
    Thread* t0 = threads[static_cast<size_t>(s)][0];
    sys.machine().cpu(t0->cpu).Spawn(
        MapProgram(sys, *t0, &lanes, &active[static_cast<size_t>(s)], slice_bytes));
  }
  eng.Run();
  for (int s = 0; s < sockets; ++s) {
    for (Thread* t : threads[static_cast<size_t>(s)]) {
      sys.machine().cpu(t->cpu).Spawn(
          FaultProgram(sys, *t, &lanes[static_cast<size_t>(t->cpu)], cfg.pages_per_cpu));
    }
  }
  eng.Run();

  // The engine is quiescent here; split it and bank the protocol state.
  sys.ActivateProtocolShards();
  sys.SetRequireConfined(true);

  // Measured phase: the storm proper, on the shards (serial when
  // shard_protocol is off — the same workload either way).
  for (int s = 0; s < sockets; ++s) {
    for (Thread* t : threads[static_cast<size_t>(s)]) {
      sys.machine().cpu(t->cpu).Spawn(
          StormProgram(sys, *t, &lanes[static_cast<size_t>(t->cpu)], &cfg));
    }
  }

  ProtocolStormResult r;
  r.end_time = eng.Run();
  for (const Lane& lane : lanes) {
    r.iterations_done += lane.iters;
    r.checksum += lane.checksum;
  }
  r.events_processed = eng.events_processed();
  r.par = eng.parallel_stats();
  if (sys.queue() != nullptr) {
    r.shootdowns = sys.queue()->stats().shootdowns;
  } else {
    r.shootdowns = sys.shootdown().stats().shootdowns;
  }
  r.flush_requests = k.stats().flush_requests;
  for (int c = 0; c < cfg.topo.num_cpus(); ++c) {
    const auto& cfds = k.percpu(c).cfds();
    size_t built = static_cast<size_t>(
        std::count_if(cfds.begin(), cfds.end(), [](const auto& cfd) { return cfd != nullptr; }));
    r.max_cfds_per_cpu = std::max(r.max_cfds_per_cpu, built);
  }
  r.metrics = SystemMetricsJson(sys);
  if (keep_system != nullptr) {
    *keep_system = std::move(owned);
  }
  return r;
}

}  // namespace tlbsim
