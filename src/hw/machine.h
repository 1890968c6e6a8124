// Machine: aggregates the hardware substrate — engine, coherence model,
// per-CPU SimCpus, and the APIC — configured from one MachineConfig.
#ifndef TLBSIM_SRC_HW_MACHINE_H_
#define TLBSIM_SRC_HW_MACHINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/cache/coherence.h"
#include "src/cache/topology.h"
#include "src/hw/apic.h"
#include "src/hw/cost_model.h"
#include "src/hw/cpu.h"
#include "src/mm/numa.h"
#include "src/sim/engine.h"
#include "src/sim/metrics.h"
#include "src/sim/rng.h"
#include "src/sim/trace.h"

namespace tlbsim {

class ThreadPool;       // src/exec/thread_pool.h; owned here for protocol shards
class EngineExecutor;   // adapter handing the pool to the engine

// Deleter of a Machine's shard pool: parks the pool for the next sharded
// Machine built on the releasing host thread instead of joining its
// threads (see machine.cc).
struct ParkSimPool {
  void operator()(ThreadPool* pool) const;
};

struct MachineConfig {
  Topology topo;           // default: 2 sockets x 14 cores x 2 SMT
  CostModel costs;
  TlbGeometry tlb_geo;
  // NUMA memory model; default is flat (nodes == 1), which reproduces the
  // pre-NUMA timings exactly. Experiments set numa.nodes = topo.sockets.
  NumaConfig numa;
  uint64_t seed = 1;
  // Protocol sharding: run the shootdown protocol itself — kernel paths,
  // coherence directory, APIC delivery, backend state — on per-socket shards
  // instead of the serial queue. Setup is two-phase: the Machine constructor
  // only *prepares* the shard plan (processes are created and pre-faulted on
  // the unsharded serial engine), then the workload calls
  // System::ActivateProtocolShards() / Machine::ActivateProtocolShards() on
  // the quiescent engine to split the heap and bank every protocol-state
  // object per socket. Shards are closed (src/sim/engine.h): the workload
  // must keep every shootdown on one socket, as the protocol storm does.
  // Meaningful on multi-socket topologies only; off (default) keeps the
  // single-heap engine, bit-identical to every pre-sharding report.
  bool shard_protocol = false;
  // Host threads running the protocol shards (clamped to sockets). Only
  // read when shard_protocol is on: 1 (default) runs every shard inline on
  // the calling thread, which is how the equality harness replays
  // a sharded run deterministically.
  int sim_threads = 1;
};

class Machine {
 public:
  explicit Machine(const MachineConfig& config = MachineConfig{});
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;
  ~Machine();  // out of line: sim_pool_ is incomplete here

  Engine& engine() { return engine_; }
  CoherenceModel& coherence() { return coherence_; }
  Apic& apic() { return apic_; }
  Trace& trace() { return trace_; }
  // The simulation-wide observability registry: live protocol metrics land
  // here as the run executes; CollectMachineMetrics() (src/core/snapshot.h)
  // adds snapshot gauges of every layer's Stats struct.
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  const Topology& topo() const { return config_.topo; }
  const CostModel& costs() const { return config_.costs; }
  const MachineConfig& config() const { return config_; }

  int num_cpus() const { return static_cast<int>(cpus_.size()); }
  SimCpu& cpu(int id) { return *cpus_.at(static_cast<size_t>(id)); }

  // Protocol sharding, phase 2 (see MachineConfig::shard_protocol): splits
  // the quiescent engine into per-socket shards and banks the machine-owned
  // protocol state (coherence directory, APIC counters). Kernel/backend banks are the kernel layer's to
  // configure — System::ActivateProtocolShards() does both. No-op unless the
  // config asked for protocol sharding; idempotent.
  void ActivateProtocolShards();
  bool protocol_shards_active() const { return protocol_active_; }
  // Banks protocol-shard mode will use (== sockets), 1 when not configured.
  int protocol_banks() const {
    return (protocol_pending_ || protocol_active_) ? config_.topo.sockets : 1;
  }

 private:
  MachineConfig config_;
  // Host threads backing the protocol shards (shard_protocol with
  // sim_threads > 1 on a multi-socket topology only); declared before
  // engine_ so the executor outlives every phase the engine could still
  // reference.
  std::unique_ptr<ThreadPool, ParkSimPool> sim_pool_;
  std::unique_ptr<EngineExecutor> sim_executor_;
  Engine engine_;
  Trace trace_;
  MetricsRegistry metrics_;  // before coherence/apic/cpus: they hold handles
  CoherenceModel coherence_;
  Apic apic_;
  std::vector<std::unique_ptr<SimCpu>> cpus_;
  // Deferred shard plan for protocol mode (built in the constructor, applied
  // by ActivateProtocolShards once setup is done).
  Engine::ShardPlan pending_plan_;
  bool protocol_pending_ = false;
  bool protocol_active_ = false;
};

}  // namespace tlbsim

#endif  // TLBSIM_SRC_HW_MACHINE_H_
