#include "src/hw/machine.h"

#include <algorithm>

#include "src/exec/thread_pool.h"

namespace tlbsim {

namespace {

// The shard pool this host thread released last, kept for its next sharded
// Machine. A protocol storm builds and drops one Machine per run; starting
// and joining the shard threads per Machine would make each run's time
// depend on how soon the host scheduler runs a newborn thread, and would
// lose the frames that thread pooled (FramePool is per thread) at its exit.
thread_local std::unique_ptr<ThreadPool> tl_parked_pool;

std::unique_ptr<ThreadPool, ParkSimPool> TakeSimPool(int workers) {
  if (tl_parked_pool != nullptr && tl_parked_pool->workers() == workers) {
    return std::unique_ptr<ThreadPool, ParkSimPool>(tl_parked_pool.release());
  }
  return std::unique_ptr<ThreadPool, ParkSimPool>(new ThreadPool(workers));
}

}  // namespace

void ParkSimPool::operator()(ThreadPool* pool) const {
  pool->Drain();
  tl_parked_pool.reset(pool);  // joins the threads of any pool parked before
}

Machine::Machine(const MachineConfig& config)
    : config_(config),
      metrics_(config_.topo.num_cpus()),
      coherence_(config_.topo, config_.costs.cache),
      apic_(&engine_, config_.topo, &config_.costs) {
  // The split is deferred to ActivateProtocolShards(), after the workload's
  // serial setup phase. More threads than sockets buys nothing (one host
  // thread per shard plus the coordinator), so the pool is clamped.
  if (config_.shard_protocol && config_.topo.sockets > 1) {
    if (config_.sim_threads > 1) {
      int threads = std::min(config_.sim_threads, config_.topo.sockets);
      sim_pool_ = TakeSimPool(threads - 1);
      sim_executor_ = std::make_unique<EngineExecutor>(*sim_pool_);
    }
    pending_plan_.shards = config_.topo.sockets;
    pending_plan_.shard_of_cpu.resize(static_cast<size_t>(config_.topo.num_cpus()));
    for (int i = 0; i < config_.topo.num_cpus(); ++i) {
      pending_plan_.shard_of_cpu[static_cast<size_t>(i)] = config_.topo.SocketOf(i);
    }
    pending_plan_.executor = sim_executor_.get();
    protocol_pending_ = true;
  }
  apic_.set_metrics(&metrics_);
  Rng root(config_.seed);
  std::vector<SimCpu*> raw;
  raw.reserve(static_cast<size_t>(config_.topo.num_cpus()));
  for (int i = 0; i < config_.topo.num_cpus(); ++i) {
    // CPUs learn their memory node only on NUMA machines; -1 keeps every
    // remote-access charge (and NUMA metric) off on the flat default.
    int node = config_.numa.enabled()
                   ? config_.topo.NodeOfCpu(i) % config_.numa.nodes
                   : -1;
    cpus_.push_back(std::make_unique<SimCpu>(i, &engine_, &coherence_, &config_.costs, root.Fork(),
                                             &trace_, &metrics_, node));
    raw.push_back(cpus_.back().get());
  }
  apic_.set_cpus(std::move(raw));
}

Machine::~Machine() = default;

void Machine::ActivateProtocolShards() {
  if (!protocol_pending_ || protocol_active_) {
    return;
  }
  // The engine asserts quiescence (empty heap) itself; the serial setup
  // phase's clock carries over into every shard.
  engine_.ConfigureSharding(std::move(pending_plan_));
  int cps = config_.topo.cpus_per_socket();
  coherence_.ConfigureBanks(config_.topo.sockets, cps);
  apic_.ConfigureBanks(config_.topo.sockets, cps);
  protocol_active_ = true;
  protocol_pending_ = false;
}

}  // namespace tlbsim
