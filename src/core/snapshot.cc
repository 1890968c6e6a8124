#include "src/core/snapshot.h"

namespace tlbsim {

namespace {

void SetTlbStats(MetricsRegistry& m, const char* prefix, int cpu, const Tlb::Stats& s) {
  std::string p(prefix);
  m.percpu(p + ".lookups").Set(cpu, s.lookups);
  m.percpu(p + ".hits").Set(cpu, s.hits);
  m.percpu(p + ".misses").Set(cpu, s.misses);
  m.percpu(p + ".inserts").Set(cpu, s.inserts);
  m.percpu(p + ".evictions").Set(cpu, s.evictions);
  m.percpu(p + ".cross_pcid_evictions").Set(cpu, s.cross_pcid_evictions);
  m.percpu(p + ".selective_flushes").Set(cpu, s.selective_flushes);
  m.percpu(p + ".full_flushes").Set(cpu, s.full_flushes);
  m.percpu(p + ".fracture_forced_full").Set(cpu, s.fracture_forced_full);
  m.percpu(p + ".fastpath_hits").Set(cpu, s.fastpath_hits);
}

}  // namespace

void CollectMachineMetrics(Machine& machine) {
  MetricsRegistry& m = machine.metrics();
  for (int i = 0; i < machine.num_cpus(); ++i) {
    SimCpu& cpu = machine.cpu(i);
    SetTlbStats(m, "tlb", i, cpu.tlb().stats());
    SetTlbStats(m, "itlb", i, cpu.itlb().stats());
    const PageWalkCache::Stats& pwc = cpu.pwc().stats();
    m.percpu("pwc.lookups").Set(i, pwc.lookups);
    m.percpu("pwc.hits").Set(i, pwc.hits);
    m.percpu("pwc.full_flushes").Set(i, pwc.full_flushes);
    const SimCpu::Stats& cs = cpu.stats();
    m.percpu("cpu.irqs_handled").Set(i, cs.irqs_handled);
    m.percpu("cpu.nmis_handled").Set(i, cs.nmis_handled);
    m.percpu("cpu.ipis_received").Set(i, cs.ipis_received);
    m.percpu("cpu.cycles_in_irq").Set(i, static_cast<uint64_t>(cs.cycles_in_irq));
  }
  const CoherenceModel::GlobalStats& co = machine.coherence().global_stats();
  m.counter("coherence.accesses").Set(co.accesses);
  m.counter("coherence.hits").Set(co.hits);
  m.counter("coherence.transfers").Set(co.transfers);
  m.counter("coherence.cross_socket_transfers").Set(co.cross_socket_transfers);
  m.counter("coherence.invalidations").Set(co.invalidations);
  m.counter("coherence.memory_fills").Set(co.memory_fills);
  const Apic::Stats& ap = machine.apic().stats();
  m.counter("apic.ipis_sent").Set(ap.ipis_sent);
  m.counter("apic.icr_writes").Set(ap.icr_writes);
  m.counter("apic.multicast_messages").Set(ap.multicast_messages);
  m.counter("engine.events_processed").Set(machine.engine().events_processed());
  m.counter("engine.virtual_cycles").Set(static_cast<uint64_t>(machine.engine().now()));
  const Engine::ParallelStats par = machine.engine().parallel_stats();
  if (par.windows > 0) {
    // Sharded-engine gauges, only once a parallel phase actually ran.
    // Guarded: no figure bench shards its engine, so it never enters a
    // phase and its report stays byte-identical with the serial engine's.
    m.counter("engine.windows").Set(par.windows);
    m.counter("engine.shard_windows").Set(par.shard_windows);
    m.counter("engine.parallel_events").Set(par.parallel_events);
  }
  if (machine.protocol_shards_active()) {
    // Protocol-shard gauges (MachineConfig::shard_protocol). Guarded like the
    // phase gauges above: unsharded reports never see these names.
    m.counter("engine.protocol_shard_banks").Set(
        static_cast<uint64_t>(machine.topo().sockets));
    m.counter("engine.protocol_shard_events").Set(par.parallel_events);
  }
  if (machine.config().numa.enabled()) {
    // Gauge view of the live per-CPU NUMA counters, so bench gates can probe
    // them under "counters" by dotted name. Guarded: registering these on a
    // flat machine would serialize them and break report byte-identity.
    m.counter("numa.remote_walks").Set(m.percpu("numa.remote_walks").total());
    m.counter("numa.remote_walk_cycles").Set(m.percpu("numa.remote_walk_cycles").total());
    m.counter("numa.remote_dram_accesses").Set(m.percpu("numa.remote_dram_accesses").total());
  }
}

void CollectKernelMetrics(Kernel& kernel) {
  MetricsRegistry& m = kernel.machine().metrics();
  const Kernel::Stats& s = kernel.stats();
  m.counter("kernel.syscalls").Set(s.syscalls);
  m.counter("kernel.page_faults").Set(s.page_faults);
  m.counter("kernel.cow_faults").Set(s.cow_faults);
  m.counter("kernel.demand_faults").Set(s.demand_faults);
  m.counter("kernel.flush_requests").Set(s.flush_requests);
  m.counter("kernel.context_switches").Set(s.context_switches);
  m.counter("kernel.lazy_entries").Set(s.lazy_entries);
  m.counter("kernel.compat_iret_full_flushes").Set(s.compat_iret_full_flushes);
  if (kernel.config().opts.reuse_elision) {
    // Optimization #7 counters. Guarded like the numa/protocol-shard gauges:
    // a report produced with the flag off must never see these names, so the
    // existing figure/table documents stay byte-identical.
    m.counter("kernel.reuse_elided_flushes").Set(s.reuse_elided_flushes);
    m.counter("kernel.reuse_elided_pages").Set(s.reuse_elided_pages);
    m.counter("kernel.reuse_benign_closes").Set(s.reuse_benign_closes);
    m.counter("kernel.reuse_forced_flushes").Set(s.reuse_forced_flushes);
    m.counter("kernel.reuse_evictions").Set(s.reuse_evictions);
    m.counter("kernel.reuse_frame_handoffs").Set(s.reuse_frame_handoffs);
  }
}

void CollectShootdownMetrics(const ShootdownEngine& engine, MetricsRegistry& m) {
  const ShootdownEngine::Stats& s = engine.stats();
  m.counter("shootdown.flush_requests").Set(s.flush_requests);
  m.counter("shootdown.shootdowns").Set(s.shootdowns);
  m.counter("shootdown.local_only").Set(s.local_only);
  m.counter("shootdown.full_local_flushes").Set(s.full_local_flushes);
  m.counter("shootdown.invlpg_issued").Set(s.invlpg_issued);
  m.counter("shootdown.invpcid_issued").Set(s.invpcid_issued);
  m.counter("shootdown.early_acks").Set(s.early_acks);
  m.counter("shootdown.late_acks").Set(s.late_acks);
  m.counter("shootdown.deferred_selective").Set(s.deferred_selective);
  m.counter("shootdown.in_context_invlpg").Set(s.in_context_invlpg);
  m.counter("shootdown.in_context_full").Set(s.in_context_full);
  m.counter("shootdown.eager_user_during_wait").Set(s.eager_user_during_wait);
  m.counter("shootdown.batched_absorbed").Set(s.batched_absorbed);
  m.counter("shootdown.batch_shootdowns").Set(s.batch_shootdowns);
  m.counter("shootdown.batched_ipi_skipped").Set(s.batched_ipi_skipped);
  m.counter("shootdown.batch_barrier_flushes").Set(s.batch_barrier_flushes);
  m.counter("shootdown.responder_skipped_gen").Set(s.responder_skipped_gen);
  m.counter("shootdown.responder_selective").Set(s.responder_selective);
  m.counter("shootdown.responder_full").Set(s.responder_full);
  m.counter("shootdown.responder_full_storm").Set(s.responder_full_storm);
  m.counter("shootdown.cow_flush_avoided").Set(s.cow_flush_avoided);
  m.counter("shootdown.cow_flushes").Set(s.cow_flushes);
  m.counter("shootdown.lazy_skipped").Set(s.lazy_skipped);
  m.counter("shootdown.switch_in_flushes").Set(s.switch_in_flushes);
}

void CollectQueueMetrics(const QueueFlushBackend& backend, MetricsRegistry& m) {
  const QueueFlushBackend::Stats& s = backend.stats();
  m.counter("queue.flush_requests").Set(s.flush_requests);
  m.counter("queue.shootdowns").Set(s.shootdowns);
  m.counter("queue.local_only").Set(s.local_only);
  m.counter("queue.full_requests").Set(s.full_requests);
  m.counter("queue.enqueued").Set(s.enqueued);
  m.counter("queue.max_ring_occupancy").Set(s.max_ring_occupancy);
  m.counter("queue.ring_overflows").Set(s.ring_overflows);
  m.counter("queue.flush_all_fallbacks").Set(s.flush_all_fallbacks);
  m.counter("queue.ipi_sends").Set(s.ipi_sends);
  m.counter("queue.ipi_coalesced").Set(s.ipi_coalesced);
  m.counter("queue.ipi_resends").Set(s.ipi_resends);
  m.counter("queue.acks").Set(s.acks);
  m.counter("queue.ack_timeouts").Set(s.ack_timeouts);
  m.counter("queue.spin_polls").Set(s.spin_polls);
  m.counter("queue.spin_cycles").Set(s.spin_cycles);
  m.counter("queue.drains").Set(s.drains);
  m.counter("queue.drained_entries").Set(s.drained_entries);
  m.counter("queue.drain_skipped_mm").Set(s.drain_skipped_mm);
  m.counter("queue.drain_skipped_gen").Set(s.drain_skipped_gen);
  m.counter("queue.drain_flush_all").Set(s.drain_flush_all);
  m.counter("queue.drain_full").Set(s.drain_full);
  m.counter("queue.drain_full_storm").Set(s.drain_full_storm);
  m.counter("queue.full_local_flushes").Set(s.full_local_flushes);
  m.counter("queue.invlpg_issued").Set(s.invlpg_issued);
  m.counter("queue.invpcid_issued").Set(s.invpcid_issued);
  m.counter("queue.lazy_skipped").Set(s.lazy_skipped);
  m.counter("queue.switch_in_flushes").Set(s.switch_in_flushes);
  m.counter("queue.cow_flush_avoided").Set(s.cow_flush_avoided);
  m.counter("queue.cow_flushes").Set(s.cow_flushes);
}

MetricsRegistry& CollectSystemMetrics(System& system) {
  CollectMachineMetrics(system.machine());
  CollectKernelMetrics(system.kernel());
  CollectShootdownMetrics(system.shootdown(), system.machine().metrics());
  if (system.queue() != nullptr) {
    CollectQueueMetrics(*system.queue(), system.machine().metrics());
  }
  return system.machine().metrics();
}

Json SystemMetricsJson(System& system) { return CollectSystemMetrics(system).ToJson(); }

}  // namespace tlbsim
