#include "src/core/queue_backend.h"

#include <algorithm>
#include <cassert>

#include "src/kernel/protocol_check.h"

namespace tlbsim {

// tlblint: setup — single-threaded construction
QueueFlushBackend::QueueFlushBackend(Kernel* kernel) : kernel_(kernel) {
  Machine& machine = kernel_->machine();
  CoherenceModel& coherence = machine.coherence();
  gen_lines_.push_back(coherence.AllocateLine("queue.next_tlb_gen"));
  size_t cap = static_cast<size_t>(std::max(1, machine.costs().queue_ring_entries));
  for (int c = 0; c < machine.num_cpus(); ++c) {
    auto q = std::make_unique<CpuQueue>();
    q->ring.resize(cap);
    q->ring_line = coherence.AllocateLine("cpu", static_cast<uint64_t>(c), ".tlb_queue");
    q->ctl_line = coherence.AllocateLine("cpu", static_cast<uint64_t>(c), ".tlb_queue_ctl");
    queues_.push_back(std::move(q));
  }
  kernel_->SetFlushBackend(this);
  MetricsRegistry& m = machine.metrics();
  h_ring_occupancy_ = &m.histogram("queue.ring_occupancy");
  h_ack_wait_cycles_ = &m.histogram("queue.ack_wait_cycles");
  h_drain_cycles_ = &m.histogram("queue.drain_cycles");
  c_initiated_ = &m.percpu("queue.initiated");
  c_drains_ = &m.percpu("queue.drains");
}

// tlblint: setup — single-threaded Machine construction
void QueueFlushBackend::ConfigureBanks(int banks, int cpus_per_bank) {
  if (banks < 1) banks = 1;
  if (cpus_per_bank < 1) cpus_per_bank = 1;
  // Per-socket ticket streams continue from the current global value so a
  // responder's pre-split ack_gen never trivially satisfies a post-split
  // ticket (the ordering-isomorphism argument in the header needs this).
  ticket_seed_ = ticket_banks_[0];
  ticket_banks_.assign(static_cast<size_t>(banks), ticket_seed_);
  banks_.resize(static_cast<size_t>(banks));
  cpus_per_bank_ = cpus_per_bank;
  CoherenceModel& coherence = kernel_->machine().coherence();
  while (gen_lines_.size() < static_cast<size_t>(banks)) {
    gen_lines_.push_back(coherence.AllocateLine(
        "queue.next_tlb_gen.socket" + std::to_string(gen_lines_.size())));
  }
  hb_ring_occupancy_.clear();
  hb_ack_wait_cycles_.clear();
  hb_drain_cycles_.clear();
  if (banks > 1) {
    MetricsRegistry& m = kernel_->machine().metrics();
    for (int b = 0; b < banks; ++b) {
      std::string sfx = ".socket" + std::to_string(b);
      hb_ring_occupancy_.push_back(&m.histogram("queue.ring_occupancy" + sfx));
      hb_ack_wait_cycles_.push_back(&m.histogram("queue.ack_wait_cycles" + sfx));
      hb_drain_cycles_.push_back(&m.histogram("queue.drain_cycles" + sfx));
    }
  }
}

// tlblint: setup — aggregation between runs, engine quiescent
QueueFlushBackend::Stats QueueFlushBackend::stats() const {
  Stats sum;
  for (const Stats& b : banks_) {
    sum.flush_requests += b.flush_requests;
    sum.shootdowns += b.shootdowns;
    sum.local_only += b.local_only;
    sum.full_requests += b.full_requests;
    sum.enqueued += b.enqueued;
    sum.max_ring_occupancy = std::max(sum.max_ring_occupancy, b.max_ring_occupancy);
    sum.ring_overflows += b.ring_overflows;
    sum.flush_all_fallbacks += b.flush_all_fallbacks;
    sum.ipi_sends += b.ipi_sends;
    sum.ipi_coalesced += b.ipi_coalesced;
    sum.ipi_resends += b.ipi_resends;
    sum.acks += b.acks;
    sum.ack_timeouts += b.ack_timeouts;
    sum.spin_polls += b.spin_polls;
    sum.spin_cycles += b.spin_cycles;
    sum.drains += b.drains;
    sum.drained_entries += b.drained_entries;
    sum.drain_skipped_mm += b.drain_skipped_mm;
    sum.drain_skipped_gen += b.drain_skipped_gen;
    sum.drain_flush_all += b.drain_flush_all;
    sum.drain_full += b.drain_full;
    sum.drain_full_storm += b.drain_full_storm;
    sum.full_local_flushes += b.full_local_flushes;
    sum.invlpg_issued += b.invlpg_issued;
    sum.invpcid_issued += b.invpcid_issued;
    sum.lazy_skipped += b.lazy_skipped;
    sum.switch_in_flushes += b.switch_in_flushes;
    sum.cow_flush_avoided += b.cow_flush_avoided;
    sum.cow_flushes += b.cow_flushes;
  }
  return sum;
}

uint64_t QueueFlushBackend::RingOccupancy(int cpu) const {
  const CpuQueue& q = *queues_[static_cast<size_t>(cpu)];
  return q.head - q.tail;
}

std::vector<int> QueueFlushBackend::ComputeTargets(SimCpu& cpu, MmStruct& mm) {
  std::vector<int> targets;
  // Set-bit walk over the per-socket mask words (see ShootdownEngine).
  mm.cpumask.ForEachSet([&](int t) {
    if (t == cpu.id()) {
      return;
    }
    PerCpu& pc = kernel_->percpu(t);
    cpu.AccessLine(pc.tlbstate_line, AccessType::kRead);
    if (pc.is_lazy) {
      ++StatsFor(cpu).lazy_skipped;  // OnSwitchIn catches the CPU up when it returns
      return;
    }
    targets.push_back(t);
  });
  return targets;
}

Co<void> QueueFlushBackend::LocalFlush(SimCpu& cpu, MmStruct& mm, const FlushTlbInfo& info) {
  PerCpu& pc = kernel_->percpu(cpu.id());
  uint64_t local_gen = pc.loaded_mm_tlb_gen;
  if (info.new_tlb_gen <= local_gen) {
    co_return;  // a prior full flush already covered this generation
  }
  bool wants_full = info.IsFull() || info.PageCount() > threshold();
  bool full_applied = false;
  if (!wants_full && local_gen == info.new_tlb_gen - 1) {
    // Selective, both address spaces eagerly (this backend has no in-context
    // deferral — asynchrony is its whole optimization budget).
    uint64_t stride = 1ULL << info.stride_shift;
    uint64_t pages = info.PageCount();
    for (uint64_t va = info.start; va < info.end; va += stride) {
      cpu.ArchInvlPg(mm.kernel_pcid, va);
      if (pti()) {
        cpu.ArchInvPcidAddr(mm.user_pcid, va);
      }
    }
    StatsFor(cpu).invlpg_issued += pages;
    Cycles per_page = costs().invlpg;
    if (pti()) {
      StatsFor(cpu).invpcid_issued += pages;
      per_page += costs().invpcid_addr;
    }
    co_await cpu.Execute(static_cast<Cycles>(pages) * per_page);
    local_gen = info.new_tlb_gen;
  } else {
    ++StatsFor(cpu).full_local_flushes;
    full_applied = true;
    cpu.ArchFlushPcid(mm.kernel_pcid);
    Cycles cost = costs().cr3_write_flush;
    if (pti()) {
      cpu.ArchFlushPcid(mm.user_pcid);
      cost += costs().invpcid_single_ctx;
    }
    co_await cpu.Execute(cost);
    cpu.AccessLine(mm.gen_line, AccessType::kRead);
    local_gen = std::max(local_gen, mm.tlb_gen);
  }
  // A drain IRQ can preempt the Execute suspensions above and push the CPU
  // past local_gen; an unconditional store here would downgrade it and strand
  // the CPU behind a shootdown another initiator already completed.
  if (local_gen > pc.loaded_mm_tlb_gen) {
    pc.loaded_mm_tlb_gen = local_gen;
    cpu.AccessLine(pc.tlbstate_line, AccessType::kWrite);
    if (ProtocolCheckSink* c = chk()) {
      c->OnLocalGenApplied(cpu, mm, local_gen, full_applied, /*user_covered=*/true);
    }
  }
}

// tlblint: shard-local — runs on the initiating cpu's timeline
void QueueFlushBackend::EnqueueForTarget(SimCpu& cpu, MmStruct& mm, int target,
                                         const FlushTlbInfo& info, uint64_t queue_gen,
                                         bool wants_full) {
  CpuQueue& q = *queues_[static_cast<size_t>(target)];
  uint64_t cap = q.ring.size();
  if (wants_full) {
    // Wide flushes never enumerate pages: one flag store covers everything.
    ++StatsFor(cpu).full_requests;
    cpu.AccessLine(q.ctl_line, AccessType::kAtomicRmw);
    cpu.AdvanceInline(costs().queue_enqueue);
    q.flush_all = true;
    q.flush_all_queue_gen = std::max(q.flush_all_queue_gen, queue_gen);
    return;
  }
  uint64_t stride = 1ULL << info.stride_shift;
  for (uint64_t va = info.start; va < info.end; va += stride) {
    if (q.head - q.tail >= cap) {
      // Ring full: the remaining pages cannot be enumerated. The design's
      // safety valve converts them into a flush_all on the responder.
      ++StatsFor(cpu).ring_overflows;
      bool fallback = !inject_.ring_overflow_no_fallback;
      if (fallback) {
        ++StatsFor(cpu).flush_all_fallbacks;
        cpu.AccessLine(q.ctl_line, AccessType::kAtomicRmw);
        q.flush_all = true;
        q.flush_all_queue_gen = std::max(q.flush_all_queue_gen, queue_gen);
      }
      if (ProtocolCheckSink* c = chk()) {
        c->OnQueueOverflow(cpu, mm, target, queue_gen, fallback);
      }
      break;
    }
    // fetch_add on the head reserves the slot; the store fills it.
    cpu.AccessLine(q.ctl_line, AccessType::kAtomicRmw);
    cpu.AccessLine(q.ring_line, AccessType::kWrite);
    cpu.AdvanceInline(costs().queue_enqueue);
    Entry& e = q.ring[q.head % cap];
    e.mm = &mm;
    e.va = va;
    e.stride_shift = info.stride_shift;
    e.mm_gen = info.new_tlb_gen;
    e.queue_gen = queue_gen;
    ++q.head;
    ++StatsFor(cpu).enqueued;
  }
  uint64_t occupancy = q.head - q.tail;
  StatsFor(cpu).max_ring_occupancy = std::max(StatsFor(cpu).max_ring_occupancy, occupancy);
  HistFor(hb_ring_occupancy_, h_ring_occupancy_, cpu.id())->Record(static_cast<double>(occupancy));
}

bool QueueFlushBackend::AllAcked(SimCpu& cpu, const std::vector<int>& targets,
                                 uint64_t queue_gen) {
  for (int t : targets) {
    CpuQueue& q = *queues_[static_cast<size_t>(t)];
    cpu.AccessLine(q.ctl_line, AccessType::kRead);
    if (q.ack_gen < queue_gen) {
      return false;
    }
  }
  return true;
}

// tlblint: shard-local — runs on the initiating cpu's timeline
Co<void> QueueFlushBackend::FlushRange(SimCpu& cpu, MmStruct& mm, uint64_t start, uint64_t end,
                                       int stride_shift, bool freed_tables) {
  // Socket-confinement contract (protocol-shard storms): see ShootdownEngine.
  assert(!check_confined_ ||
         mm.cpumask.OnlySocket() ==
             cpu.id() / kernel_->machine().topo().cpus_per_socket());
  ++StatsFor(cpu).flush_requests;
  c_initiated_->Inc(cpu.id());

  // Bump the address-space generation (mm->context.tlb_gen), same contract as
  // the IPI protocol: the generation promises the pre-threshold range.
  cpu.AccessLine(mm.gen_line, AccessType::kAtomicRmw);
  if (inject_.gen_bump_decrement && mm.tlb_gen > 1) {
    --mm.tlb_gen;
  } else {
    ++mm.tlb_gen;
  }

  FlushTlbInfo info;
  info.mm = &mm;
  info.start = start;
  info.end = end;
  info.stride_shift = stride_shift;
  info.freed_tables = freed_tables;
  info.new_tlb_gen = mm.tlb_gen;
  if (ProtocolCheckSink* c = chk()) {
    c->OnTlbGenBump(cpu, mm, info.new_tlb_gen, start, end);
  }
  bool wants_full = info.PageCount() > threshold();
  if (wants_full) {
    info.start = 0;
    info.end = kFlushAll;
  }

  cpu.TracePhase("queue initiator: flush dispatch");
  co_await cpu.Execute(cpu.rng().Jitter(costs().flush_dispatch, costs().jitter_frac));

  // Local TLB first; remote work proceeds asynchronously from here on.
  co_await LocalFlush(cpu, mm, info);

  std::vector<int> targets = ComputeTargets(cpu, mm);
  if (targets.empty()) {
    ++StatsFor(cpu).local_only;
    if (ProtocolCheckSink* c = chk()) {
      c->OnShootdownComplete(cpu, mm, info.new_tlb_gen, {});
    }
    co_return;
  }
  ++StatsFor(cpu).shootdowns;

  // Ticket + enqueue + IPI dispatch form one suspension-free critical
  // section, so the global ticket order equals ring order on every
  // responder. That ordering is what makes a published ack_gen >= ticket
  // PROOF that this shootdown's entries (or their flush_all fallback) were
  // consumed — with a suspension in between (say, the local flush), a later
  // initiator could enqueue-and-drain first and its ack would falsely
  // release this one while these entries still sat in the ring.
  cpu.AccessLine(GenLineFor(cpu.id()), AccessType::kAtomicRmw);
  uint64_t queue_gen = ++TicketFor(cpu.id());

  for (int t : targets) {
    EnqueueForTarget(cpu, mm, t, info, queue_gen, wants_full);
  }

  // Kick only responders without an IPI already pending: their in-progress
  // (or queued) drain will consume our entries too — that is the coalescing
  // the asynchronous design buys.
  std::vector<int> ipi_targets;
  for (int t : targets) {
    CpuQueue& q = *queues_[static_cast<size_t>(t)];
    if (q.ipi_pending) {
      ++StatsFor(cpu).ipi_coalesced;
      continue;
    }
    q.ipi_pending = true;
    ipi_targets.push_back(t);
  }
  cpu.TracePhase("queue initiator: send IPI");
  if (!ipi_targets.empty()) {
    StatsFor(cpu).ipi_sends += ipi_targets.size();
    kernel_->machine().apic().SendIpi(cpu, ipi_targets, kCallFunctionVector);
  }
  if (ProtocolCheckSink* c = chk()) {
    c->OnIpiSent(cpu, mm, info.new_tlb_gen, targets);
  }

  // Spin for ack_gen to reach our ticket everywhere; exponential backoff
  // between IPI resends closes the enqueue/ack-publication race window.
  cpu.TracePhase("queue initiator: spin for acks");
  Cycles wait_start = cpu.now();
  Cycles budget = costs().queue_initial_spin;
  int retries = 0;
  bool all_acked = AllAcked(cpu, targets, queue_gen);
  while (!all_acked) {
    Cycles spent = 0;
    while (!all_acked && spent < budget) {
      co_await cpu.Execute(costs().queue_spin_poll);
      spent += costs().queue_spin_poll;
      ++StatsFor(cpu).spin_polls;
      StatsFor(cpu).spin_cycles += static_cast<uint64_t>(costs().queue_spin_poll);
      all_acked = AllAcked(cpu, targets, queue_gen);
    }
    if (all_acked) {
      break;
    }
    if (retries >= costs().queue_max_retries) {
      break;  // give up; the unacked targets are abandoned (counted below)
    }
    ++retries;
    budget *= static_cast<Cycles>(std::max(1, costs().queue_backoff_mult));
    std::vector<int> unacked;
    for (int t : targets) {
      CpuQueue& q = *queues_[static_cast<size_t>(t)];
      cpu.AccessLine(q.ctl_line, AccessType::kRead);
      if (q.ack_gen < queue_gen) {
        q.ipi_pending = true;
        unacked.push_back(t);
      }
    }
    if (!inject_.drop_ipi_resend && !unacked.empty()) {
      StatsFor(cpu).ipi_resends += unacked.size();
      cpu.TracePhase("queue initiator: resend IPI");
      kernel_->machine().apic().SendIpi(cpu, unacked, kCallFunctionVector);
    }
  }
  HistFor(hb_ack_wait_cycles_, h_ack_wait_cycles_, cpu.id())
      ->Record(static_cast<double>(cpu.now() - wait_start));

  if (all_acked) {
    cpu.TracePhase("queue initiator: shootdown complete");
    if (ProtocolCheckSink* c = chk()) {
      c->OnShootdownComplete(cpu, mm, info.new_tlb_gen, targets);
    }
    co_return;
  }
  // Retry budget exhausted: the shootdown "completes" with unacknowledged
  // responders — the protocol failure drop_ipi_resend exists to provoke.
  cpu.TracePhase("queue initiator: ack timeout");
  for (int t : targets) {
    CpuQueue& q = *queues_[static_cast<size_t>(t)];
    if (q.ack_gen < queue_gen) {
      ++StatsFor(cpu).ack_timeouts;
      if (ProtocolCheckSink* c = chk()) {
        c->OnQueueAckTimeout(cpu, mm, t, queue_gen);
      }
    }
  }
}

// tlblint: shard-local — runs on the draining cpu's timeline
Co<void> QueueFlushBackend::HandleFlushIrq(SimCpu& cpu) {
  ScopedCycleTimer timer(HistFor(hb_drain_cycles_, h_drain_cycles_, cpu.id()), &cpu);
  ++StatsFor(cpu).drains;
  c_drains_->Inc(cpu.id());
  PerCpu& pc = kernel_->percpu(cpu.id());
  CpuQueue& q = *queues_[static_cast<size_t>(cpu.id())];
  uint64_t cap = q.ring.size();
  co_await cpu.Execute(costs().handler_body);

  uint64_t drained_queue_gen = q.ack_gen;
  uint64_t local_gen = pc.loaded_mm_tlb_gen;  // fixed for this drain
  uint64_t contiguous_gen = local_gen;
  uint64_t max_mm_gen = local_gen;
  bool need_full = false;
  bool gap_seen = false;

  // Drain until the head stops moving: entries enqueued while we flush are
  // consumed by this same pass (and acknowledged by it).
  bool progressed = true;
  while (progressed) {
    progressed = false;
    cpu.AccessLine(q.ctl_line, AccessType::kAtomicRmw);
    if (q.flush_all) {
      q.flush_all = false;
      drained_queue_gen = std::max(drained_queue_gen, q.flush_all_queue_gen);
      need_full = true;
      ++StatsFor(cpu).drain_flush_all;
      progressed = true;
    }
    while (q.tail != q.head) {
      cpu.AccessLine(q.ring_line, AccessType::kRead);
      Entry e = q.ring[q.tail % cap];
      ++q.tail;
      progressed = true;
      ++StatsFor(cpu).drained_entries;
      drained_queue_gen = std::max(drained_queue_gen, e.queue_gen);
      if (e.mm != pc.loaded_mm) {
        ++StatsFor(cpu).drain_skipped_mm;  // the switch-in path owns that catch-up
        continue;
      }
      if (e.mm_gen <= local_gen) {
        ++StatsFor(cpu).drain_skipped_gen;  // a full flush already covered it
        continue;
      }
      if (e.mm_gen > contiguous_gen + 1) {
        // A generation this CPU never received (it was lazy, or entries were
        // dropped): selective invalidation cannot catch up — storm path.
        need_full = true;
        gap_seen = true;
      }
      contiguous_gen = std::max(contiguous_gen, e.mm_gen);
      max_mm_gen = std::max(max_mm_gen, e.mm_gen);
      if (!need_full) {
        cpu.ArchInvlPg(e.mm->kernel_pcid, e.va);
        ++StatsFor(cpu).invlpg_issued;
        Cycles cost = costs().invlpg;
        if (pti()) {
          cpu.ArchInvPcidAddr(e.mm->user_pcid, e.va);
          ++StatsFor(cpu).invpcid_issued;
          cost += costs().invpcid_addr;
        }
        co_await cpu.Execute(cost);
      }
    }
  }

  if (need_full && pc.loaded_mm != nullptr) {
    MmStruct& mm = *pc.loaded_mm;
    ++StatsFor(cpu).drain_full;
    if (gap_seen) {
      ++StatsFor(cpu).drain_full_storm;
    }
    cpu.ArchFlushPcid(mm.kernel_pcid);
    Cycles cost = costs().cr3_write_flush;
    if (pti()) {
      cpu.ArchFlushPcid(mm.user_pcid);
      cost += costs().invpcid_single_ctx;
    }
    co_await cpu.Execute(cost);
    cpu.AccessLine(mm.gen_line, AccessType::kRead);
    max_mm_gen = std::max(max_mm_gen, mm.tlb_gen);
  }
  if (pc.loaded_mm != nullptr && max_mm_gen > pc.loaded_mm_tlb_gen) {
    pc.loaded_mm_tlb_gen = max_mm_gen;
    cpu.AccessLine(pc.tlbstate_line, AccessType::kWrite);
    if (ProtocolCheckSink* c = chk()) {
      c->OnLocalGenApplied(cpu, *pc.loaded_mm, max_mm_gen, need_full, /*user_covered=*/true);
    }
  }

  // Publication window: between the final head check above and the ack_gen
  // store below, fresh enqueues see ipi_pending still set and skip their IPI
  // — the race the initiator's resend loop exists to close.
  cpu.TracePhase("queue responder: publish ack");
  co_await cpu.Execute(costs().queue_ack_publish);
  cpu.AccessLine(q.ctl_line, AccessType::kAtomicRmw);
  if (drained_queue_gen > q.ack_gen) {
    q.ack_gen = drained_queue_gen;
    ++StatsFor(cpu).acks;
  }
  q.ipi_pending = false;
}

Co<void> QueueFlushBackend::OnReturnToUser(SimCpu& cpu, MmStruct& mm) {
  if (pti()) {
    cpu.LoadAddressSpace(&mm.pt, mm.user_pcid);  // flushes were eager
  }
  co_return;
}

Co<void> QueueFlushBackend::OnCowFault(SimCpu& cpu, MmStruct& mm, uint64_t va, bool executable) {
  // Same §4.1 policy as the IPI engine: the avoidance is a property of the
  // CoW break, not of the shootdown transport.
  bool exec_eff = executable && !inject_.cow_avoid_executable;
  if (opts().cow_avoidance && !exec_eff) {
    ++StatsFor(cpu).cow_flush_avoided;
    cpu.TracePhase("cow: flush avoided via atomic access");
    if (ProtocolCheckSink* c = chk()) {
      c->OnCowAvoidance(cpu, mm, va, executable);
    }
    PageTable::WalkResult walk = mm.pt.Walk(va);
    assert(walk.present);
    cpu.tlb().DropTranslation(mm.kernel_pcid, va);
    if (pti()) {
      cpu.tlb().DropTranslation(mm.user_pcid, va);
    }
    cpu.AccessLine(CoherenceModel::LineOfAddress(walk.pte.pfn() << kPageShift),
                   AccessType::kAtomicRmw);
    cpu.AdvanceInline(costs().cow_atomic_fixup);
    XlateResult r = Mmu::Translate(cpu, va, AccessIntent{true, false, /*user=*/false});
    (void)r;
    co_return;
  }
  ++StatsFor(cpu).cow_flushes;
  cpu.TracePhase("cow: flush path");
  if (mm.cpumask.count() > 1) {
    co_await FlushRange(cpu, mm, va, va + kPageSize4K, static_cast<int>(kPageShift),
                        /*freed_tables=*/false);
    co_return;
  }
  // Single-CPU mm: local invalidation only, no ticket or ring traffic.
  cpu.AccessLine(mm.gen_line, AccessType::kAtomicRmw);
  ++mm.tlb_gen;
  FlushTlbInfo info;
  info.mm = &mm;
  info.start = va;
  info.end = va + kPageSize4K;
  info.new_tlb_gen = mm.tlb_gen;
  if (ProtocolCheckSink* c = chk()) {
    c->OnTlbGenBump(cpu, mm, info.new_tlb_gen, info.start, info.end);
  }
  co_await LocalFlush(cpu, mm, info);
}

void QueueFlushBackend::BeginBatch(SimCpu&, MmStruct&) {
  // No §4.2 batching in this design: asynchrony already decouples initiators
  // from responders, which is the contrast the backend axis measures.
}

Co<void> QueueFlushBackend::EndBatch(SimCpu&, MmStruct&) { co_return; }

Co<void> QueueFlushBackend::OnSwitchIn(SimCpu& cpu, MmStruct& mm) {
  PerCpu& pc = kernel_->percpu(cpu.id());
  cpu.AccessLine(mm.gen_line, AccessType::kRead);
  if (pc.loaded_mm_tlb_gen >= mm.tlb_gen) {
    co_return;
  }
  ++StatsFor(cpu).switch_in_flushes;
  cpu.ArchFlushPcid(mm.kernel_pcid);
  Cycles cost = costs().cr3_write_flush;
  if (pti()) {
    cpu.ArchFlushPcid(mm.user_pcid);
    cost += costs().invpcid_single_ctx;
  }
  co_await cpu.Execute(cost);
  pc.loaded_mm_tlb_gen = mm.tlb_gen;
  cpu.AccessLine(pc.tlbstate_line, AccessType::kWrite);
  if (ProtocolCheckSink* c = chk()) {
    c->OnLocalGenApplied(cpu, mm, pc.loaded_mm_tlb_gen, /*full=*/true, /*user_covered=*/true);
  }
}

}  // namespace tlbsim
