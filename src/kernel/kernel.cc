#include "src/kernel/kernel.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <utility>

#include "src/kernel/protocol_check.h"

namespace tlbsim {

namespace {

// Cacheline id for the page-table line holding the PTE of `va` in `mm`
// (8 PTEs share one 64-byte line).
LineId PteLine(const MmStruct& mm, uint64_t va) {
  return CoherenceModel::LineOfAddress((mm.pt.root_id() << 40) ^ ((va >> 15) << 6));
}

// Cacheline of the REPLICA PTE for `va` on `node` (Mitosis: each node's
// replica of the paging structures lives in that node's DRAM, on its own
// lines). Folds the node into high bits the primary formula leaves clear.
LineId ReplicaPteLine(const MmStruct& mm, int node, uint64_t va) {
  return CoherenceModel::LineOfAddress((mm.pt.root_id() << 40) ^
                                       (static_cast<uint64_t>(node) << 59) ^ ((va >> 15) << 6));
}

// The flush stride for a range operation: the covering VMA's page size
// (Linux's stride_shift), defaulting to 4KB.
int StrideShiftFor(MmStruct& mm, uint64_t addr) {
  Vma* vma = mm.FindVma(addr);
  if (vma != nullptr && vma->page_size == PageSize::k2M) {
    return static_cast<int>(kHugeShift);
  }
  return static_cast<int>(kPageShift);
}

}  // namespace

Kernel::Kernel(Machine* machine, KernelConfig config) : machine_(machine), config_(config) {
  assert(machine_->num_cpus() <= kMaxCpus);
  const NumaConfig& numa = machine_->config().numa;
  if (numa.enabled()) {
    frames_.ConfigureNuma(numa.nodes, numa.placement);
  }
  for (int i = 0; i < machine_->num_cpus(); ++i) {
    percpu_.push_back(std::make_unique<PerCpu>(&machine_->engine(), &machine_->coherence(), i,
                                               machine_->num_cpus()));
  }
  c_syscalls_ = &machine_->metrics().percpu("kernel.syscalls");
  // Optimization #7: watch the allocator recycle frames. Registered
  // unconditionally (the observer body no-ops while no reuse records are
  // open) so experiment harnesses that flip opts via mutable_config()
  // between runs still get the foreign-handoff safety close.
  frames_.set_reuse_observer([this](uint64_t pfn) { OnFrameReuse(pfn); });
}

void Kernel::ConfigureStatBanks(int banks, int cpus_per_bank) {
  if (banks < 1) banks = 1;
  if (cpus_per_bank < 1) cpus_per_bank = 1;
  stat_banks_.resize(static_cast<size_t>(banks));
  cpus_per_stat_bank_ = cpus_per_bank;
}

Kernel::Stats Kernel::stats() const {
  Stats sum;
  for (const Stats& b : stat_banks_) {
    sum.syscalls += b.syscalls;
    sum.page_faults += b.page_faults;
    sum.cow_faults += b.cow_faults;
    sum.demand_faults += b.demand_faults;
    sum.flush_requests += b.flush_requests;
    sum.context_switches += b.context_switches;
    sum.lazy_entries += b.lazy_entries;
    sum.compat_iret_full_flushes += b.compat_iret_full_flushes;
    sum.reuse_elided_flushes += b.reuse_elided_flushes;
    sum.reuse_elided_pages += b.reuse_elided_pages;
    sum.reuse_benign_closes += b.reuse_benign_closes;
    sum.reuse_forced_flushes += b.reuse_forced_flushes;
    sum.reuse_evictions += b.reuse_evictions;
    sum.reuse_frame_handoffs += b.reuse_frame_handoffs;
  }
  return sum;
}

void Kernel::SetFlushBackend(TlbFlushBackend* backend) {
  backend_ = backend;
  for (int i = 0; i < machine_->num_cpus(); ++i) {
    SimCpu& cpu = machine_->cpu(i);
    cpu.RegisterIrqHandler(kCallFunctionVector,
                           [this](SimCpu& c) { return backend_->HandleFlushIrq(c); });
    cpu.set_irq_entry_extra_user(config_.pti ? machine_->costs().pti_entry_extra : 0);
    cpu.set_kernel_entry_hook([this](SimCpu& c) {
      PerCpu& pc = percpu(c.id());
      if (pc.loaded_mm != nullptr) {
        c.LoadAddressSpace(&pc.loaded_mm->pt, pc.loaded_mm->kernel_pcid);
      }
    });
    cpu.set_return_to_user_hook([this](SimCpu& c) -> Co<void> {
      PerCpu& pc = percpu(c.id());
      if (pc.loaded_mm != nullptr) {
        co_await backend_->OnReturnToUser(c, *pc.loaded_mm);
      }
    });
    // Default NMI handler: just the uaccess check (tests install richer ones).
    cpu.RegisterIrqHandler(kNmiVector, [this](SimCpu& c) -> Co<void> {
      co_await c.Execute(machine_->costs().nmi_uaccess_check);
    });
  }
}

Process* Kernel::CreateProcess() {
  auto p = std::make_unique<Process>();
  p->id = next_process_id_++;
  p->mm = std::make_unique<MmStruct>(p->id, &machine_->engine(), &machine_->coherence(),
                                     machine_->topo().cpus_per_socket());
  if (machine_->config().numa.enabled() && config_.opts.pt_replication) {
    p->mm->pt.EnableReplication(machine_->config().numa.nodes);
    p->mm->pt.set_skip_replica_propagation(replica_skip_);
  }
  if (check_ != nullptr) {
    check_->OnMmCreated(*p->mm);
  }
  processes_.push_back(std::move(p));
  return processes_.back().get();
}

Thread* Kernel::CreateThread(Process* p, int cpu) {
  auto t = std::make_unique<Thread>();
  t->id = next_thread_id_++;
  t->process = p;
  t->cpu = cpu;
  MmStruct& mm = *p->mm;
  mm.cpumask.set(static_cast<size_t>(cpu));
  PerCpu& pc = percpu(cpu);
  pc.loaded_mm = &mm;
  pc.loaded_mm_tlb_gen = mm.tlb_gen;
  SimCpu& c = machine_->cpu(cpu);
  c.LoadAddressSpace(&mm.pt, config_.pti ? mm.user_pcid : mm.kernel_pcid);
  c.set_user_mode(true);
  p->threads.push_back(std::move(t));
  return p->threads.back().get();
}

File* Kernel::CreateFile(uint64_t size_bytes) {
  files_.push_back(std::make_unique<File>(&frames_, next_file_id_++, size_bytes));
  return files_.back().get();
}

Co<void> Kernel::SyscallEnter(Thread& t) {
  ++StatsFor(t.cpu).syscalls;
  c_syscalls_->Inc(t.cpu);
  SimCpu& cpu = machine_->cpu(t.cpu);
  MmStruct& mm = *t.process->mm;
  cpu.set_user_mode(false);
  cpu.LoadAddressSpace(&mm.pt, mm.kernel_pcid);
  const CostModel& costs = machine_->costs();
  Cycles c = costs.syscall_entry + (config_.pti ? costs.pti_entry_extra : 0);
  co_await cpu.Execute(cpu.rng().Jitter(c, costs.jitter_frac));
}

Co<void> Kernel::SyscallExit(Thread& t) {
  SimCpu& cpu = machine_->cpu(t.cpu);
  MmStruct& mm = *t.process->mm;
  // The exit path runs with interrupts masked (like Linux's exit-to-user
  // code): a shootdown landing between the deferred-flush drain and the
  // actual mode switch would otherwise lose its deferral.
  bool prev_if = cpu.irqs_enabled();
  cpu.set_irqs_enabled(false);
  // §3.4 caveat: an IRET return (32-bit compat) has no stack for the
  // in-context INVLPG loop; promote any deferred selective flush to a full
  // flush.
  PerCpu& pc = percpu(t.cpu);
  if (config_.pti && t.compat32 && pc.deferred_user.any && !pc.deferred_user.full) {
    pc.deferred_user.MarkFull();
    ++StatsFor(t.cpu).compat_iret_full_flushes;
  }
  // Deferred user-space flushes run on the way out (§3.4), then the user
  // PCID is live again.
  co_await backend_->OnReturnToUser(cpu, mm);
  const CostModel& costs = machine_->costs();
  Cycles c = costs.syscall_exit + (config_.pti ? costs.pti_exit_extra : 0);
  co_await cpu.Execute(cpu.rng().Jitter(c, costs.jitter_frac));
  cpu.set_user_mode(true);
  cpu.set_irqs_enabled(prev_if);
}

void Kernel::ChargePteUpdate(SimCpu& cpu, MmStruct& mm, uint64_t va) {
  cpu.AccessLine(PteLine(mm, va), AccessType::kAtomicRmw);
  cpu.AdvanceInline(machine_->costs().pte_update);
  // Mitosis replication tax: every PTE store also updates the entry in each
  // remote node's replica — paid here, BEFORE any flush/IPI this change
  // triggers, which is exactly where the coherence write-out sits.
  if (mm.pt.replicated() && !replica_skip_) {
    for (int node = 1; node < mm.pt.replica_count(); ++node) {
      cpu.AccessLine(ReplicaPteLine(mm, node, va), AccessType::kAtomicRmw);
      cpu.AdvanceInline(machine_->costs().replica_pte_update);
    }
  }
  if (check_ != nullptr) {
    check_->OnPteCharged(cpu, mm, va);
  }
}

void Kernel::ChargeRemoteDram(SimCpu& cpu, uint64_t pa) {
  if (cpu.numa_node() < 0) {
    return;
  }
  if (frames_.NodeOf(pa >> kPageShift) != cpu.numa_node()) {
    cpu.AdvanceInline(machine_->costs().dram_remote_access);
    cpu.NoteRemoteDram();
  }
}

void Kernel::SetReplicaSkip(bool skip) {
  replica_skip_ = skip;
  for (auto& p : processes_) {
    p->mm->pt.set_skip_replica_propagation(skip);
  }
}

// --- Optimization #7: reuse-aware flush elision (arXiv 2409.10946) ---

void Kernel::EraseReuseRecord(MmStruct& mm, uint64_t va, uint64_t pfn) {
  mm.reuse.Erase(va);
  auto range = reuse_by_pfn_.equal_range(pfn);
  for (auto it = range.first; it != range.second;) {
    if (it->second.first == &mm && it->second.second == va) {
      it = reuse_by_pfn_.erase(it);
    } else {
      ++it;
    }
  }
}

Co<bool> Kernel::TryReuseElide(SimCpu& cpu, MmStruct& mm, const ZapResult& zr) {
  // The paper's safety argument only covers small non-executable pages (a
  // stale ITLB entry cannot self-correct), and a zap batch larger than the
  // table could never be fully tracked — flush those normally.
  if (zr.pages == 0 || zr.pages > ReuseTable::kCapacity) {
    co_return false;
  }
  for (const ZappedLeaf& l : zr.leaves) {
    if (l.size != PageSize::k4K || l.pte.executable()) {
      co_return false;
    }
  }
  const CostModel& costs = machine_->costs();
  for (const ZappedLeaf& l : zr.leaves) {
    std::optional<ReuseRecord> evicted =
        mm.reuse.Insert(ReuseRecord{l.va, l.pte.pfn(), l.pte.raw() & ~kPfnMask, mm.tlb_gen});
    reuse_by_pfn_.emplace(l.pte.pfn(), std::make_pair(&mm, l.va));
    if (evicted.has_value()) {
      // Eviction forces the flush the evicted record's elision deferred
      // (before its frame can travel any further).
      ++StatsFor(cpu.id()).reuse_evictions;
      if (check_ != nullptr) {
        check_->OnReuseFlushClose(mm, evicted->va, /*stale_dropped=*/true);
      }
      EraseReuseRecord(mm, evicted->va, evicted->pfn);
      ++StatsFor(cpu.id()).flush_requests;
      co_await backend_->FlushRange(cpu, mm, evicted->va, evicted->va + kPageSize4K,
                                    static_cast<int>(kPageShift), /*freed_tables=*/false);
    }
  }
  // Skip the shootdown: only the zapping CPU invalidates locally (both PCID
  // halves under PTI, like a selective flush); remote CPUs keep their
  // entries until the record closes.
  Cycles local = 0;
  for (const ZappedLeaf& l : zr.leaves) {
    cpu.ArchInvlPg(mm.kernel_pcid, l.va);
    local += costs.invlpg;
    if (config_.pti) {
      cpu.ArchInvPcidAddr(mm.user_pcid, l.va);
      local += costs.invpcid_addr;
    }
    if (check_ != nullptr) {
      check_->OnReuseElided(cpu, mm, l.va, l.pte.pfn());
    }
  }
  ++StatsFor(cpu.id()).reuse_elided_flushes;
  StatsFor(cpu.id()).reuse_elided_pages += zr.pages;
  co_await cpu.Execute(local);
  co_return true;
}

Co<void> Kernel::ConsultReuseOnFault(SimCpu& cpu, MmStruct& mm, uint64_t page_va, uint64_t pfn,
                                     uint64_t flags, PageSize size) {
  const ReuseRecord* rec = mm.reuse.Lookup(page_va);
  if (rec == nullptr) {
    co_return;
  }
  uint64_t rec_pfn = rec->pfn;
  Pte npte(flags);
  Pte opte(rec->flags);
  // Benign reuse: the same frame comes back at the same va under
  // same-or-stricter permissions (a widening would leave remote CPUs with
  // under-granting entries that spurious-fault forever) and stays
  // non-executable. The stale entries then describe the new translation and
  // the elided flush is never needed.
  bool benign =
      size == PageSize::k4K && rec_pfn == pfn && !npte.executable() &&
      (!npte.writable() || opte.writable());
  if (benign) {
    ++StatsFor(cpu.id()).reuse_benign_closes;
    if (check_ != nullptr) {
      check_->OnReuseBenignClose(cpu, mm, page_va, pfn);
    }
    EraseReuseRecord(mm, page_va, rec_pfn);
    // No invalidation anywhere: every surviving stale copy of this
    // translation now describes the mapping being reinstalled (or a stricter
    // view of it), which is the optimization's whole payoff.
  } else {
    // Mismatching re-population: the elided flush must happen now, before
    // the new translation goes live under the old one's stale entries.
    ++StatsFor(cpu.id()).reuse_forced_flushes;
    if (check_ != nullptr) {
      check_->OnReuseFlushClose(mm, page_va, /*stale_dropped=*/true);
    }
    EraseReuseRecord(mm, page_va, rec_pfn);
    ++StatsFor(cpu.id()).flush_requests;
    co_await backend_->FlushRange(cpu, mm, page_va, page_va + kPageSize4K,
                                  static_cast<int>(kPageShift), /*freed_tables=*/false);
  }
}

void Kernel::OnFrameReuse(uint64_t pfn) {
  if (reuse_by_pfn_.empty()) {
    return;
  }
  auto range = reuse_by_pfn_.equal_range(pfn);
  if (range.first == range.second) {
    return;
  }
  // Snapshot the owners first: closing a record mutates the index.
  std::vector<std::pair<MmStruct*, uint64_t>> owners;
  for (auto it = range.first; it != range.second; ++it) {
    owners.push_back(it->second);
  }
  for (auto& [mm, va] : owners) {
    if (mm == reuse_consult_mm_ && va == reuse_consult_va_) {
      continue;  // the fault path is about to consult (and close) this record
    }
    // The frame is leaving the benign window: a new owner gets it while the
    // old mapping may still be cached. Purge the stale translations on every
    // CPU of the recording mm — a real kernel folds this into the reuse
    // path's shootdown; the model drops the entries directly and charges the
    // allocating CPU one invalidation per CPU and PCID half.
    ++StatsFor(reuse_alloc_cpu_ != nullptr ? reuse_alloc_cpu_->id() : 0).reuse_frame_handoffs;
    if (check_ != nullptr) {
      check_->OnReuseFlushClose(*mm, va, /*stale_dropped=*/!reuse_elide_unsafe_);
    }
    EraseReuseRecord(*mm, va, pfn);
    if (reuse_elide_unsafe_) {
      continue;  // fault knob: leave the stale entries live (tests only)
    }
    const CostModel& costs = machine_->costs();
    Cycles c = 0;
    uint64_t drop_va = va;
    MmStruct* drop_mm = mm;
    drop_mm->cpumask.ForEachSet([&](int t) {
      SimCpu& other = machine_->cpu(t);
      other.tlb().DropTranslation(drop_mm->kernel_pcid, drop_va);
      other.itlb().DropTranslation(drop_mm->kernel_pcid, drop_va);
      c += costs.invlpg;
      if (config_.pti) {
        other.tlb().DropTranslation(drop_mm->user_pcid, drop_va);
        other.itlb().DropTranslation(drop_mm->user_pcid, drop_va);
        c += costs.invpcid_addr;
      }
    });
    if (reuse_alloc_cpu_ != nullptr) {
      reuse_alloc_cpu_->AdvanceInline(c);
    }
  }
}

Co<uint64_t> Kernel::SysMmap(Thread& t, uint64_t len, bool writable, bool shared, File* file,
                             uint64_t file_offset, PageSize page_size) {
  co_await SyscallEnter(t);
  SimCpu& cpu = machine_->cpu(t.cpu);
  MmStruct& mm = *t.process->mm;
  co_await mm.mmap_sem.Lock(cpu, /*write=*/true);
  cpu.AdvanceInline(machine_->costs().sem_op);
  co_await cpu.Execute(machine_->costs().vma_op_body);

  uint64_t gran = BytesOf(page_size);
  uint64_t addr = PageAlignUp(mm.next_map, page_size);
  len = PageAlignUp(len, page_size);
  mm.next_map = addr + len + gran;  // guard gap

  Vma vma;
  vma.start = addr;
  vma.end = addr + len;
  vma.writable = writable;
  vma.shared = shared;
  vma.file = file;
  vma.file_offset = file_offset;
  vma.page_size = page_size;
  mm.vmas.emplace(addr, vma);

  mm.mmap_sem.Unlock(cpu, /*write=*/true);
  cpu.AdvanceInline(machine_->costs().sem_op);
  co_await SyscallExit(t);
  co_return addr;
}

Kernel::ZapResult Kernel::ZapRange(SimCpu& cpu, MmStruct& mm, uint64_t addr, uint64_t len) {
  ZapResult zr;
  mm.pt.ForEachPresent(addr, addr + len, [&](uint64_t va, Pte, PageSize size) {
    Pte old = mm.pt.Unmap(va);
    ChargePteUpdate(cpu, mm, va);
    cpu.AdvanceInline(machine_->costs().zap_per_page);
    int shift =
        size == PageSize::k2M ? static_cast<int>(kHugeShift) : static_cast<int>(kPageShift);
    zr.min_stride_shift = std::min(zr.min_stride_shift, shift);
    zr.leaves.push_back(ZappedLeaf{va, old, size});
    ++zr.pages;
  });
  return zr;
}

Co<void> Kernel::SysMunmap(Thread& t, uint64_t addr, uint64_t len) {
  co_await SyscallEnter(t);
  SimCpu& cpu = machine_->cpu(t.cpu);
  MmStruct& mm = *t.process->mm;
  co_await mm.mmap_sem.Lock(cpu, /*write=*/true);
  cpu.AdvanceInline(machine_->costs().sem_op);
  co_await cpu.Execute(machine_->costs().vma_op_body);

  if (BatchingEnabled()) {
    percpu(t.cpu).ipi_defer_mode = true;  // munmap-only indication (§5.3)
    backend_->BeginBatch(cpu, mm);
  }

  int vma_stride_shift = StrideShiftFor(mm, addr);
  ZapResult zr = ZapRange(cpu, mm, addr, len);
  // A range spanning VMAs of different page sizes must flush at the smallest
  // stride actually unmapped (tlb-gather style), not the stride of the VMA
  // that happens to cover `addr`.
  int stride_shift = zr.pages > 0 ? zr.min_stride_shift : vma_stride_shift;
  bool freed_tables = mm.pt.PruneEmpty(addr, addr + len);

  // Trim / split / remove affected VMAs.
  uint64_t lo = addr;
  uint64_t hi = addr + len;
  std::vector<Vma> to_insert;
  for (auto it = mm.vmas.begin(); it != mm.vmas.end();) {
    Vma& v = it->second;
    if (v.end <= lo || v.start >= hi) {
      ++it;
      continue;
    }
    Vma left = v;
    Vma right = v;
    left.end = lo;
    right.file_offset = v.file ? v.OffsetOf(hi) : 0;
    right.start = hi;
    it = mm.vmas.erase(it);
    if (left.start < left.end) {
      to_insert.push_back(left);
    }
    if (right.start < right.end) {
      to_insert.push_back(right);
    }
  }
  for (Vma& v : to_insert) {
    mm.vmas.emplace(v.start, v);
  }

  bool elided = false;
  if (config_.opts.reuse_elision && !freed_tables && zr.pages > 0) {
    elided = co_await TryReuseElide(cpu, mm, zr);
  }
  // Even with zero present pages, freeing page tables demands a flush:
  // paging-structure caches hold entries for the freed tables and
  // freed_tables=true is what forces responders to drop them.
  if (!elided && (freed_tables || zr.pages > 0)) {
    ++StatsFor(cpu.id()).flush_requests;
    co_await backend_->FlushRange(cpu, mm, lo, hi, stride_shift, freed_tables);
  }
  if (BatchingEnabled()) {
    co_await backend_->EndBatch(cpu, mm);  // barrier before mmap_sem release
    percpu(t.cpu).ipi_defer_mode = false;
  }
  // Pages are released only after every TLB is clean (tlb_finish_mmu order).
  for (const ZappedLeaf& l : zr.leaves) {
    frames_.Unref(l.pte.pfn());
  }

  mm.mmap_sem.Unlock(cpu, /*write=*/true);
  cpu.AdvanceInline(machine_->costs().sem_op);
  co_await SyscallExit(t);
}

Co<void> Kernel::SysMadviseDontneed(Thread& t, uint64_t addr, uint64_t len) {
  co_await SyscallEnter(t);
  SimCpu& cpu = machine_->cpu(t.cpu);
  MmStruct& mm = *t.process->mm;
  co_await mm.mmap_sem.Lock(cpu, /*write=*/false);
  cpu.AdvanceInline(machine_->costs().sem_op);
  co_await cpu.Execute(machine_->costs().vma_op_body);

  if (BatchingEnabled()) {
    backend_->BeginBatch(cpu, mm);
  }
  ZapResult zr = ZapRange(cpu, mm, addr, len);
  bool elided = false;
  if (config_.opts.reuse_elision && zr.pages > 0) {
    elided = co_await TryReuseElide(cpu, mm, zr);
  }
  if (!elided && zr.pages > 0) {
    ++StatsFor(cpu.id()).flush_requests;
    co_await backend_->FlushRange(cpu, mm, addr, addr + len, zr.min_stride_shift,
                                  /*freed_tables=*/false);
  }
  if (BatchingEnabled()) {
    co_await backend_->EndBatch(cpu, mm);
  }
  for (const ZappedLeaf& l : zr.leaves) {
    frames_.Unref(l.pte.pfn());
  }

  mm.mmap_sem.Unlock(cpu, /*write=*/false);
  cpu.AdvanceInline(machine_->costs().sem_op);
  co_await SyscallExit(t);
}

Co<void> Kernel::SysMsyncClean(Thread& t, uint64_t addr, uint64_t len) {
  co_await SyscallEnter(t);
  SimCpu& cpu = machine_->cpu(t.cpu);
  MmStruct& mm = *t.process->mm;
  co_await mm.mmap_sem.Lock(cpu, /*write=*/false);
  cpu.AdvanceInline(machine_->costs().sem_op);
  co_await cpu.Execute(machine_->costs().vma_op_body);

  std::vector<uint64_t> dirty;
  mm.pt.ForEachPresent(addr, addr + len, [&](uint64_t va, Pte pte, PageSize) {
    if (pte.dirty() && pte.writable()) {
      dirty.push_back(va);
    }
  });

  if (BatchingEnabled()) {
    backend_->BeginBatch(cpu, mm);
  }
  for (uint64_t va : dirty) {
    // clear_page_dirty_for_io: write-protect + clean, then flush — one page
    // at a time in baseline Linux. Re-check under the "page lock": a
    // concurrent syncer may have cleaned this page already.
    Pte pte = mm.pt.Walk(va).pte;
    if (!pte.present() || !pte.dirty() || !pte.writable()) {
      continue;
    }
    mm.pt.SetPte(va, pte.WithFlags(0, PteFlags::kWrite | PteFlags::kDirty));
    ChargePteUpdate(cpu, mm, va);
    cpu.AdvanceInline(machine_->costs().zap_per_page);
    ++StatsFor(cpu.id()).flush_requests;
    co_await backend_->FlushRange(cpu, mm, va, va + kPageSize4K, static_cast<int>(kPageShift),
                                  /*freed_tables=*/false);
    // Write the cleaned page back to the (persistent-memory) backing store:
    // CPU cost plus serialization on the shared pmem write channel.
    Cycles start = std::max(cpu.now(), pmem_channel_free_at_);
    Cycles queue_delay = start - cpu.now();
    pmem_channel_free_at_ = start + machine_->costs().pmem_channel_occupancy;
    co_await cpu.Execute(queue_delay + machine_->costs().pmem_writeback);
  }
  if (BatchingEnabled()) {
    co_await backend_->EndBatch(cpu, mm);
  }

  mm.mmap_sem.Unlock(cpu, /*write=*/false);
  cpu.AdvanceInline(machine_->costs().sem_op);
  co_await SyscallExit(t);
}

Co<void> Kernel::SysMprotect(Thread& t, uint64_t addr, uint64_t len, bool writable) {
  co_await SyscallEnter(t);
  SimCpu& cpu = machine_->cpu(t.cpu);
  MmStruct& mm = *t.process->mm;
  co_await mm.mmap_sem.Lock(cpu, /*write=*/true);
  cpu.AdvanceInline(machine_->costs().sem_op);
  co_await cpu.Execute(machine_->costs().vma_op_body);

  // Update VMA permissions (whole-VMA granularity for simplicity).
  for (auto& [start, vma] : mm.vmas) {
    if (vma.start >= addr && vma.end <= addr + len) {
      vma.writable = writable;
    }
  }
  uint64_t changed = 0;
  int min_stride_shift = static_cast<int>(kHugeShift);
  mm.pt.ForEachPresent(addr, addr + len, [&](uint64_t va, Pte pte, PageSize size) {
    Pte npte = writable ? pte.WithFlags(PteFlags::kWrite) : pte.WithFlags(0, PteFlags::kWrite);
    if (npte == pte) {
      return;
    }
    mm.pt.SetPte(va, npte);
    ChargePteUpdate(cpu, mm, va);
    cpu.AdvanceInline(machine_->costs().zap_per_page);
    // Same tlb-gather rule as the zap paths: the flush stride is the
    // smallest page size whose PTE actually changed.
    int shift =
        size == PageSize::k2M ? static_cast<int>(kHugeShift) : static_cast<int>(kPageShift);
    min_stride_shift = std::min(min_stride_shift, shift);
    ++changed;
  });
  if (changed > 0) {
    ++StatsFor(cpu.id()).flush_requests;
    co_await backend_->FlushRange(cpu, mm, addr, addr + len, min_stride_shift,
                                  /*freed_tables=*/false);
  }

  mm.mmap_sem.Unlock(cpu, /*write=*/true);
  cpu.AdvanceInline(machine_->costs().sem_op);
  co_await SyscallExit(t);
}

Co<bool> Kernel::UserAccess(Thread& t, uint64_t va, bool write) {
  SimCpu& cpu = machine_->cpu(t.cpu);
  MmStruct& mm = *t.process->mm;
  for (int attempt = 0; attempt < 4; ++attempt) {
    XlateResult r = Mmu::Translate(cpu, va, AccessIntent{write, /*exec=*/false, /*user=*/true});
    if (r.ok) {
      // A/D bits are maintained by the hardware walker (Mmu::Translate).
      cpu.AccessLine(CoherenceModel::LineOfAddress(r.pa),
                     write ? AccessType::kWrite : AccessType::kRead);
      ChargeRemoteDram(cpu, r.pa);
      co_return true;
    }
    Vma* vma = mm.FindVma(va);
    if (vma == nullptr) {
      co_return false;  // SIGSEGV
    }
    if (r.fault == FaultKind::kProtWrite && !vma->writable) {
      co_return false;
    }
    co_await HandlePageFault(t, va, write, r.fault);
  }
  // Give-up path, not an invariant: a thread can lose the install/zap race on
  // every retry when another thread keeps madvising the same range (fig10's
  // sysbench mix does this), so bounded retries legitimately run dry. Release
  // builds have always fallen through here; Debug must behave the same.
  co_return false;
}

Co<Process*> Kernel::SysFork(Thread& t, int child_cpu) {
  co_await SyscallEnter(t);
  SimCpu& cpu = machine_->cpu(t.cpu);
  MmStruct& mm = *t.process->mm;
  const CostModel& costs = machine_->costs();
  co_await mm.mmap_sem.Lock(cpu, /*write=*/true);
  cpu.AdvanceInline(costs.sem_op);
  co_await cpu.Execute(costs.vma_op_body);

  Process* child = CreateProcess();
  MmStruct& cmm = *child->mm;
  cmm.vmas = mm.vmas;  // VMAs are duplicated...
  cmm.next_map = mm.next_map;
  // The child's page tables are built by the forking CPU: home them there.
  cmm.pt.set_alloc_node(std::max(0, cpu.numa_node()));

  // ...and every present leaf is shared copy-on-write: private writable
  // pages are downgraded to RO+CoW in BOTH address spaces; shared mappings
  // stay shared. The parent-side downgrades are PTE changes that other CPUs
  // may cache, so they need a flush (the fork-time shootdown).
  struct Leaf {
    uint64_t va;
    Pte pte;
    PageSize size;
  };
  std::vector<Leaf> leaves;
  uint64_t lo = UINT64_MAX;
  uint64_t hi = 0;
  mm.pt.ForEachPresent(0, ~0ULL, [&](uint64_t va, Pte pte, PageSize size) {
    leaves.push_back(Leaf{va, pte, size});
  });
  uint64_t downgraded = 0;
  for (auto& [va, pte, size] : leaves) {
    Vma* vma = mm.FindVma(va);
    bool shared = vma != nullptr && vma->shared;
    Pte child_pte = pte;
    if (!shared && pte.writable()) {
      Pte ro = pte.WithFlags(PteFlags::kCow, PteFlags::kWrite);
      mm.pt.SetPte(va, ro);
      ChargePteUpdate(cpu, mm, va);
      child_pte = ro;
      ++downgraded;
      if (va < lo) {
        lo = va;
      }
      if (va + BytesOf(size) > hi) {
        hi = va + BytesOf(size);
      }
    } else if (!shared && !pte.writable() && !pte.cow() && vma != nullptr && vma->writable) {
      child_pte = pte.WithFlags(PteFlags::kCow);
      mm.pt.SetPte(va, child_pte);
      ChargePteUpdate(cpu, mm, va);
    }
    frames_.Ref(pte.pfn());  // the child's mapping holds a reference
    cmm.pt.Map(va, child_pte.pfn(), child_pte.raw() & ~(kPfnMask | PteFlags::kHuge), size);
    cpu.AdvanceInline(costs.zap_per_page);
  }
  if (downgraded > 0) {
    ++StatsFor(cpu.id()).flush_requests;
    co_await backend_->FlushRange(cpu, mm, lo, hi, static_cast<int>(kPageShift),
                                  /*freed_tables=*/false);
  }

  mm.mmap_sem.Unlock(cpu, /*write=*/true);
  cpu.AdvanceInline(costs.sem_op);
  CreateThread(child, child_cpu);
  co_await SyscallExit(t);
  co_return child;
}

Co<bool> Kernel::SysRead(Thread& t, File* file, uint64_t offset, uint64_t buf, uint64_t len) {
  co_await SyscallEnter(t);
  SimCpu& cpu = machine_->cpu(t.cpu);
  MmStruct& mm = *t.process->mm;
  const CostModel& costs = machine_->costs();
  co_await cpu.Execute(costs.vma_op_body);

  bool ok = true;
  for (uint64_t off = 0; off < len; off += kPageSize4K) {
    uint64_t va = buf + off;
    // Read from the page cache...
    uint64_t src_pfn = file->GetPage(offset + off);
    cpu.AccessLine(CoherenceModel::LineOfAddress(src_pfn << kPageShift), AccessType::kRead);
    // ...and copy into the user buffer FROM KERNEL CONTEXT. This is the
    // userspace access §4.2 calls out: the translation must be current, so
    // this syscall can never run inside a batching window.
    XlateResult r;
    for (int attempt = 0; attempt < 4; ++attempt) {
      r = Mmu::Translate(cpu, va, AccessIntent{true, false, /*user=*/false});
      if (r.ok || mm.FindVma(va) == nullptr) {
        break;
      }
      Vma* vma = mm.FindVma(va);
      if (r.fault == FaultKind::kProtWrite && !vma->writable && !vma->shared) {
        break;
      }
      co_await HandlePageFault(t, va, /*write=*/true, r.fault);
      cpu.set_user_mode(false);  // still inside the read syscall
      cpu.LoadAddressSpace(&mm.pt, mm.kernel_pcid);
    }
    if (!r.ok) {
      ok = false;  // EFAULT
      break;
    }
    cpu.AccessLine(CoherenceModel::LineOfAddress(r.pa), AccessType::kWrite);
    ChargeRemoteDram(cpu, r.pa);
    co_await cpu.Execute(costs.copy_page);
  }

  co_await SyscallExit(t);
  co_return ok;
}

Co<bool> Kernel::UserExec(Thread& t, uint64_t va) {
  SimCpu& cpu = machine_->cpu(t.cpu);
  MmStruct& mm = *t.process->mm;
  for (int attempt = 0; attempt < 4; ++attempt) {
    XlateResult r = Mmu::Translate(cpu, va, AccessIntent{false, /*exec=*/true, /*user=*/true});
    if (r.ok) {
      cpu.AccessLine(CoherenceModel::LineOfAddress(r.pa), AccessType::kRead);
      ChargeRemoteDram(cpu, r.pa);
      co_return true;
    }
    Vma* vma = mm.FindVma(va);
    if (vma == nullptr || !vma->executable) {
      co_return false;  // SIGSEGV / NX
    }
    if (r.fault != FaultKind::kNotPresent) {
      co_return false;
    }
    co_await HandlePageFault(t, va, /*write=*/false, r.fault);
  }
  assert(false && "exec fault loop did not converge");
  co_return false;
}

Co<void> Kernel::HandlePageFault(Thread& t, uint64_t va, bool write, FaultKind kind) {
  ++StatsFor(t.cpu).page_faults;
  SimCpu& cpu = machine_->cpu(t.cpu);
  MmStruct& mm = *t.process->mm;
  const CostModel& costs = machine_->costs();

  cpu.set_user_mode(false);
  cpu.LoadAddressSpace(&mm.pt, mm.kernel_pcid);
  Cycles entry = costs.pagefault_entry + (config_.pti ? costs.pti_entry_extra : 0);
  co_await cpu.Execute(cpu.rng().Jitter(entry, costs.jitter_frac));

  co_await mm.mmap_sem.Lock(cpu, /*write=*/false);
  cpu.AdvanceInline(costs.sem_op);
  co_await cpu.Execute(costs.pagefault_body);

  Vma* vma = mm.FindVma(va);
  assert(vma != nullptr);
  uint64_t page_va = PageAlignDown(va, vma->page_size);

  // NUMA: frames demand-allocated here and any paging-structure pages the
  // Map below creates are homed on the faulting CPU's node (local /
  // first-touch; the allocator applies interleave itself when configured).
  int node = std::max(0, cpu.numa_node());
  mm.pt.set_alloc_node(node);

  if (kind == FaultKind::kNotPresent) {
    ++StatsFor(cpu.id()).demand_faults;
    uint64_t frames_per_page = BytesOf(vma->page_size) / kPageSize4K;
    uint64_t flags = PteFlags::kPresent | PteFlags::kUser | PteFlags::kAccessed;
    if (!vma->executable) {
      flags |= PteFlags::kNx;
    }
    uint64_t pfn;
    // Reuse-elision consult scope: while the allocator runs for THIS (mm,
    // va), OnFrameReuse must leave a matching record open for the fault-path
    // consult below instead of force-closing it. Set only around the
    // synchronous AllocOn calls — never across a suspension point.
    auto consult_scope_begin = [&] {
      reuse_consult_mm_ = &mm;
      reuse_consult_va_ = page_va;
      reuse_alloc_cpu_ = &cpu;
    };
    auto consult_scope_end = [&] {
      reuse_consult_mm_ = nullptr;
      reuse_alloc_cpu_ = nullptr;
    };
    if (vma->file == nullptr) {
      // Anonymous: allocate zeroed frame(s), writable per the VMA. With
      // reuse elision on, ask the allocator for the exact frame the open
      // reuse record promises (per-CPU-cache affinity): the consult below
      // then closes the record benignly with no flush at all.
      bool got_specific = false;
      if (config_.opts.reuse_elision && frames_per_page == 1) {
        if (const ReuseRecord* rec = mm.reuse.Lookup(page_va)) {
          got_specific = frames_.TryAllocSpecific(rec->pfn);
          if (got_specific) {
            pfn = rec->pfn;
          }
        }
      }
      if (!got_specific) {
        consult_scope_begin();
        pfn = frames_.AllocOn(node, frames_per_page);
        consult_scope_end();
      }
      if (vma->writable) {
        flags |= PteFlags::kWrite;
      }
      if (write) {
        flags |= PteFlags::kDirty;
      }
    } else if (vma->shared) {
      pfn = vma->file->GetPage(vma->OffsetOf(page_va));
      frames_.Ref(pfn);
      // Dirty tracking (page_mkwrite): writable only when faulting on write.
      if (vma->writable && write) {
        flags |= PteFlags::kWrite | PteFlags::kDirty;
      }
    } else {
      // Private file mapping.
      if (write) {
        // Write fault on a never-mapped page: allocate the private copy now.
        ++StatsFor(cpu.id()).cow_faults;
        uint64_t src = vma->file->GetPage(vma->OffsetOf(page_va));
        (void)src;
        co_await cpu.Execute(costs.copy_page);
        consult_scope_begin();
        pfn = frames_.AllocOn(node, frames_per_page);
        consult_scope_end();
        flags |= PteFlags::kWrite | PteFlags::kDirty;
      } else {
        pfn = vma->file->GetPage(vma->OffsetOf(page_va));
        frames_.Ref(pfn);
        if (vma->writable) {
          flags |= PteFlags::kCow;  // break on first write
        }
      }
    }
    if (config_.opts.reuse_elision) {
      co_await ConsultReuseOnFault(cpu, mm, page_va, pfn, flags, vma->page_size);
    }
    mm.pt.Map(page_va, pfn, flags, vma->page_size);
    ChargePteUpdate(cpu, mm, page_va);
    // A not-present fault needs no TLB flush: not-present entries are never
    // cached.
  } else if (kind == FaultKind::kProtWrite) {
    PageTable::WalkResult wr = mm.pt.Walk(page_va);
    Pte pte = wr.pte;
    PageSize walk_size = wr.size;
    if (pte.cow()) {
      ++StatsFor(cpu.id()).cow_faults;
      uint64_t old_pfn = pte.pfn();
      if (frames_.RefCount(old_pfn) == 1) {
        // Sole owner: reuse the page; permission upgrade needs no flush.
        mm.pt.SetPte(page_va, pte.WithFlags(PteFlags::kWrite | PteFlags::kDirty, PteFlags::kCow));
        ChargePteUpdate(cpu, mm, page_va);
      } else {
        uint64_t copy_frames = BytesOf(walk_size) / kPageSize4K;
        co_await cpu.Execute(static_cast<Cycles>(copy_frames) * costs.copy_page);
        reuse_alloc_cpu_ = &cpu;  // attribute a foreign-handoff purge, if any
        uint64_t pfn = frames_.AllocOn(node, copy_frames);
        reuse_alloc_cpu_ = nullptr;
        frames_.Unref(old_pfn);
        mm.pt.SetPte(page_va, pte.WithPfn(pfn).WithFlags(
                                  PteFlags::kWrite | PteFlags::kDirty, PteFlags::kCow));
        ChargePteUpdate(cpu, mm, page_va);
        // The PTE points at a new frame: the stale translation must go (§4.1).
        co_await backend_->OnCowFault(cpu, mm, page_va, pte.executable());
      }
    } else if (vma->shared && vma->file != nullptr && vma->writable) {
      // page_mkwrite: permission upgrade + dirty accounting; no flush needed.
      mm.pt.SetPte(page_va, pte.WithFlags(PteFlags::kWrite | PteFlags::kDirty));
      ChargePteUpdate(cpu, mm, page_va);
    } else {
      assert(false && "unexpected write-protect fault");
    }
  }

  mm.mmap_sem.Unlock(cpu, /*write=*/false);
  cpu.AdvanceInline(costs.sem_op);
  bool prev_if = cpu.irqs_enabled();
  cpu.set_irqs_enabled(false);
  co_await backend_->OnReturnToUser(cpu, mm);
  Cycles exit = costs.pagefault_exit + (config_.pti ? costs.pti_exit_extra : 0);
  co_await cpu.Execute(cpu.rng().Jitter(exit, costs.jitter_frac));
  cpu.set_user_mode(true);
  cpu.set_irqs_enabled(prev_if);
}

Co<void> Kernel::SwitchTo(int cpu_id, MmStruct* mm) {
  ++StatsFor(cpu_id).context_switches;
  SimCpu& cpu = machine_->cpu(cpu_id);
  PerCpu& pc = percpu(cpu_id);
  co_await cpu.Execute(machine_->costs().context_switch);
  if (pc.loaded_mm == mm) {
    co_return;
  }
  if (pc.loaded_mm != nullptr) {
    pc.loaded_mm->cpumask.reset(static_cast<size_t>(cpu_id));
  }
  pc.loaded_mm = mm;
  pc.is_lazy = false;
  if (mm != nullptr) {
    mm->cpumask.set(static_cast<size_t>(cpu_id));
    // Conservative PCID policy: a freshly switched-in mm gets a clean TLB
    // (Linux reuses per-CPU ASIDs; we always flush on a real switch).
    cpu.ArchFlushPcid(mm->kernel_pcid);
    if (config_.pti) {
      cpu.ArchFlushPcid(mm->user_pcid);
    }
    cpu.AdvanceInline(machine_->costs().cr3_write_flush);
    pc.loaded_mm_tlb_gen = mm->tlb_gen;
    cpu.LoadAddressSpace(&mm->pt, mm->kernel_pcid);
    bool prev_if = cpu.irqs_enabled();
    cpu.set_irqs_enabled(false);
    co_await backend_->OnReturnToUser(cpu, *mm);
    cpu.set_irqs_enabled(prev_if);
    cpu.set_user_mode(true);
  }
}

Co<void> Kernel::EnterLazyMode(int cpu_id) {
  ++StatsFor(cpu_id).lazy_entries;
  SimCpu& cpu = machine_->cpu(cpu_id);
  PerCpu& pc = percpu(cpu_id);
  co_await cpu.Execute(machine_->costs().context_switch);
  pc.is_lazy = true;
  // The lazy flag lives on a contended line; which one is the §3.3 choice.
  LineId lazy_line =
      config_.opts.cacheline_consolidation ? pc.csq_line : pc.tlbstate_line;
  cpu.AccessLine(lazy_line, AccessType::kWrite);
  cpu.set_user_mode(false);
}

Co<void> Kernel::LeaveLazyMode(int cpu_id) {
  SimCpu& cpu = machine_->cpu(cpu_id);
  PerCpu& pc = percpu(cpu_id);
  // From the moment the lazy flag drops until the catch-up flush below runs,
  // initiators IPI this CPU again but its loaded generation may still be
  // behind — a paper-sanctioned window the invariant checker must not flag.
  pc.catching_up = true;
  co_await cpu.Execute(machine_->costs().context_switch);
  pc.is_lazy = false;
  LineId lazy_line =
      config_.opts.cacheline_consolidation ? pc.csq_line : pc.tlbstate_line;
  cpu.AccessLine(lazy_line, AccessType::kWrite);
  if (pc.loaded_mm != nullptr) {
    bool prev_if = cpu.irqs_enabled();
    cpu.set_irqs_enabled(false);
    // Catch up with flushes skipped while lazy (paper §2.2 / §3.3 item 1).
    co_await backend_->OnSwitchIn(cpu, *pc.loaded_mm);
    co_await backend_->OnReturnToUser(cpu, *pc.loaded_mm);
    cpu.set_irqs_enabled(prev_if);
  }
  pc.catching_up = false;
  cpu.set_user_mode(true);
}

bool Kernel::NmiUaccessOkay(int cpu_id) const {
  const PerCpu& pc = *percpu_.at(static_cast<size_t>(cpu_id));
  if (pc.loaded_mm == nullptr || pc.is_lazy) {
    return false;
  }
  // Paper §3.2: extend nmi_uaccess_okay() to also fail while acknowledged
  // flushes have not yet been applied on this CPU.
  return pc.unfinished_flushes == 0;
}

}  // namespace tlbsim
