// The paper's contribution: the Linux 5.2.8 TLB shootdown protocol with the
// six optimizations of Table 1 behind independent feature flags.
//
// Initiator path (FlushRange / DoShootdown):
//   baseline:  bump tlb_gen -> local flush (both PCIDs under PTI) ->
//              enqueue CFDs + multicast IPI -> spin for every ack.
//   concurrent flushing (§3.1): IPIs first, local flush while they fly.
//   in-context flushes (§3.4): user-PCID work deferred to return-to-user,
//              except (§3.4 "4a") while waiting for the first ack, spare
//              cycles keep flushing user PTEs eagerly.
//   early ack (§3.2): responders ack at handler entry (forbidden when page
//              tables are freed); nmi_uaccess_okay() fails while an accepted
//              flush is unapplied.
//   cacheline consolidation (§3.3): flush info inlined in the CFD; the lazy
//              flag colocated with the CSQ head.
//   userspace-safe batching (§4.2): suitable syscalls defer flushes into 4
//              slots; a barrier before mmap_sem release completes them.
//   CoW avoidance (§4.1): OnCowFault replaces the local flush with an atomic
//              no-op write (skipped for executable PTEs).
//
// Responder path (HandleFlushIrq) implements Linux's generation logic: skip
// if already covered; selective only when exactly one generation behind;
// otherwise full flush and catch up (this is what creates the "TLB flush
// storm" behaviour of §5.2).
#ifndef TLBSIM_SRC_CORE_SHOOTDOWN_H_
#define TLBSIM_SRC_CORE_SHOOTDOWN_H_

#include <cstdint>
#include <vector>

#include "src/core/fault_injection.h"
#include "src/kernel/flush_backend.h"
#include "src/kernel/kernel.h"
#include "src/sim/metrics.h"

namespace tlbsim {

class ShootdownEngine final : public TlbFlushBackend {
 public:
  struct Stats {
    uint64_t flush_requests = 0;
    uint64_t shootdowns = 0;      // flushes with >= 1 remote target
    uint64_t local_only = 0;
    uint64_t full_local_flushes = 0;
    uint64_t invlpg_issued = 0;
    uint64_t invpcid_issued = 0;
    uint64_t early_acks = 0;
    uint64_t late_acks = 0;
    uint64_t deferred_selective = 0;  // user-PTE flushes deferred in-context
    uint64_t in_context_invlpg = 0;   // user PTEs flushed at return-to-user
    uint64_t in_context_full = 0;     // deferred flushes promoted to full
    uint64_t eager_user_during_wait = 0;  // §3.4 "4a" flushes
    uint64_t batched_absorbed = 0;    // FlushRange calls absorbed into a batch
    uint64_t batch_shootdowns = 0;
    uint64_t batched_ipi_skipped = 0; // IPIs avoided because the target batches
    uint64_t batch_barrier_flushes = 0;  // catch-up flushes at EndBatch
    uint64_t responder_skipped_gen = 0;
    uint64_t responder_selective = 0;
    uint64_t responder_full = 0;
    uint64_t responder_full_storm = 0;  // full because >1 generation behind
    uint64_t cow_flush_avoided = 0;
    uint64_t cow_flushes = 0;
    uint64_t lazy_skipped = 0;          // IPIs avoided thanks to lazy mode
    uint64_t switch_in_flushes = 0;
  };

  explicit ShootdownEngine(Kernel* kernel);

  // TlbFlushBackend:
  Co<void> FlushRange(SimCpu& cpu, MmStruct& mm, uint64_t start, uint64_t end, int stride_shift,
                      bool freed_tables) override;
  Co<void> OnReturnToUser(SimCpu& cpu, MmStruct& mm) override;
  Co<void> OnCowFault(SimCpu& cpu, MmStruct& mm, uint64_t va, bool executable) override;
  void BeginBatch(SimCpu& cpu, MmStruct& mm) override;
  Co<void> EndBatch(SimCpu& cpu, MmStruct& mm) override;
  Co<void> OnSwitchIn(SimCpu& cpu, MmStruct& mm) override;
  Co<void> HandleFlushIrq(SimCpu& cpu) override;

  // Summed over banks (one bank — the legacy flat counters — by default).
  Stats stats() const;
  void ResetStats() {  // tlblint: setup — between runs, engine quiescent
    for (Stats& b : banks_) {
      b = Stats{};
    }
  }

  // Protocol sharding: banks the counters and the protocol histograms
  // ("shootdown.*.socket<k>") by the acting CPU's socket, so protocol phases
  // running concurrently in different shards never share a counter
  // word or interleave nondeterministically into one histogram reservoir.
  // banks <= 1 keeps the legacy flat shape and metric names.
  void ConfigureBanks(int banks, int cpus_per_bank);

  // Debug contract check for socket-confined storms: every FlushRange must
  // find the mm's cpumask confined to the initiator's socket (the protocol
  // storm always runs with this on).
  void set_check_confined(bool on) { check_confined_ = on; }

  // Deliberate protocol faults for tlbcheck validation (tests only).
  void set_fault_injection(const FaultInjection& fi) {
    inject_ = fi;
    // The replica knob lives on the page tables themselves; the kernel
    // fans it out to every process (existing and future).
    kernel_->SetReplicaSkip(fi.skip_replica_propagation);
    // The reuse knob lives on the kernel's elision close path.
    kernel_->SetReuseElideUnsafe(fi.reuse_elide_unsafe);
  }

 private:
  const OptimizationSet& opts() const { return kernel_->config().opts; }
  bool pti() const { return kernel_->config().pti; }
  uint64_t threshold() const { return kernel_->config().flush_full_threshold; }

  // CPUs that must receive an IPI: mm's cpumask minus the initiator minus
  // lazy CPUs minus (when no page tables are freed) CPUs advertising batched
  // mode (§4.2: "indicate that other cores not send IPIs ... during the
  // system call"; they synchronize at their mmap_sem barrier instead).
  // Charges the lazy-flag cacheline reads (§3.3 item 1).
  std::vector<int> ComputeTargets(SimCpu& cpu, MmStruct& mm, bool freed_tables);

  // One (possibly multi-info) shootdown: local flush + IPIs + ack wait.
  Co<void> DoShootdown(SimCpu& cpu, MmStruct& mm, std::vector<FlushTlbInfo> infos);

  // Initiator-local flush of every info. When `targets` is non-empty and
  // concurrent+in-context are on, user-PTE flushing continues only until the
  // first ack is visible (§3.4 4a).
  Co<void> LocalFlushAll(SimCpu& cpu, MmStruct& mm, const std::vector<FlushTlbInfo>& infos,
                         const std::vector<int>& targets);

  // Responder-side processing of one info under the generation protocol.
  Co<void> ResponderFlushOne(SimCpu& cpu, const FlushTlbInfo& info);

  // User-address-space part of a selective flush on the initiator.
  void FlushUserPte(SimCpu& cpu, MmStruct& mm, uint64_t va, int stride_shift);

  bool AckVisible(SimCpu& cpu, const std::vector<int>& targets);

  void Ack(SimCpu& cpu, Cfd& cfd);

  // tlbcheck sink (null when checking is off); shared with the kernel.
  ProtocolCheckSink* chk() const { return kernel_->check_sink(); }

  // tlblint: shard-local — resolves into the acting cpu's own bank
  Stats& StatsFor(const SimCpu& cpu) {
    if (banks_.size() == 1) return banks_[0];
    size_t b = static_cast<size_t>(cpu.id()) / static_cast<size_t>(cpus_per_bank_);
    return banks_[b < banks_.size() ? b : banks_.size() - 1];
  }
  // tlblint: shard-local — resolves into the acting cpu's own bank
  Histogram* HistFor(const std::vector<Histogram*>& banked, Histogram* flat, int cpu_id) const {
    if (banked.empty()) return flat;
    size_t b = static_cast<size_t>(cpu_id) / static_cast<size_t>(cpus_per_bank_);
    return banked[b < banked.size() ? b : banked.size() - 1];
  }

  Kernel* kernel_;
  std::vector<Stats> banks_{1};  // tlblint: banked(socket)
  int cpus_per_bank_ = 1 << 30;
  bool check_confined_ = false;
  FaultInjection inject_;

  // Live observability handles, resolved once in the ctor (the registry map
  // lookup stays off the per-shootdown path). Histograms measure *virtual*
  // cycles; the scoped timers fire at co_return, so a whole DoShootdown /
  // HandleFlushIrq — including every suspension — is one sample.
  Histogram* h_initiator_cycles_ = nullptr;  // shootdown.initiator_cycles
  Histogram* h_flush_irq_cycles_ = nullptr;  // shootdown.flush_irq_cycles
  Histogram* h_targets_ = nullptr;           // shootdown.targets per dispatch
  PerCpuCounter* c_initiated_ = nullptr;     // shootdown.initiated
  PerCpuCounter* c_flush_irqs_ = nullptr;    // shootdown.flush_irqs
  // Per-socket variants ("<name>.socket<k>"), protocol-shard mode only.
  std::vector<Histogram*> hb_initiator_cycles_;  // tlblint: banked(socket)
  std::vector<Histogram*> hb_flush_irq_cycles_;  // tlblint: banked(socket)
  std::vector<Histogram*> hb_targets_;           // tlblint: banked(socket)
};

}  // namespace tlbsim

#endif  // TLBSIM_SRC_CORE_SHOOTDOWN_H_
