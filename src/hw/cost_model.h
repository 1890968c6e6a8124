// Central cycle-cost table for the simulated machine.
//
// Values approximate a Skylake-era Xeon (the paper's Dell R630 testbed) and
// are taken from the figures the paper itself cites where available:
//   - ~200 cycles for a local INVLPG (paper §2.2, [7,17]);
//   - INVPCID individual-address slower than INVLPG (paper §3.4, [23]);
//   - IPI delivery "potentially over 1000 cycles" (paper §3.2);
//   - full shootdowns costing several thousand cycles (§2.2).
// Everything is tunable so experiments can ablate the model.
#ifndef TLBSIM_SRC_HW_COST_MODEL_H_
#define TLBSIM_SRC_HW_COST_MODEL_H_

#include "src/cache/coherence.h"
#include "src/sim/time.h"

namespace tlbsim {

struct CostModel {
  // --- TLB manipulation instructions ---
  Cycles invlpg = 200;             // invalidate one PTE, current PCID
  Cycles invpcid_addr = 330;       // INVPCID individual-address (inactive PCID)
  Cycles invpcid_single_ctx = 450; // INVPCID single-context (flush one PCID)
  Cycles cr3_write_flush = 600;    // CR3 write without NOFLUSH: full non-global flush
  Cycles cr3_switch = 220;         // CR3 write with NOFLUSH bit (PCID switch)
  Cycles lfence = 30;
  Cycles pte_update = 14;          // one atomic PTE store (plus cacheline cost)

  // --- page walks ---
  Cycles walk_step = 25;           // one paging-structure level
  int walk_levels = 4;             // PML4..PT
  Cycles walk_pwc_hit = 50;        // walk served by the page-walk cache (leaf levels only)

  // --- kernel entry/exit ---
  Cycles syscall_entry = 150;
  Cycles syscall_exit = 130;
  Cycles pti_entry_extra = 260;    // trampoline + CR3 switch on entry (safe mode)
  Cycles pti_exit_extra = 260;     // CR3 switch back on exit (safe mode)
  Cycles irq_entry_kernel = 350;   // vector dispatch when interrupted in kernel
  Cycles irq_entry_user = 480;     // interrupted in user mode (mode switch)
  Cycles irq_exit = 300;
  Cycles nmi_entry = 900;
  Cycles nmi_exit = 700;
  Cycles nmi_uaccess_check = 25;   // the nmi_uaccess_okay()-style check (§3.2)

  // --- IPIs (x2APIC) ---
  Cycles ipi_icr_write = 100;      // one ICR MSR write (per multicast cluster message)
  Cycles ipi_wire_smt = 400;       // delivery latency to an SMT sibling
  Cycles ipi_wire_same_socket = 800;
  Cycles ipi_wire_cross_socket = 1500;

  // --- kernel software paths ---
  Cycles flush_dispatch = 220;     // compute target cpumask, build flush_tlb_info
  Cycles smp_enqueue = 60;         // llist_add of a CFD onto a remote CSQ (plus cacheline)
  Cycles handler_body = 80;        // flush_tlb_func bookkeeping before any INVLPG
  Cycles context_switch = 900;
  Cycles vma_op_body = 240;        // find_vma + bookkeeping inside mm syscalls
  Cycles zap_per_page = 45;        // per-page unmap/protect software work
  Cycles pagefault_entry = 520;    // #PF exception entry + bookkeeping
  Cycles pagefault_exit = 380;
  Cycles pagefault_body = 320;     // vma lookup, policy checks
  Cycles copy_page = 1100;         // 4KB page copy (CoW break)
  Cycles cow_atomic_fixup = 60;    // the lock-prefixed no-op RMW of §4.1
  Cycles sem_op = 40;              // mmap_sem fast-path acquire/release
  Cycles pmem_writeback = 1000;    // CPU-side cost to write one dirty 4KB page
  Cycles pmem_channel_occupancy = 1200;  // shared-bandwidth serialization per page
  // Split-layout only: flush_tlb_info lives on the initiator's 4KB-mapped
  // stack, costing extra dTLB pressure vs 2MB-mapped globals (§3.3 item 2).
  Cycles stack_info_tlb_penalty = 35;

  // --- queue flush backend (charmos-style async shootdown) ---
  // Protocol knobs: bounded per-responder address ring, initiator spin with
  // exponential backoff between IPI resends. Constants mirror charmos
  // (TLB_QUEUE_SIZE / INITIAL_SPIN / MAX_RETRIES / BACKOFF_MULT).
  int queue_ring_entries = 64;       // per-responder ring capacity (addresses)
  Cycles queue_initial_spin = 2000;  // first ack-wait budget before a resend
  int queue_max_retries = 6;         // IPI resends before the initiator gives up
  int queue_backoff_mult = 4;        // spin budget multiplier per retry round
  // Cycle costs for the queue protocol's software paths.
  Cycles queue_enqueue = 60;         // one ring slot store (plus cacheline)
  Cycles queue_spin_poll = 100;      // one ack_gen poll iteration while spinning
  Cycles queue_ack_publish = 50;     // responder's tail/ack_gen publication window

  // --- NUMA (charged only when MachineConfig::numa.nodes > 1) ---
  // Remote-DRAM penalties follow the ~1.4-2x local/remote latency ratio of
  // 2-socket Xeons. Page-walk steps hit DRAM on PWC misses, so a walk
  // through remote paging structures pays per fetched level (the Mitosis
  // motivation); replica maintenance pays a store per extra replica.
  Cycles walk_step_remote_extra = 90;  // per paging-structure fetch from a remote node
  Cycles dram_remote_access = 120;     // data access to a frame on a remote node
  Cycles replica_pte_update = 40;      // per-replica PTE propagation store

  // --- cacheline coherence ---
  CacheCosts cache;

  // Fractional jitter applied to wire/entry costs when an Rng is supplied.
  double jitter_frac = 0.03;
};

}  // namespace tlbsim

#endif  // TLBSIM_SRC_HW_COST_MODEL_H_
