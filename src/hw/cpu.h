// SimCpu: one simulated logical CPU.
//
// A SimCpu owns a local virtual clock, the architectural state the paper's
// protocols manipulate (active PCID / address-space root, interrupt-enable
// flag, user/kernel mode, TLB + page-walk cache), and the interrupt
// machinery. Simulated programs are coroutines that consume virtual time via
// two awaitables:
//
//   co_await cpu.Execute(cycles)   -- interruptible busy work; if an IPI/NMI
//                                     arrives mid-delay the handler runs on
//                                     this CPU's timeline, then the remaining
//                                     cycles complete.
//   co_await cpu.WaitFlag(flag)    -- interruptible wait; resumes when the
//                                     flag is set OR spuriously after any
//                                     interrupt was handled (callers re-check
//                                     in a loop, exactly like a spin loop).
//
// Small costs (cacheline accesses, TLB walks) are charged inline via
// AccessLine()/AdvanceInline() without suspension: the local clock may run
// ahead of the engine clock; every outward-visible action is scheduled at
// local time, preserving causality.
//
// Invariant: at most one wait is "armed" per CPU at any instant, because
// preemption disarms the interrupted wait before the handler chain starts,
// and handlers themselves only arm one wait at a time (nested preemption is
// NMI-only, which disarms the handler's wait first).
#ifndef TLBSIM_SRC_HW_CPU_H_
#define TLBSIM_SRC_HW_CPU_H_

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>

#include "src/cache/coherence.h"
#include "src/hw/cost_model.h"
#include "src/hw/tlb.h"
#include "src/sim/engine.h"
#include "src/sim/flag.h"
#include "src/sim/metrics.h"
#include "src/sim/rng.h"
#include "src/sim/task.h"
#include "src/sim/trace.h"

namespace tlbsim {

class PageTable;
class HwCheckSink;

// Interrupt vectors used by the simulation.
inline constexpr int kNmiVector = 2;
inline constexpr int kCallFunctionVector = 0xfb;  // Linux CALL_FUNCTION_VECTOR
inline constexpr int kRescheduleVector = 0xfd;

class SimCpu {
 public:
  using IrqHandler = std::function<Co<void>(SimCpu&)>;

  struct Stats {
    uint64_t irqs_handled = 0;
    uint64_t nmis_handled = 0;
    Cycles cycles_in_irq = 0;  // total wall time stolen from the interrupted context
    uint64_t ipis_received = 0;
  };

  // `numa_node` < 0 means NUMA-flat (default): no remote charges anywhere
  // and no NUMA metrics registered, preserving byte-identical reports.
  SimCpu(int id, Engine* engine, CoherenceModel* coherence, const CostModel* costs, Rng rng,
         Trace* trace = nullptr, MetricsRegistry* metrics = nullptr, int numa_node = -1);
  SimCpu(const SimCpu&) = delete;
  SimCpu& operator=(const SimCpu&) = delete;

  int id() const { return id_; }
  // Memory node this CPU sits on; -1 when the machine is NUMA-flat.
  int numa_node() const { return numa_node_; }
  Cycles now() const { return now_; }
  Engine* engine() { return engine_; }
  const CostModel& costs() const { return *costs_; }
  Rng& rng() { return rng_; }
  Tlb& tlb() { return tlb_; }
  Tlb& itlb() { return itlb_; }
  PageWalkCache& pwc() { return pwc_; }
  Stats& stats() { return stats_; }
  MetricsRegistry* metrics() { return metrics_; }

  // Live MMU accounting (called from Mmu::Translate on TLB misses); no-op
  // when the CPU was built without a registry (unit-test rigs).
  void NotePageWalk(Cycles walk_cost) {
    if (mmu_walks_ != nullptr) {
      mmu_walks_->Inc(id_);
      mmu_walk_cycles_->Inc(id_, static_cast<uint64_t>(walk_cost));
    }
  }

  // NUMA accounting; handles exist only on NUMA-enabled machines, so these
  // are no-ops (and the counters absent from reports) when NUMA is off.
  void NoteRemoteWalk(Cycles extra_cost) {
    if (numa_remote_walks_ != nullptr) {
      numa_remote_walks_->Inc(id_);
      numa_remote_walk_cycles_->Inc(id_, static_cast<uint64_t>(extra_cost));
    }
  }
  void NoteRemoteDram() {
    if (numa_remote_dram_ != nullptr) {
      numa_remote_dram_->Inc(id_);
    }
  }

  // --- architectural TLB flushes ---
  // These mirror the x86 instructions, which invalidate BOTH the data and
  // instruction TLBs plus the relevant paging-structure-cache entries. The
  // §4.1 CoW trick deliberately bypasses these: a data access can displace a
  // DTLB entry but never an ITLB entry, hence the executable-PTE guard.
  // Each returns true if fracturing degraded the flush to a full flush.
  bool ArchInvlPg(uint16_t pcid, uint64_t va);
  bool ArchInvPcidAddr(uint16_t pcid, uint64_t va);
  void ArchFlushPcid(uint16_t pcid);
  void ArchFlushAll(bool keep_globals);

  // --- architectural state ---
  bool user_mode() const { return user_mode_; }
  void set_user_mode(bool u) { user_mode_ = u; }
  bool irqs_enabled() const { return irqs_enabled_; }
  // Re-enabling with deliverable IRQs pending schedules a delivery kick, so
  // interrupts masked across a code region are never stranded even if the
  // program ends without suspending again.
  void set_irqs_enabled(bool e);
  bool in_irq() const { return irq_depth_ > 0; }
  bool in_nmi() const { return nmi_depth_ > 0; }

  uint16_t active_pcid() const { return active_pcid_; }
  PageTable* active_pt() const { return active_pt_; }
  void LoadAddressSpace(PageTable* pt, uint16_t pcid) {
    active_pt_ = pt;
    active_pcid_ = pcid;
  }

  // Extra cost for IRQ entry from user mode (PTI trampoline); installed by
  // the kernel when running in "safe" mode.
  void set_irq_entry_extra_user(Cycles c) { irq_entry_extra_user_ = c; }

  // Kernel hooks around interrupts taken from user mode:
  //  - entry hook: models the PTI trampoline loading the kernel PCID;
  //  - return hook: models the exit path (deferred user-space TLB flushes,
  //    §3.4, then the user PCID reload). Both run on this CPU's timeline and
  //    count toward the interrupted context's stolen cycles.
  void set_kernel_entry_hook(std::function<void(SimCpu&)> hook) {
    kernel_entry_hook_ = std::move(hook);
  }
  void set_return_to_user_hook(std::function<Co<void>(SimCpu&)> hook) {
    return_to_user_hook_ = std::move(hook);
  }

  // --- interrupt plumbing ---
  void RegisterIrqHandler(int vector, IrqHandler handler);

  // Delivers an interrupt to this CPU at virtual time `arrival` (callers
  // schedule an engine event; RaiseIrq must run AT that event).
  void RaiseIrq(int vector);

  // --- time consumption ---
  struct ExecAwaitable;
  struct FlagAwaitable;

  // Interruptible busy work of `c` cycles.
  ExecAwaitable Execute(Cycles c);

  // Interruptible wait; wakes when `f` is set or spuriously after interrupt
  // handling. await_resume() returns f.is_set().
  FlagAwaitable WaitFlag(SimFlag& f);

  // Inline (non-suspending) costs.
  Cycles AccessLine(LineId line, AccessType type);
  void AdvanceInline(Cycles c) {
    assert(c >= 0);
    now_ += c;
  }

  // Starts a detached program on this CPU at max(local, engine) time.
  void Spawn(SimTask task);

  // Schedules `fn` on this CPU's timeline and tracks it so the idle-delivery
  // logic knows the CPU is about to run (not truly idle).
  //
  // Every self-schedule (Spawn, resume kicks, Execute completions) goes
  // through Engine::ScheduleOnCpu: on protocol shards it lands on the shard
  // that owns this CPU, so socket-confined work never leaves its shard; on
  // an unsharded engine it is the current timeline, exactly like Schedule.
  void ScheduleResume(InlineFn fn);

  void TracePhase(const char* tag) {
    if (trace_ != nullptr) {
      trace_->Record(now_, id_, tag);
    }
  }
  Trace* trace() { return trace_; }

  // tlbcheck hardware sink (src/check/); null when checking is off.
  void set_check_sink(HwCheckSink* sink) { check_sink_ = sink; }
  HwCheckSink* check_sink() const { return check_sink_; }

  // --- internals shared with the awaitables ---
  struct ArmedWait {
    virtual ~ArmedWait() = default;
    // Disarm due to an interrupt at time `at`; the wait will be Rearm()ed
    // after the handler chain drains.
    virtual void Preempt(Cycles at) = 0;
    virtual void Rearm() = 0;
  };

 private:
  friend struct ExecAwaitable;
  friend struct FlagAwaitable;

  bool HasDeliverablePending() const;
  bool CanDeliver(int vector) const;
  // Schedules an idle-delivery check at the current time.
  void KickPendingDelivery();
  // Runs deliverable pending IRQs, then Rearm()s `after` (which may be null).
  void DeliverPending(ArmedWait* after);
  void DrainIrqs();
  SimTask IrqTask(int vector);
  void TryPreempt();

  void set_armed(ArmedWait* w) { armed_ = w; }
  ArmedWait* armed() { return armed_; }
  void set_now(Cycles t) {
    assert(t >= now_);
    now_ = t;
  }

  int id_;
  Engine* engine_;
  CoherenceModel* coherence_;
  const CostModel* costs_;
  Rng rng_;
  Trace* trace_;
  MetricsRegistry* metrics_;
  PerCpuCounter* mmu_walks_ = nullptr;        // cached handles (hot path)
  PerCpuCounter* mmu_walk_cycles_ = nullptr;
  PerCpuCounter* numa_remote_walks_ = nullptr;        // NUMA machines only
  PerCpuCounter* numa_remote_walk_cycles_ = nullptr;
  PerCpuCounter* numa_remote_dram_ = nullptr;
  int numa_node_ = -1;

  Tlb tlb_;   // data TLB (+ second level)
  Tlb itlb_;  // instruction TLB (smaller)
  PageWalkCache pwc_;

  Cycles now_ = 0;
  bool user_mode_ = true;
  bool irqs_enabled_ = true;
  int irq_depth_ = 0;
  int nmi_depth_ = 0;
  Cycles irq_entry_extra_user_ = 0;

  uint16_t active_pcid_ = 0;
  PageTable* active_pt_ = nullptr;

  std::map<int, IrqHandler> handlers_;
  std::function<void(SimCpu&)> kernel_entry_hook_;
  std::function<Co<void>(SimCpu&)> return_to_user_hook_;
  std::deque<int> pending_irqs_;
  ArmedWait* armed_ = nullptr;
  std::vector<ArmedWait*> post_irq_waiters_;
  int scheduled_resumes_ = 0;  // continuations queued for this CPU
  HwCheckSink* check_sink_ = nullptr;

  Stats stats_;
};

// ----- awaitables -----

struct SimCpu::ExecAwaitable final : SimCpu::ArmedWait {
  SimCpu* cpu;
  Cycles remaining;
  std::coroutine_handle<> cont;
  Engine::EventId event = Engine::kInvalidEvent;
  Cycles started = 0;
  bool armed_here = false;

  ExecAwaitable(SimCpu* c, Cycles dur) : cpu(c), remaining(dur < 0 ? 0 : dur) {}

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h);
  void await_resume() const noexcept {}

  void Arm();
  void Fire();
  void Preempt(Cycles at) override;
  void Rearm() override;
};

struct SimCpu::FlagAwaitable final : SimCpu::ArmedWait {
  SimCpu* cpu;
  SimFlag* flag;
  std::coroutine_handle<> cont;
  Cycles started = 0;
  bool armed_here = false;
  // Lifetime guard shared with the registered waiter callback: a Set() can
  // schedule the callback while a preemption disarms (and later destroys)
  // this awaitable; the callback must then be a no-op, not a use-after-free.
  std::shared_ptr<bool> alive;
  SimFlag::WaiterToken token = 0;

  FlagAwaitable(SimCpu* c, SimFlag* f) : cpu(c), flag(f) {}

  bool await_ready() noexcept;
  void await_suspend(std::coroutine_handle<> h);
  bool await_resume() const noexcept { return flag->is_set(); }

  void Arm();
  void Fire(Cycles set_time);
  void Preempt(Cycles at) override;
  void Rearm() override;
};

inline SimCpu::ExecAwaitable SimCpu::Execute(Cycles c) { return ExecAwaitable(this, c); }
inline SimCpu::FlagAwaitable SimCpu::WaitFlag(SimFlag& f) { return FlagAwaitable(this, &f); }

}  // namespace tlbsim

#endif  // TLBSIM_SRC_HW_CPU_H_
