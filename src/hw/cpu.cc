#include "src/hw/cpu.h"

#include <algorithm>
#include <utility>

#include "src/hw/check_sink.h"

namespace tlbsim {

namespace {
// Skylake-ish ITLB: far smaller than the unified DTLB/STLB.
TlbGeometry ItlbGeometry() {
  TlbGeometry geo;
  geo.sets_4k = 16;
  geo.ways_4k = 8;
  geo.sets_2m = 2;
  geo.ways_2m = 4;
  return geo;
}
}  // namespace

SimCpu::SimCpu(int id, Engine* engine, CoherenceModel* coherence, const CostModel* costs, Rng rng,
               Trace* trace, MetricsRegistry* metrics, int numa_node)
    : id_(id),
      engine_(engine),
      coherence_(coherence),
      costs_(costs),
      rng_(rng),
      trace_(trace),
      metrics_(metrics),
      numa_node_(numa_node),
      itlb_(ItlbGeometry()) {
  if (metrics_ != nullptr) {
    mmu_walks_ = &metrics_->percpu("mmu.walks");
    mmu_walk_cycles_ = &metrics_->percpu("mmu.walk_cycles");
    // NUMA counters are registered only on NUMA machines: the registry
    // serializes every registered metric, and flat-machine reports must stay
    // byte-identical to the pre-NUMA simulator.
    if (numa_node_ >= 0) {
      numa_remote_walks_ = &metrics_->percpu("numa.remote_walks");
      numa_remote_walk_cycles_ = &metrics_->percpu("numa.remote_walk_cycles");
      numa_remote_dram_ = &metrics_->percpu("numa.remote_dram_accesses");
    }
  }
}

bool SimCpu::ArchInvlPg(uint16_t pcid, uint64_t va) {
  bool degraded = tlb_.InvlPg(pcid, va);
  degraded |= itlb_.InvlPg(pcid, va);
  pwc_.FlushAll();  // INVLPG drops the whole paging-structure cache
  return degraded;
}

bool SimCpu::ArchInvPcidAddr(uint16_t pcid, uint64_t va) {
  bool degraded = tlb_.InvPcidAddr(pcid, va);
  degraded |= itlb_.InvPcidAddr(pcid, va);
  pwc_.FlushAddress(pcid, va);  // only this address's PWC entry (§3.4)
  return degraded;
}

void SimCpu::ArchFlushPcid(uint16_t pcid) {
  tlb_.FlushPcid(pcid);
  itlb_.FlushPcid(pcid);
  pwc_.FlushPcid(pcid);
}

void SimCpu::ArchFlushAll(bool keep_globals) {
  tlb_.FlushAll(keep_globals);
  itlb_.FlushAll(keep_globals);
  pwc_.FlushAll();
}

void SimCpu::RegisterIrqHandler(int vector, IrqHandler handler) {
  handlers_[vector] = std::move(handler);
}

Cycles SimCpu::AccessLine(LineId line, AccessType type) {
  Cycles c = coherence_->Access(id_, line, type);
  now_ += c;
  return c;
}

void SimCpu::set_irqs_enabled(bool e) {
  irqs_enabled_ = e;
  if (e && armed_ == nullptr && HasDeliverablePending()) {
    KickPendingDelivery();
  }
}

void SimCpu::KickPendingDelivery() {
  ScheduleResume([this] {
    if (armed_ == nullptr && post_irq_waiters_.empty() && scheduled_resumes_ == 0 &&
        HasDeliverablePending()) {
      now_ = std::max(now_, engine_->now());
      DeliverPending(nullptr);
    }
  });
}

void SimCpu::Spawn(SimTask task) {
  Cycles at = std::max(now_, engine_->now());
  now_ = at;
  auto handle = task.Release();
  // Chain a delivery kick onto task completion: a program that ends with
  // masked-then-queued IRQs must not strand them.
  InlineFn prev = std::move(handle.promise().on_done);
  handle.promise().on_done = [this, prev = std::move(prev)] {
    if (prev) {
      prev();
    }
    if (armed_ == nullptr && HasDeliverablePending()) {
      KickPendingDelivery();
    }
  };
  ++scheduled_resumes_;
  auto resume = [this, handle] {
    --scheduled_resumes_;
    handle.resume();
  };
  engine_->ScheduleOnCpu(id_, at, std::move(resume));
}

void SimCpu::ScheduleResume(InlineFn fn) {
  Cycles at = std::max(now_, engine_->now());
  ++scheduled_resumes_;
  auto resume = [this, fn = std::move(fn)] {
    --scheduled_resumes_;
    fn();
  };
  engine_->ScheduleOnCpu(id_, at, std::move(resume));
}

bool SimCpu::CanDeliver(int vector) const {
  if (vector == kNmiVector) {
    return nmi_depth_ == 0;
  }
  return irqs_enabled_;
}

bool SimCpu::HasDeliverablePending() const {
  for (int v : pending_irqs_) {
    if (CanDeliver(v)) {
      return true;
    }
  }
  return false;
}

void SimCpu::RaiseIrq(int vector) {
  ++stats_.ipis_received;
  pending_irqs_.push_back(vector);
  if (armed_ != nullptr) {
    TryPreempt();
    return;
  }
  // No armed wait: the CPU is either mid-drain (post_irq_waiters_ nonempty),
  // about to resume (scheduled_resumes_ > 0) — both handle pending IRQs at
  // their next suspension — or truly idle, in which case it services the
  // interrupt directly, as real idle cores do.
  if (post_irq_waiters_.empty() && scheduled_resumes_ == 0 && HasDeliverablePending()) {
    now_ = std::max(now_, engine_->now());
    DeliverPending(nullptr);
  }
}

void SimCpu::TryPreempt() {
  if (armed_ == nullptr || !HasDeliverablePending()) {
    return;
  }
  ArmedWait* w = armed_;
  armed_ = nullptr;
  w->Preempt(engine_->now());
  DeliverPending(w);
}

void SimCpu::DeliverPending(ArmedWait* after) {
  post_irq_waiters_.push_back(after);
  DrainIrqs();
}

void SimCpu::DrainIrqs() {
  // Pick the first deliverable pending vector, NMIs first.
  auto pick = [this]() -> std::optional<int> {
    for (auto it = pending_irqs_.begin(); it != pending_irqs_.end(); ++it) {
      if (*it == kNmiVector && CanDeliver(*it)) {
        int v = *it;
        pending_irqs_.erase(it);
        return v;
      }
    }
    for (auto it = pending_irqs_.begin(); it != pending_irqs_.end(); ++it) {
      if (CanDeliver(*it)) {
        int v = *it;
        pending_irqs_.erase(it);
        return v;
      }
    }
    return std::nullopt;
  };

  std::optional<int> vector = pick();
  if (!vector.has_value()) {
    ArmedWait* w = post_irq_waiters_.back();
    post_irq_waiters_.pop_back();
    if (w != nullptr) {
      w->Rearm();
    }
    return;
  }
  SimTask task = IrqTask(*vector);
  task.set_on_done([this] { DrainIrqs(); });
  Spawn(std::move(task));
}

SimTask SimCpu::IrqTask(int vector) {
  bool is_nmi = vector == kNmiVector;
  bool from_user = user_mode_;
  Cycles begin = now_;

  ++irq_depth_;
  if (is_nmi) {
    ++nmi_depth_;
  }
  if (check_sink_ != nullptr) {
    check_sink_->OnIrqEnter(*this, vector);
  }
  bool prev_if = irqs_enabled_;
  bool prev_user = user_mode_;
  irqs_enabled_ = false;
  user_mode_ = false;

  Cycles entry;
  if (is_nmi) {
    entry = costs_->nmi_entry;
  } else if (from_user) {
    entry = costs_->irq_entry_user + irq_entry_extra_user_;
  } else {
    entry = costs_->irq_entry_kernel;
  }
  co_await Execute(rng_.Jitter(entry, costs_->jitter_frac));
  if (from_user && !is_nmi && kernel_entry_hook_) {
    kernel_entry_hook_(*this);
  }
  TracePhase(is_nmi ? "nmi: enter" : "irq: enter handler");

  auto it = handlers_.find(vector);
  if (it != handlers_.end()) {
    co_await it->second(*this);
  }

  if (from_user && !is_nmi && return_to_user_hook_) {
    co_await return_to_user_hook_(*this);
  }
  co_await Execute(rng_.Jitter(is_nmi ? costs_->nmi_exit : costs_->irq_exit, costs_->jitter_frac));
  TracePhase(is_nmi ? "nmi: exit" : "irq: exit");

  user_mode_ = prev_user;
  irqs_enabled_ = prev_if;
  if (check_sink_ != nullptr) {
    check_sink_->OnIrqExit(*this, vector);
  }
  if (is_nmi) {
    --nmi_depth_;
  }
  --irq_depth_;

  stats_.cycles_in_irq += now_ - begin;
  if (is_nmi) {
    ++stats_.nmis_handled;
  } else {
    ++stats_.irqs_handled;
  }
}

// ----- ExecAwaitable -----

void SimCpu::ExecAwaitable::await_suspend(std::coroutine_handle<> h) {
  cont = h;
  if (cpu->HasDeliverablePending()) {
    cpu->DeliverPending(this);
    return;
  }
  Arm();
}

void SimCpu::ExecAwaitable::Arm() {
  // A CPU that was idle while others advanced (e.g. a thread pinned to it
  // being driven from another CPU's coroutine) has a stale local clock;
  // fast-forward so the completion is never scheduled into the past.
  cpu->set_now(std::max(cpu->now(), cpu->engine()->now()));
  started = cpu->now();
  armed_here = true;
  cpu->set_armed(this);
  event = cpu->engine()->ScheduleOnCpu(cpu->id(), started + remaining, [this] { Fire(); });
}

void SimCpu::ExecAwaitable::Fire() {
  if (!armed_here) {
    return;
  }
  armed_here = false;
  cpu->set_armed(nullptr);
  cpu->set_now(started + remaining);
  remaining = 0;
  cont.resume();
}

void SimCpu::ExecAwaitable::Preempt(Cycles at) {
  cpu->engine()->Cancel(event);
  armed_here = false;
  Cycles t = std::max(at, started);
  Cycles consumed = t - started;
  remaining = std::max<Cycles>(0, remaining - consumed);
  cpu->set_now(t);
}

void SimCpu::ExecAwaitable::Rearm() {
  if (remaining > 0) {
    Arm();
    return;
  }
  cpu->ScheduleResume([this] { cont.resume(); });
}

// ----- FlagAwaitable -----

bool SimCpu::FlagAwaitable::await_ready() noexcept {
  if (flag->is_set()) {
    if (flag->set_time() > cpu->now()) {
      cpu->set_now(flag->set_time());
    }
    return true;
  }
  return false;
}

void SimCpu::FlagAwaitable::await_suspend(std::coroutine_handle<> h) {
  cont = h;
  if (cpu->HasDeliverablePending()) {
    cpu->DeliverPending(this);
    return;
  }
  Arm();
}

void SimCpu::FlagAwaitable::Arm() {
  started = cpu->now();
  armed_here = true;
  alive = std::make_shared<bool>(true);
  cpu->set_armed(this);
  token = flag->AddWaiter([this, guard = alive](Cycles set_time) {
    if (*guard) {
      Fire(set_time);
    }
  });
}

void SimCpu::FlagAwaitable::Fire(Cycles set_time) {
  if (!armed_here) {
    return;  // preempted between Set() and wakeup; spurious resume covers us
  }
  armed_here = false;
  *alive = false;
  cpu->set_armed(nullptr);
  cpu->set_now(std::max(started, set_time));
  cont.resume();
}

void SimCpu::FlagAwaitable::Preempt(Cycles at) {
  armed_here = false;
  if (alive) {
    *alive = false;
  }
  flag->RemoveWaiter(token);  // no-op if Set() already consumed the waiter
  cpu->set_now(std::max(at, started));
}

void SimCpu::FlagAwaitable::Rearm() {
  // Spurious wake after interrupt handling: the caller's loop re-checks the
  // flag and re-waits if needed.
  cpu->ScheduleResume([this] { cont.resume(); });
}

}  // namespace tlbsim
