#include "src/sim/engine.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace tlbsim {

thread_local Engine::Queue* Engine::tls_queue_ = nullptr;

Engine::Engine() {
  auto q = std::make_unique<Queue>();
  q->index = 0;
  main_queue_ = q.get();
  queues_.push_back(std::move(q));
}

void Engine::ConfigureSharding(ShardPlan plan) {
  // Single-threaded setup: no phase has run, so the caller's thread is the
  // coordinator and owns every queue it is about to create.
  main_queue_->cap.AssertHeld();
  // Quiescent, not necessarily fresh: a setup phase may have run serially
  // (and advanced the clock) as long as no event is pending when the queues
  // split — new shards inherit the serial clock so causality holds.
  assert(queues_.size() == 1 && main_queue_->heap.empty() &&
         "sharding must be configured on a quiescent engine");
  if (plan.shards <= 1) {
    return;  // unsharded: ScheduleOnCpu degenerates to Schedule
  }
  const int nq = plan.shards + 1;
  assert(nq <= kMaxQueues && "too many shards for the id encoding");
  executor_ = plan.executor;
  queues_.reserve(static_cast<size_t>(nq));
  for (int i = 1; i < nq; ++i) {
    auto q = std::make_unique<Queue>();
    q->cap.AssertHeld();  // freshly built, visible only to this thread
    q->index = i;
    q->now = main_queue_->now;
    queues_.push_back(std::move(q));
  }
  queue_of_cpu_.resize(plan.shard_of_cpu.size());
  for (size_t c = 0; c < plan.shard_of_cpu.size(); ++c) {
    assert(plan.shard_of_cpu[c] >= 0 && plan.shard_of_cpu[c] < plan.shards);
    queue_of_cpu_[c] = static_cast<uint8_t>(plan.shard_of_cpu[c] + 1);
  }
}

Engine::EventId Engine::Schedule(Cycles at, InlineFn fn) {
  Queue& q = CurrentQueue();
  // The current timeline belongs to this thread: the phase hand-off in
  // RunQueue inside a phase, coordinator ownership outside one.
  q.cap.AssertHeld();
  uint32_t slot = AllocSlot(q);
  FnAt(q, slot) = std::move(fn);
  return Enqueue(q, at, slot);
}

Engine::EventId Engine::ScheduleOnCpu(int cpu, Cycles at, InlineFn fn) {
  Queue& dst = TargetQueue(cpu, at);
  // Ownership as in the template overload.
  dst.cap.AssertHeld();
  uint32_t slot = AllocSlot(dst);
  FnAt(dst, slot) = std::move(fn);
  return Enqueue(dst, at, slot);
}

void Engine::CheckForeignInsert(const Queue& cur, Queue& dst, Cycles at) const {
  if (in_parallel_phase_) {
    std::fprintf(stderr,
                 "tlbsim engine: queue %d scheduled onto queue %d during a parallel phase; "
                 "shards are closed while they run\n",
                 cur.index, dst.index);
    std::abort();
  }
  // Between phases the coordinator owns every queue.
  dst.cap.AssertHeld();
  if (at < dst.now) {
    std::fprintf(stderr,
                 "tlbsim engine: queue %d scheduled onto queue %d at %lld, behind its clock "
                 "%lld\n",
                 cur.index, dst.index, static_cast<long long>(at),
                 static_cast<long long>(dst.now));
    std::abort();
  }
}

uint32_t Engine::AllocSlot(Queue& q) {
  uint32_t slot;
  if (!q.free.empty()) {
    slot = q.free.back();
    q.free.pop_back();
  } else {
    slot = q.pool_size++;
    if ((slot & (kChunkSize - 1)) == 0) {
      q.chunks.push_back(std::make_unique<InlineFn[]>(kChunkSize));
      // Both the heap and the free list are bounded by the pool size (every
      // pending event owns a slot; every free-list entry is a slot), so
      // reserving here makes their push_backs allocation-free between pool
      // growths — the steady state performs no allocation at all.
      q.heap.reserve(q.pool_size + kChunkSize);
      q.free.reserve(q.pool_size + kChunkSize);
    }
    q.pos.push_back(-1);
    q.gen.push_back(0);
  }
  assert(slot <= kSlotMask && "too many concurrent events");
  return slot;
}

Engine::EventId Engine::Enqueue(Queue& q, Cycles at, uint32_t slot) {
  assert(at >= q.now && "scheduling into the past");
  assert(q.next_seq < (uint64_t{1} << (64 - kSlotBits)) && "seq overflow");
  q.heap.push_back(HeapItem{at, (q.next_seq++ << kSlotBits) | slot});
  SiftUp(q, q.heap.size() - 1);
  if (q.index != 0 && !in_parallel_phase_) {
    ++parallel_pending_;
  }
  return MakeId(q.gen[slot], q.index, slot);
}

void Engine::Cancel(EventId id) {
  if (id == kInvalidEvent) {
    return;
  }
  int qi = static_cast<int>((id >> kDirectSlotBits) & kQueueMask);
  if (static_cast<size_t>(qi) >= queues_.size()) {
    return;
  }
  Queue& q = *queues_[static_cast<size_t>(qi)];
  Queue& cur = CurrentQueue();
  if (&q != &cur && in_parallel_phase_) {
    std::fprintf(stderr,
                 "tlbsim engine: queue %d cancelled an event of queue %d during a parallel "
                 "phase; shards are closed while they run\n",
                 cur.index, q.index);
    std::abort();
  }
  // Own timeline, or the coordinator between phases, owning every queue.
  q.cap.AssertHeld();
  uint32_t slot = (static_cast<uint32_t>(id) & ((1u << kDirectSlotBits) - 1)) - 1;
  uint32_t gen = static_cast<uint32_t>(id >> 32);
  if (slot >= q.pool_size) {
    return;
  }
  if (q.gen[slot] != gen || q.pos[slot] < 0) {
    return;  // already fired or already cancelled
  }
  RemoveAt(q, static_cast<size_t>(q.pos[slot]));
}

void Engine::Spawn(Cycles at, SimTask task) {
  auto handle = task.Release();
  // Root tasks may be spawned after the engine has already run (test
  // harnesses spawn successive programs at t=0); start them no earlier
  // than now rather than tripping the causality assert in Schedule.
  Schedule(std::max(at, now()), [handle] { handle.resume(); });
}

void Engine::SiftUp(Queue& q, size_t i) {
  HeapItem item = q.heap[i];
  while (i > 0) {
    size_t parent = (i - 1) / 4;
    if (!Before(item, q.heap[parent])) {
      break;
    }
    q.heap[i] = q.heap[parent];
    q.pos[SlotOf(q.heap[i])] = static_cast<int32_t>(i);
    i = parent;
  }
  q.heap[i] = item;
  q.pos[SlotOf(item)] = static_cast<int32_t>(i);
}

void Engine::SiftDown(Queue& q, size_t i) {
  HeapItem* h = q.heap.data();
  int32_t* pos = q.pos.data();
  const size_t n = q.heap.size();
  HeapItem item = h[i];
  const unsigned __int128 item_key = KeyOf(item);
  for (;;) {
    size_t first = 4 * i + 1;
    if (first >= n) {
      break;
    }
    // Branchless min-of-children: ternary selects compile to cmovs, which
    // matters because child ordering is unpredictable (see KeyOf).
    size_t best = first;
    unsigned __int128 best_key = KeyOf(h[first]);
    size_t last = std::min(first + 4, n);
    for (size_t c = first + 1; c < last; ++c) {
      unsigned __int128 k = KeyOf(h[c]);
      bool lt = k < best_key;
      best = lt ? c : best;
      best_key = lt ? k : best_key;
    }
    if (best_key >= item_key) {
      break;
    }
    h[i] = h[best];
    pos[SlotOf(h[i])] = static_cast<int32_t>(i);
    i = best;
  }
  h[i] = item;
  pos[SlotOf(item)] = static_cast<int32_t>(i);
}

void Engine::FreeSlot(Queue& q, uint32_t slot) {
  FnAt(q, slot) = InlineFn();
  q.pos[slot] = -1;
  ++q.gen[slot];  // invalidate any EventId still referring to this slot
  q.free.push_back(slot);
}

void Engine::RemoveAt(Queue& q, size_t i) {
  FreeSlot(q, SlotOf(q.heap[i]));
  HeapItem last = q.heap.back();
  q.heap.pop_back();
  if (q.index != 0 && !in_parallel_phase_) {
    --parallel_pending_;
  }
  if (i == q.heap.size()) {
    return;
  }
  q.heap[i] = last;
  q.pos[SlotOf(last)] = static_cast<int32_t>(i);
  SiftUp(q, i);
  SiftDown(q, static_cast<size_t>(q.pos[SlotOf(last)]));
}

void Engine::Step(Queue& q) {
  uint32_t slot = SlotOf(q.heap[0]);
  q.now = q.heap[0].at;
  ++q.events_processed;
  // Unlink from the heap but do NOT free the slot yet: the callback runs in
  // place from its stable chunk storage, so the slot must not be handed out
  // to events it schedules. pos == -1 makes a self-Cancel during the
  // callback a no-op (the event is no longer pending).
  q.pos[slot] = -1;
  HeapItem last = q.heap.back();
  q.heap.pop_back();
  if (!q.heap.empty()) {
    q.heap[0] = last;
    q.pos[SlotOf(last)] = 0;
    SiftDown(q, 0);
  }
  FnAt(q, slot)();
  FreeSlot(q, slot);
}

void Engine::RunQueue(Queue& q, Cycles deadline) {
  Queue* prev = tls_queue_;
  tls_queue_ = &q;
  // Phase-transferred ownership: between the Submit that scheduled this
  // call and the executor Drain that ends the phase, this host thread is
  // the only one touching q (RunParallelPhase hands each queue to exactly
  // one task; inline callers are the coordinator itself).
  q.cap.Acquire();
  while (!q.heap.empty() && q.heap[0].at <= deadline) {
    Step(q);
  }
  q.cap.Release();
  tls_queue_ = prev;
}

void Engine::RunParallelPhase(Cycles deadline) {
  assert(sharded());
  assert(!in_parallel_phase_);
  in_parallel_phase_ = true;
  const size_t nq = queues_.size();
  uint64_t shards_run = 0;
  for (size_t i = 1; i < nq; ++i) {
    Queue& q = *queues_[i];
    // Safe pre-submit read: q has not been handed out yet, and no other
    // queue's run ever touches it.
    q.cap.AssertHeld();
    if (q.heap.empty() || q.heap[0].at > deadline) {
      continue;
    }
    ++shards_run;
    if (executor_ != nullptr) {
      Queue* qp = &q;
      executor_->Submit(InlineFn([this, qp, deadline] { RunQueue(*qp, deadline); }));
    } else {
      RunQueue(q, deadline);
    }
  }
  RunQueue(*main_queue_, deadline);  // the coordinator runs the serial queue
  if (executor_ != nullptr && shards_run > 0) {
    executor_->Drain();  // ends the phase
  }
  if (shards_run > 0) {
    ++stat_windows_;
    stat_shard_windows_ += shards_run;
  }
  in_parallel_phase_ = false;
  size_t pending = 0;
  for (size_t i = 1; i < nq; ++i) {
    queues_[i]->cap.AssertHeld();  // post-Drain: coordinator owns all
    pending += queues_[i]->heap.size();
  }
  parallel_pending_ = pending;
}

Cycles Engine::Run() {
  Queue& q0 = *main_queue_;
  // Outside parallel phases the calling thread is the only one running the
  // engine, so it owns every queue.
  q0.cap.AssertHeld();
  if (!sharded()) {
    while (!q0.heap.empty()) {
      Step(q0);
    }
    return q0.now;
  }
  while (parallel_pending_ == 0 && !q0.heap.empty()) {
    Step(q0);
  }
  if (parallel_pending_ != 0) {
    RunParallelPhase(kNever);  // closed shards: one phase drains every queue
  }
  Cycles end = q0.now;
  for (const auto& qp : queues_) {
    qp->cap.AssertHeld();  // quiescent engine: coordinator owns all
    end = std::max(end, qp->now);
  }
  return end;
}

bool Engine::RunUntil(Cycles deadline) {
  Queue& q0 = *main_queue_;
  // Outside parallel phases the calling thread is the only one running the
  // engine, so it owns every queue.
  q0.cap.AssertHeld();
  if (!sharded()) {
    while (!q0.heap.empty() && q0.heap[0].at <= deadline) {
      Step(q0);
    }
    if (q0.heap.empty()) {
      return true;
    }
    q0.now = deadline;
    return false;
  }
  while (parallel_pending_ == 0 && !q0.heap.empty() && q0.heap[0].at <= deadline) {
    Step(q0);
  }
  if (parallel_pending_ != 0) {
    RunParallelPhase(deadline);
  }
  if (empty()) {
    return true;
  }
  for (const auto& qp : queues_) {
    qp->cap.AssertHeld();  // between phases: coordinator owns all
    qp->now = std::max(qp->now, deadline);
  }
  return false;
}

uint64_t Engine::events_processed() const {
  uint64_t total = 0;
  for (const auto& qp : queues_) {
    qp->cap.AssertHeld();  // called between runs: coordinator owns all
    total += qp->events_processed;
  }
  return total;
}

bool Engine::empty() const {
  for (const auto& qp : queues_) {
    qp->cap.AssertHeld();  // called between phases: coordinator owns all
    if (!qp->heap.empty()) {
      return false;
    }
  }
  return true;
}

size_t Engine::size() const {
  size_t n = 0;
  for (const auto& qp : queues_) {
    qp->cap.AssertHeld();  // called between phases: coordinator owns all
    n += qp->heap.size();
  }
  return n;
}

Engine::ParallelStats Engine::parallel_stats() const {
  ParallelStats s;
  s.windows = stat_windows_;
  s.shard_windows = stat_shard_windows_;
  for (size_t i = 1; i < queues_.size(); ++i) {
    const Queue& q = *queues_[i];
    q.cap.AssertHeld();  // called between runs: coordinator owns all
    s.parallel_events += q.events_processed;
  }
  return s;
}

}  // namespace tlbsim
