// Discrete-event simulation engine: a serial global timeline plus optional
// per-socket event-queue shards that run to completion in parallel.
//
// The engine owns event queues ordered by virtual time (Cycles) with FIFO
// tie-breaking for determinism. Simulated CPUs keep *local* clocks that may
// run ahead of the engine clock within one uninterrupted computation (e.g.
// accounting cacheline-access costs without yielding); every cross-entity
// interaction is mediated by an event scheduled at the acting CPU's local
// time, which is always >= the engine clock, so causality holds.
//
// Hot-path design (the simulator's throughput ceiling lives here):
//   - Callbacks are InlineFn, not std::function: small captures are stored
//     inline in the event node, so Schedule() performs no heap allocation.
//   - Event nodes live in a slab pool with a free list; EventIds encode
//     (slot, generation), so a stale id — cancelled late, or belonging to an
//     event that already fired — simply fails the generation check. There is
//     no side table of cancelled ids to probe or leak.
//   - The queue is an *indexed* 4-ary heap: each node remembers its heap
//     position, so Cancel() removes the entry in O(log n) directly instead of
//     lazily skipping it at pop time. Heap entries carry (at, seq) inline, so
//     sift comparisons never chase into the pool.
//
// Sharded mode (ConfigureSharding): queue 0 is the *serial* timeline — every
// plain Schedule() from outside a shard lands there, exactly as in the
// unsharded engine — and queues 1..S are per-socket shards fed through
// ScheduleOnCpu(). Shards are *closed*: once a shard holds work, nothing
// outside it may touch its events until it has run out of them. The serial
// loop runs queue 0 until some shard has a pending event, then starts a
// parallel phase: each non-empty shard is handed to the executor once, the
// coordinator runs queue 0, every queue runs until it is empty or reaches the
// RunUntil deadline, and one executor Drain ends the phase. A phase has no
// internal barrier, so there is no channel between queues: a cross-queue
// ScheduleOnCpu or Cancel during a phase aborts with a message naming both
// queues, in every build type. So does a coordinator insert, between phases,
// behind a shard's clock — that event would run in the shard's past. Within
// the contract the result is the serial engine's, bit for bit, at any shard
// and host-thread count: each queue fires exactly its own events in (at,
// seq) order, and no event can observe another queue.
//
// Protocol sharding (MachineConfig::shard_protocol) is the one user: the
// shootdown protocol itself — kernel entry, mm_cpumask scan, coherence
// directory, APIC delivery and ack — runs on the shard queues, which is
// sound because every protocol-state object a socket-confined storm touches
// is banked per socket (SocketMask cpumask words, CoherenceModel banks, per-
// socket stats/histograms in the shootdown backends). Such a storm executes
// its entire IPI send -> remote flush -> ack chain inside one shard, so the
// whole measured run is one phase. See docs/ARCHITECTURE.md "Sharded
// protocol state".
#ifndef TLBSIM_SRC_SIM_ENGINE_H_
#define TLBSIM_SRC_SIM_ENGINE_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/base/thread_annotations.h"
#include "src/sim/inline_fn.h"
#include "src/sim/task.h"
#include "src/sim/time.h"

namespace tlbsim {

// Ownership token for one event queue's window: the right to run, mutate
// and read that queue's event state. Zero runtime cost. Exactly one host
// thread holds a given queue's token at any instant — either the thread
// RunParallelPhase() handed the queue to (the ThreadPool::Drain that ends
// the phase is the hand-back edge), or the coordinator, which owns every
// queue outside parallel phases. Engine functions that touch per-queue
// state carry REQUIRES(q.cap); contexts whose ownership comes from a
// barrier rather than a call chain re-establish it with AssertHeld() plus a
// comment naming the barrier. See docs/CHECKING.md § Static analysis.
class CAPABILITY("engine queue window") WindowCap {
 public:
  void Acquire() const ACQUIRE(this) {}
  void Release() const RELEASE(this) {}
  void AssertHeld() const ASSERT_CAPABILITY(this) {}
};

class Engine {
 public:
  using EventId = uint64_t;
  static constexpr EventId kInvalidEvent = 0;
  // Queue count ceiling (serial queue + shards): bounded by the 7-bit queue
  // field in EventIds.
  static constexpr int kMaxQueues = 64;

  // Host-execution hook for parallel phases. Implemented by an adapter over
  // src/exec/thread_pool (see EngineExecutor there); defined as an interface
  // here so the sim layer does not depend on exec. Submit() enqueues a task
  // for any worker; Drain() blocks until all submitted tasks finished and
  // ends the phase (it must establish happens-before between the tasks and
  // the caller).
  class Executor {
   public:
    virtual ~Executor() = default;
    virtual void Submit(InlineFn task) = 0;
    virtual void Drain() = 0;
  };

  // Sharding layout, fixed before any event is scheduled.
  struct ShardPlan {
    int shards = 1;                  // event shards (<=1: stay unsharded)
    std::vector<int> shard_of_cpu;   // cpu -> shard in [0, shards)
    Executor* executor = nullptr;    // borrowed; null runs shards inline
  };

  struct ParallelStats {
    uint64_t windows = 0;          // parallel phases that ran a shard
    uint64_t shard_windows = 0;    // shard runs handed out across all phases
    uint64_t parallel_events = 0;  // events fired in shard queues
  };

  Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Splits the engine into `plan.shards` per-socket queues plus the serial
  // queue. Must be called while the engine is quiescent (no pending events);
  // a serial setup phase may already have run — shards inherit the serial
  // clock. A plan with shards <= 1 leaves the engine in the unsharded
  // (legacy) shape.
  void ConfigureSharding(ShardPlan plan);

  bool sharded() const { return queues_.size() > 1; }

  // Aggregated sharding counters. Call between runs (quiescent engine).
  ParallelStats parallel_stats() const;

  // Schedules `fn` to run at virtual time `at` (>= now()) on the *current*
  // timeline: the serial queue from outside the engine or from serial
  // events, the owning shard from inside a shard event.
  EventId Schedule(Cycles at, InlineFn fn);

  // Hot-path overload for callables: constructs the callback directly in its
  // pool slot (no InlineFn temporary, no buffer relocation).
  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, InlineFn>>>
  EventId Schedule(Cycles at, F&& f) {
    Queue& q = CurrentQueue();
    // The current timeline belongs to this thread: the phase hand-off in
    // RunQueue inside a phase, coordinator ownership outside one.
    q.cap.AssertHeld();
    uint32_t slot = AllocSlot(q);
    FnAt(q, slot).Emplace(std::forward<F>(f));
    return Enqueue(q, at, slot);
  }

  // Convenience: schedule relative to now().
  EventId ScheduleAfter(Cycles delay, InlineFn fn) {
    return Schedule(now() + delay, std::move(fn));
  }

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, InlineFn>>>
  EventId ScheduleAfter(Cycles delay, F&& f) {
    return Schedule(now() + delay, std::forward<F>(f));
  }

  // Schedules `fn` on the event shard that owns `cpu` (the current queue
  // when unsharded, so it then behaves exactly like Schedule). Targeting
  // another queue aborts during a parallel phase, and between phases aborts
  // when `at` lies behind that queue's clock.
  EventId ScheduleOnCpu(int cpu, Cycles at, InlineFn fn);

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, InlineFn>>>
  EventId ScheduleOnCpu(int cpu, Cycles at, F&& f) {
    Queue& dst = TargetQueue(cpu, at);
    // Own timeline, or a foreign queue from the coordinator between phases
    // (TargetQueue aborted otherwise), when it owns every queue.
    dst.cap.AssertHeld();
    uint32_t slot = AllocSlot(dst);
    FnAt(dst, slot).Emplace(std::forward<F>(f));
    return Enqueue(dst, at, slot);
  }

  // Cancels a pending event in O(log n). Cancelling kInvalidEvent, an
  // already-fired id, or an already-cancelled id is a no-op. Cancelling an
  // event of another queue during a parallel phase aborts.
  void Cancel(EventId id);

  // Starts a detached root task at time `at` on the current timeline.
  void Spawn(Cycles at, SimTask task);

  // Runs events until every queue is empty. Returns the final virtual time
  // (the maximum queue clock; the serial clock when unsharded).
  Cycles Run();

  // Runs events with time <= `deadline` (inclusive: an event scheduled
  // exactly at `deadline` fires). Returns true if all queues drained.
  bool RunUntil(Cycles deadline);

  // The current timeline's clock: the serial clock from outside the engine,
  // the running queue's clock from inside an event.
  Cycles now() const {
    const Queue* q = tls_queue_;
    if (q == nullptr) {
      q = main_queue_;
    }
    // Reading one's own queue's clock (phase hand-off in RunQueue), or the
    // serial clock from the coordinator, which owns it outside phases.
    q->cap.AssertHeld();
    return q->now;
  }

  uint64_t events_processed() const;

  // True when no live events remain anywhere. Cancelled events are removed
  // eagerly, so this is O(#queues).
  bool empty() const;

  // Number of pending events across all queues.
  size_t size() const;

 private:
  // Heap entry, 16 bytes: the ordering key inline (no pool chase during
  // sifts) plus the owning pool slot packed into the low bits of the
  // tie-break word. seq is monotone and unique per queue, so the slot bits
  // never influence ordering; 2^40 events and 2^24 concurrent events are
  // both far beyond any simulation this engine drives (asserted in Enqueue).
  struct HeapItem {
    Cycles at;
    uint64_t seq_slot;  // seq << kSlotBits | slot
  };
  static constexpr int kSlotBits = 24;
  static constexpr uint32_t kSlotMask = (1u << kSlotBits) - 1;
  static constexpr uint32_t kChunkShift = 6;  // 64 callables (~3.5KB) per chunk
  static constexpr uint32_t kChunkSize = 1u << kChunkShift;

  // EventId layout: [gen:32][queue:7][slot+1:25] (queue 0 makes this
  // bit-compatible with the pre-sharding encoding).
  static constexpr int kQueueBits = 7;
  static constexpr int kDirectSlotBits = kSlotBits + 1;  // slot+1 field width
  static constexpr uint64_t kQueueMask = (uint64_t{1} << kQueueBits) - 1;

  // One event queue: the serial timeline (index 0) or a shard. Everything a
  // queue's run touches is confined here, so concurrently running queues
  // share no mutable engine state — and every mutable member below is
  // GUARDED_BY(cap), so clang rejects new code that reaches into a queue
  // without owning it.
  struct Queue {
    WindowCap cap;               // the ownership token (zero-size)
    int index = 0;               // fixed at ConfigureSharding; never racy
    std::vector<HeapItem> heap GUARDED_BY(cap);  // 4-ary min-heap by (at, seq)
    // Callbacks, slot-indexed, in fixed-size chunks: addresses are stable
    // across pool growth, so Step() runs a callback directly from its slot
    // (no copy out) even if the callback schedules new events. The sift-path
    // bookkeeping lives in flat dense arrays instead, keeping heap
    // maintenance free of chunk chasing:
    std::vector<std::unique_ptr<InlineFn[]>> chunks GUARDED_BY(cap);
    std::vector<int32_t> pos GUARDED_BY(cap);    // slot -> heap index; -1: free or fired
    std::vector<uint32_t> gen GUARDED_BY(cap);   // slot -> generation; stale ids fail this
    uint32_t pool_size GUARDED_BY(cap) = 0;      // slots handed out so far
    std::vector<uint32_t> free GUARDED_BY(cap);  // recycled pool slots (LIFO)
    Cycles now GUARDED_BY(cap) = 0;
    uint64_t next_seq GUARDED_BY(cap) = 1;
    uint64_t events_processed GUARDED_BY(cap) = 0;
  };

  // Packed (at, seq) ordering key. A single 128-bit compare lets the sift
  // loops select the min child with conditional moves instead of
  // data-dependent branches — event keys are effectively random, so branchy
  // comparisons mispredict ~50% and dominated the pop path. `at` is
  // non-negative (engine invariant), so the unsigned cast preserves order.
  static unsigned __int128 KeyOf(const HeapItem& x) {
    return (static_cast<unsigned __int128>(static_cast<uint64_t>(x.at)) << 64) | x.seq_slot;
  }
  static bool Before(const HeapItem& a, const HeapItem& b) { return KeyOf(a) < KeyOf(b); }
  static uint32_t SlotOf(const HeapItem& x) {
    return static_cast<uint32_t>(x.seq_slot) & kSlotMask;
  }
  static EventId MakeId(uint32_t gen, int queue, uint32_t slot) {
    return (static_cast<EventId>(gen) << 32) |
           (static_cast<EventId>(queue) << kDirectSlotBits) |
           (static_cast<EventId>(slot) + 1);
  }

  static InlineFn& FnAt(Queue& q, uint32_t slot) REQUIRES(q.cap) {
    return q.chunks[slot >> kChunkShift][slot & (kChunkSize - 1)];
  }

  Queue& CurrentQueue() {
    Queue* q = tls_queue_;
    return q != nullptr ? *q : *main_queue_;
  }

  // The queue a ScheduleOnCpu(cpu, at) lands on, after the closed-shard
  // checks: aborts on a cross-queue insert during a phase, or on one behind
  // the target's clock between phases.
  Queue& TargetQueue(int cpu, Cycles at) {
    if (queues_.size() == 1) {
      return *main_queue_;
    }
    assert(cpu >= 0 && static_cast<size_t>(cpu) < queue_of_cpu_.size());
    Queue& dst = *queues_[queue_of_cpu_[static_cast<size_t>(cpu)]];
    Queue& cur = CurrentQueue();
    if (&dst != &cur) {
      CheckForeignInsert(cur, dst, at);
    }
    return dst;
  }

  // Aborts unless the coordinator, between phases, inserts into `dst` at or
  // after its clock.
  void CheckForeignInsert(const Queue& cur, Queue& dst, Cycles at) const;

  // Slot allocation and heap insertion, shared by the Schedule overloads.
  // The callable is filled into FnAt(q, slot) between the two calls.
  static uint32_t AllocSlot(Queue& q) REQUIRES(q.cap);
  EventId Enqueue(Queue& q, Cycles at, uint32_t slot) REQUIRES(q.cap);

  static void SiftUp(Queue& q, size_t i) REQUIRES(q.cap);
  static void SiftDown(Queue& q, size_t i) REQUIRES(q.cap);
  static void FreeSlot(Queue& q, uint32_t slot) REQUIRES(q.cap);
  void RemoveAt(Queue& q, size_t i) REQUIRES(q.cap);

  // Pops and runs the next event. Precondition: q.heap non-empty.
  void Step(Queue& q) REQUIRES(q.cap);

  // Runs q's events with `at <= deadline` on the calling host thread.
  void RunQueue(Queue& q, Cycles deadline);

  // One parallel phase: every shard with an event at or before `deadline`
  // runs on the executor while the coordinator runs queue 0; one Drain ends
  // it. Afterwards no queue holds an event at or before `deadline`.
  void RunParallelPhase(Cycles deadline);

  std::vector<std::unique_ptr<Queue>> queues_;  // [0]: serial; [1..]: shards
  Queue* main_queue_ = nullptr;                 // == queues_[0].get()
  std::vector<uint8_t> queue_of_cpu_;           // cpu -> queue index (sharded)
  Executor* executor_ = nullptr;
  // Events pending in shard queues, maintained while the coordinator is the
  // only running thread and recomputed when a phase ends; the serial loop
  // polls it to know when a phase is due.
  size_t parallel_pending_ = 0;
  bool in_parallel_phase_ = false;
  uint64_t stat_windows_ = 0;
  uint64_t stat_shard_windows_ = 0;

  // The queue running on this host thread (null outside phases). Static: at
  // most one engine runs a queue on a given thread at a time, and RunQueue
  // saves/restores for safety.
  static thread_local Queue* tls_queue_;
};

}  // namespace tlbsim

#endif  // TLBSIM_SRC_SIM_ENGINE_H_
