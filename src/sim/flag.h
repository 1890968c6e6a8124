// SimFlag: a one-bit synchronization cell with waiter notification.
//
// Models a memory word that one simulated CPU writes ("completion flag",
// "acknowledgement bit") and others spin on. The *coherence cost* of
// polling/writing the underlying cacheline is accounted separately by the
// cache layer; SimFlag only provides the wakeup plumbing in virtual time.
#ifndef TLBSIM_SRC_SIM_FLAG_H_
#define TLBSIM_SRC_SIM_FLAG_H_

#include <cstdint>
#include <vector>

#include "src/sim/engine.h"
#include "src/sim/time.h"

namespace tlbsim {

class SimFlag {
 public:
  using WaiterToken = uint64_t;

  explicit SimFlag(Engine* engine) : engine_(engine) {}
  SimFlag(const SimFlag&) = delete;
  SimFlag& operator=(const SimFlag&) = delete;

  // Sets the flag at virtual time `at` and wakes all current waiters. Waiter
  // callbacks run as engine events at `at` (clamped to engine-now).
  void Set(Cycles at);

  // Re-arms the flag (e.g. a reusable per-CPU completion word).
  void Clear() { set_ = false; }

  bool is_set() const { return set_; }

  // Time at which the flag was (last) set. Only meaningful when is_set().
  Cycles set_time() const { return set_time_; }

  // A waiter is plain data, not a captured callable, so registering one and
  // scheduling its wakeup never allocate: wake(ctx, arg, set_time) runs as
  // an engine event once the flag is set. `ctx` must outlive that event; a
  // waiter that may be gone by then passes a long-lived ctx and checks `arg`
  // against it (SimCpu's flag waits do this with a per-CPU wait id).
  struct Waiter {
    void (*wake)(void* ctx, uint64_t arg, Cycles set_time);
    void* ctx;
    uint64_t arg;
  };

  // Registers `w` to be woken (with the set time) once the flag is set. If
  // the flag is already set the wakeup is scheduled immediately. Waiters are
  // woken in registration order.
  WaiterToken AddWaiter(Waiter w);

  // Deregisters a not-yet-fired waiter. No-op for fired/unknown tokens.
  void RemoveWaiter(WaiterToken token);

 private:
  struct Registered {
    WaiterToken token;
    Waiter w;
  };

  // Schedules `w`'s wakeup for a flag set at `at`.
  void ScheduleWake(const Waiter& w, Cycles at);

  Engine* engine_;
  bool set_ = false;
  Cycles set_time_ = 0;
  WaiterToken next_token_ = 1;
  std::vector<Registered> waiters_;  // registration order; keeps its capacity
};

}  // namespace tlbsim

#endif  // TLBSIM_SRC_SIM_FLAG_H_
