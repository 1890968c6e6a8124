#include "src/sim/flag.h"

#include <algorithm>

namespace tlbsim {

void SimFlag::ScheduleWake(const Waiter& w, Cycles at) {
  Cycles when = std::max(at, engine_->now());
  engine_->Schedule(when, [w, at] { w.wake(w.ctx, w.arg, at); });
}

void SimFlag::Set(Cycles at) {
  set_ = true;
  set_time_ = at;
  // Scheduling never runs a wakeup inline, so the list is stable here.
  for (const Registered& r : waiters_) {
    ScheduleWake(r.w, at);
  }
  waiters_.clear();
}

SimFlag::WaiterToken SimFlag::AddWaiter(Waiter w) {
  WaiterToken token = next_token_++;
  if (set_) {
    ScheduleWake(w, set_time_);
    return token;
  }
  waiters_.push_back({token, w});
  return token;
}

void SimFlag::RemoveWaiter(WaiterToken token) {
  auto it = std::find_if(waiters_.begin(), waiters_.end(),
                         [token](const Registered& r) { return r.token == token; });
  if (it != waiters_.end()) {
    waiters_.erase(it);
  }
}

}  // namespace tlbsim
