// SimFlag: set/clear semantics, waiter wakeups, time propagation.
#include "src/sim/flag.h"

#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <vector>

#include "src/sim/engine.h"

namespace tlbsim {
namespace {

// Registers test callbacks as SimFlag waiters (ctx = the stored callback).
// A deque keeps each callback at a stable address until the test ends.
class Callbacks {
 public:
  SimFlag::WaiterToken Add(SimFlag& f, std::function<void(Cycles)> cb) {
    fns_.push_back(std::move(cb));
    return f.AddWaiter({&Call, &fns_.back(), 0});
  }

 private:
  static void Call(void* ctx, uint64_t, Cycles t) {
    (*static_cast<std::function<void(Cycles)>*>(ctx))(t);
  }
  std::deque<std::function<void(Cycles)>> fns_;
};

TEST(FlagTest, StartsClear) {
  Engine e;
  SimFlag f(&e);
  EXPECT_FALSE(f.is_set());
}

TEST(FlagTest, SetRecordsTime) {
  Engine e;
  SimFlag f(&e);
  f.Set(123);
  EXPECT_TRUE(f.is_set());
  EXPECT_EQ(f.set_time(), 123);
}

TEST(FlagTest, WaiterWokenAtSetTime) {
  Engine e;
  SimFlag f(&e);
  Callbacks cbs;
  Cycles woke_at = -1;
  cbs.Add(f, [&](Cycles t) { woke_at = t; });
  e.Schedule(40, [&] { f.Set(40); });
  e.Run();
  EXPECT_EQ(woke_at, 40);
}

TEST(FlagTest, AddWaiterOnSetFlagFiresImmediately) {
  Engine e;
  SimFlag f(&e);
  Callbacks cbs;
  f.Set(10);
  Cycles woke_at = -1;
  cbs.Add(f, [&](Cycles t) { woke_at = t; });
  e.Run();
  EXPECT_EQ(woke_at, 10);
}

TEST(FlagTest, MultipleWaitersAllWokenInOrder) {
  Engine e;
  SimFlag f(&e);
  Callbacks cbs;
  std::vector<int> order;
  cbs.Add(f, [&](Cycles) { order.push_back(1); });
  cbs.Add(f, [&](Cycles) { order.push_back(2); });
  cbs.Add(f, [&](Cycles) { order.push_back(3); });
  e.Schedule(5, [&] { f.Set(5); });
  e.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(FlagTest, RemovedWaiterNotWoken) {
  Engine e;
  SimFlag f(&e);
  Callbacks cbs;
  bool woke = false;
  auto token = cbs.Add(f, [&](Cycles) { woke = true; });
  f.RemoveWaiter(token);
  e.Schedule(5, [&] { f.Set(5); });
  e.Run();
  EXPECT_FALSE(woke);
}

TEST(FlagTest, ClearReArms) {
  Engine e;
  SimFlag f(&e);
  Callbacks cbs;
  f.Set(5);
  f.Clear();
  EXPECT_FALSE(f.is_set());
  int wakes = 0;
  cbs.Add(f, [&](Cycles) { ++wakes; });
  e.Run();
  EXPECT_EQ(wakes, 0);  // waiter registered after clear must not fire
  f.Set(10);
  e.Run();
  EXPECT_EQ(wakes, 1);
}

TEST(FlagTest, SetWhileNoWaitersIsCheap) {
  Engine e;
  SimFlag f(&e);
  f.Set(1);
  f.Set(2);  // re-set updates the time
  EXPECT_EQ(f.set_time(), 2);
  EXPECT_TRUE(e.empty());
}

TEST(FlagTest, WaiterRegisteredDuringWakeupOfAnotherWaits) {
  Engine e;
  SimFlag f(&e);
  Callbacks cbs;
  int second = 0;
  cbs.Add(f, [&](Cycles) {
    f.Clear();
    cbs.Add(f, [&](Cycles) { ++second; });
  });
  e.Schedule(5, [&] { f.Set(5); });
  e.Run();
  EXPECT_EQ(second, 0);  // re-armed; not set again
}

}  // namespace
}  // namespace tlbsim
