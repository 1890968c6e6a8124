// SimCpu: interruptible Execute/WaitFlag, IRQ preemption and resumption,
// masking, NMI nesting, hooks, time accounting.
#include "src/hw/cpu.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/hw/machine.h"

namespace tlbsim {
namespace {

MachineConfig QuietConfig() {
  MachineConfig cfg;
  cfg.costs.jitter_frac = 0.0;  // deterministic costs for exact assertions
  return cfg;
}

SimTask Go(std::function<Co<void>()> body) { return [](std::function<Co<void>()> b) -> SimTask {
    co_await b();
  }(std::move(body)); }

TEST(CpuTest, ExecuteAdvancesLocalClock) {
  Machine m(QuietConfig());
  SimCpu& cpu = m.cpu(0);
  bool done = false;
  cpu.Spawn(Go([&]() -> Co<void> {
    co_await cpu.Execute(100);
    co_await cpu.Execute(50);
    EXPECT_EQ(cpu.now(), 150);
    done = true;
  }));
  m.engine().Run();
  EXPECT_TRUE(done);
}

TEST(CpuTest, ZeroCycleExecuteCompletes) {
  Machine m(QuietConfig());
  SimCpu& cpu = m.cpu(0);
  bool done = false;
  cpu.Spawn(Go([&]() -> Co<void> {
    co_await cpu.Execute(0);
    done = true;
  }));
  m.engine().Run();
  EXPECT_TRUE(done);
}

TEST(CpuTest, AdvanceInlineDriftsAheadSafely) {
  Machine m(QuietConfig());
  SimCpu& cpu = m.cpu(0);
  bool done = false;
  cpu.Spawn(Go([&]() -> Co<void> {
    cpu.AdvanceInline(500);
    EXPECT_EQ(cpu.now(), 500);
    co_await cpu.Execute(10);
    EXPECT_EQ(cpu.now(), 510);
    done = true;
  }));
  m.engine().Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(m.engine().now(), 510);
}

TEST(CpuTest, IrqPreemptsExecuteAndRemainingCompletes) {
  Machine m(QuietConfig());
  SimCpu& cpu = m.cpu(0);
  Cycles handler_at = -1;
  cpu.RegisterIrqHandler(77, [&](SimCpu& c) -> Co<void> {
    handler_at = c.now();
    co_await c.Execute(100);
  });
  bool done = false;
  Cycles end = -1;
  cpu.Spawn(Go([&]() -> Co<void> {
    co_await cpu.Execute(1000);
    end = cpu.now();
    done = true;
  }));
  m.engine().Schedule(300, [&] { cpu.RaiseIrq(77); });
  m.engine().Run();
  EXPECT_TRUE(done);
  // Handler entered after irq entry cost, starting at preemption time 300.
  EXPECT_EQ(handler_at, 300 + m.costs().irq_entry_user);
  // Total: 1000 cycles of work + full IRQ overhead (entry+body+exit).
  Cycles irq_total = m.costs().irq_entry_user + 100 + m.costs().irq_exit;
  EXPECT_EQ(end, 1000 + irq_total);
  EXPECT_EQ(cpu.stats().irqs_handled, 1u);
  EXPECT_EQ(cpu.stats().cycles_in_irq, irq_total);
}

TEST(CpuTest, IrqEntryCostDependsOnMode) {
  for (bool user : {true, false}) {
    Machine m(QuietConfig());
    SimCpu& cpu = m.cpu(0);
    Cycles handler_at = -1;
    cpu.RegisterIrqHandler(77, [&](SimCpu& c) -> Co<void> {
      handler_at = c.now();
      co_return;
    });
    cpu.Spawn(Go([&, user]() -> Co<void> {
      cpu.set_user_mode(user);
      co_await cpu.Execute(1000);
    }));
    m.engine().Schedule(200, [&] { cpu.RaiseIrq(77); });
    m.engine().Run();
    Cycles expect = user ? m.costs().irq_entry_user : m.costs().irq_entry_kernel;
    EXPECT_EQ(handler_at, 200 + expect) << "user=" << user;
  }
}

TEST(CpuTest, ExtraUserEntryCostApplied) {
  Machine m(QuietConfig());
  SimCpu& cpu = m.cpu(0);
  cpu.set_irq_entry_extra_user(260);
  Cycles handler_at = -1;
  cpu.RegisterIrqHandler(77, [&](SimCpu& c) -> Co<void> {
    handler_at = c.now();
    co_return;
  });
  cpu.Spawn(Go([&]() -> Co<void> { co_await cpu.Execute(1000); }));
  m.engine().Schedule(100, [&] { cpu.RaiseIrq(77); });
  m.engine().Run();
  EXPECT_EQ(handler_at, 100 + m.costs().irq_entry_user + 260);
}

TEST(CpuTest, MaskedIrqDeferredUntilNextSuspensionWithIrqsOn) {
  Machine m(QuietConfig());
  SimCpu& cpu = m.cpu(0);
  Cycles handler_at = -1;
  cpu.RegisterIrqHandler(77, [&](SimCpu& c) -> Co<void> {
    handler_at = c.now();
    co_return;
  });
  bool done = false;
  cpu.Spawn(Go([&]() -> Co<void> {
    cpu.set_irqs_enabled(false);
    co_await cpu.Execute(1000);  // irq at 300 must NOT preempt this
    EXPECT_EQ(cpu.now(), 1000);
    EXPECT_LT(handler_at, 0);
    cpu.set_irqs_enabled(true);
    co_await cpu.Execute(10);  // pending irq delivered before this work
    done = true;
  }));
  m.engine().Schedule(300, [&] { cpu.RaiseIrq(77); });
  m.engine().Run();
  EXPECT_TRUE(done);
  EXPECT_GE(handler_at, 1000);
}

TEST(CpuTest, HandlerRunsWithIrqsDisabled) {
  Machine m(QuietConfig());
  SimCpu& cpu = m.cpu(0);
  std::vector<int> order;
  cpu.RegisterIrqHandler(77, [&](SimCpu& c) -> Co<void> {
    order.push_back(1);
    EXPECT_FALSE(c.irqs_enabled());
    co_await c.Execute(500);  // second IRQ arrives during this; must wait
    order.push_back(2);
  });
  cpu.Spawn(Go([&]() -> Co<void> { co_await cpu.Execute(5000); }));
  m.engine().Schedule(100, [&] { cpu.RaiseIrq(77); });
  m.engine().Schedule(200, [&] { cpu.RaiseIrq(77); });
  m.engine().Run();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);  // first handler completed before second started
  EXPECT_EQ(cpu.stats().irqs_handled, 2u);
}

TEST(CpuTest, NmiPreemptsIrqHandler) {
  Machine m(QuietConfig());
  SimCpu& cpu = m.cpu(0);
  std::vector<std::string> order;
  cpu.RegisterIrqHandler(kNmiVector, [&](SimCpu&) -> Co<void> {
    order.push_back("nmi");
    co_return;
  });
  cpu.RegisterIrqHandler(77, [&](SimCpu& c) -> Co<void> {
    order.push_back("irq-start");
    co_await c.Execute(5000);
    order.push_back("irq-end");
  });
  cpu.Spawn(Go([&]() -> Co<void> { co_await cpu.Execute(20000); }));
  m.engine().Schedule(100, [&] { cpu.RaiseIrq(77); });
  m.engine().Schedule(1000, [&] { cpu.RaiseIrq(kNmiVector); });
  m.engine().Run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "irq-start");
  EXPECT_EQ(order[1], "nmi");  // NMI delivered inside the IRQ handler
  EXPECT_EQ(order[2], "irq-end");
  EXPECT_EQ(cpu.stats().nmis_handled, 1u);
}

TEST(CpuTest, NmiDoesNotNestInsideNmi) {
  Machine m(QuietConfig());
  SimCpu& cpu = m.cpu(0);
  int active = 0;
  int max_active = 0;
  cpu.RegisterIrqHandler(kNmiVector, [&](SimCpu& c) -> Co<void> {
    ++active;
    max_active = std::max(max_active, active);
    co_await c.Execute(2000);
    --active;
  });
  cpu.Spawn(Go([&]() -> Co<void> { co_await cpu.Execute(50000); }));
  m.engine().Schedule(100, [&] { cpu.RaiseIrq(kNmiVector); });
  m.engine().Schedule(500, [&] { cpu.RaiseIrq(kNmiVector); });
  m.engine().Run();
  EXPECT_EQ(max_active, 1);
  EXPECT_EQ(cpu.stats().nmis_handled, 2u);
}

TEST(CpuTest, WaitFlagWakesOnSet) {
  Machine m(QuietConfig());
  SimCpu& cpu = m.cpu(0);
  SimFlag flag(&m.engine());
  Cycles woke = -1;
  cpu.Spawn(Go([&]() -> Co<void> {
    bool set = co_await cpu.WaitFlag(flag);
    EXPECT_TRUE(set);
    woke = cpu.now();
  }));
  m.engine().Schedule(700, [&] { flag.Set(700); });
  m.engine().Run();
  EXPECT_EQ(woke, 700);
}

TEST(CpuTest, WaitFlagAlreadySetFastForwards) {
  Machine m(QuietConfig());
  SimCpu& cpu = m.cpu(0);
  SimFlag flag(&m.engine());
  flag.Set(42);
  bool done = false;
  cpu.Spawn(Go([&]() -> Co<void> {
    co_await cpu.WaitFlag(flag);
    EXPECT_EQ(cpu.now(), 42);
    done = true;
  }));
  m.engine().Run();
  EXPECT_TRUE(done);
}

TEST(CpuTest, WaitFlagSpuriousWakeAfterIrq) {
  Machine m(QuietConfig());
  SimCpu& cpu = m.cpu(0);
  SimFlag flag(&m.engine());
  bool handled = false;
  cpu.RegisterIrqHandler(77, [&](SimCpu&) -> Co<void> {
    handled = true;
    co_return;
  });
  int wakes = 0;
  bool done = false;
  cpu.Spawn(Go([&]() -> Co<void> {
    while (true) {
      bool set = co_await cpu.WaitFlag(flag);
      ++wakes;
      if (set) {
        break;
      }
    }
    done = true;
  }));
  m.engine().Schedule(100, [&] { cpu.RaiseIrq(77); });
  m.engine().Schedule(5000, [&] { flag.Set(5000); });
  m.engine().Run();
  EXPECT_TRUE(done);
  EXPECT_TRUE(handled);
  EXPECT_EQ(wakes, 2);  // one spurious (after irq) + one real
}

// Set() schedules the wake; an IRQ preempts the wait before the wake runs;
// the program resumes spuriously, the awaitable dies with its co_await
// expression, and a second wait is armed. The stale wake must be a no-op:
// it must neither touch the dead awaitable nor fire the new wait.
TEST(CpuTest, StaleFlagWakeAfterPreemptedWaitIsNoOp) {
  Machine m(QuietConfig());
  SimCpu& cpu = m.cpu(0);
  SimFlag first(&m.engine());
  SimFlag second(&m.engine());
  cpu.RegisterIrqHandler(77, [](SimCpu&) -> Co<void> { co_return; });
  Cycles first_resume = -1;
  Cycles second_resume = -1;
  cpu.Spawn(Go([&]() -> Co<void> {
    co_await cpu.WaitFlag(first);
    first_resume = cpu.now();
    bool set = co_await cpu.WaitFlag(second);
    EXPECT_TRUE(set);
    second_resume = cpu.now();
  }));
  // Set at 100 for time 20000: the wake event is queued at 20000.
  m.engine().Schedule(100, [&] { first.Set(20000); });
  m.engine().Schedule(200, [&] { cpu.RaiseIrq(77); });
  m.engine().Schedule(40000, [&] { second.Set(40000); });
  m.engine().Run();
  EXPECT_GT(first_resume, 200);
  EXPECT_LT(first_resume, 20000);  // the spurious resume after the IRQ
  EXPECT_EQ(second_resume, 40000);  // not the stale wake at 20000
  EXPECT_EQ(cpu.stats().irqs_handled, 1u);
}

TEST(CpuTest, HooksRunAroundUserInterrupt) {
  Machine m(QuietConfig());
  SimCpu& cpu = m.cpu(0);
  std::vector<std::string> order;
  cpu.set_kernel_entry_hook([&](SimCpu&) { order.push_back("entry-hook"); });
  cpu.set_return_to_user_hook([&](SimCpu&) -> Co<void> {
    order.push_back("exit-hook");
    co_return;
  });
  cpu.RegisterIrqHandler(77, [&](SimCpu&) -> Co<void> {
    order.push_back("handler");
    co_return;
  });
  cpu.Spawn(Go([&]() -> Co<void> { co_await cpu.Execute(1000); }));
  m.engine().Schedule(100, [&] { cpu.RaiseIrq(77); });
  m.engine().Run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "entry-hook");
  EXPECT_EQ(order[1], "handler");
  EXPECT_EQ(order[2], "exit-hook");
}

TEST(CpuTest, HooksSkippedForKernelModeInterrupt) {
  Machine m(QuietConfig());
  SimCpu& cpu = m.cpu(0);
  int hook_calls = 0;
  cpu.set_kernel_entry_hook([&](SimCpu&) { ++hook_calls; });
  cpu.RegisterIrqHandler(77, [](SimCpu&) -> Co<void> { co_return; });
  cpu.Spawn(Go([&]() -> Co<void> {
    cpu.set_user_mode(false);
    co_await cpu.Execute(1000);
  }));
  m.engine().Schedule(100, [&] { cpu.RaiseIrq(77); });
  m.engine().Run();
  EXPECT_EQ(hook_calls, 0);
}

TEST(CpuTest, UserModeRestoredAfterIrq) {
  Machine m(QuietConfig());
  SimCpu& cpu = m.cpu(0);
  cpu.RegisterIrqHandler(77, [](SimCpu& c) -> Co<void> {
    EXPECT_FALSE(c.user_mode());
    co_return;
  });
  bool done = false;
  cpu.Spawn(Go([&]() -> Co<void> {
    cpu.set_user_mode(true);
    co_await cpu.Execute(1000);
    EXPECT_TRUE(cpu.user_mode());
    done = true;
  }));
  m.engine().Schedule(100, [&] { cpu.RaiseIrq(77); });
  m.engine().Run();
  EXPECT_TRUE(done);
}

TEST(CpuTest, TwoCpusIndependentClocks) {
  Machine m(QuietConfig());
  Cycles end0 = 0;
  Cycles end1 = 0;
  m.cpu(0).Spawn(Go([&]() -> Co<void> {
    co_await m.cpu(0).Execute(100);
    end0 = m.cpu(0).now();
  }));
  m.cpu(1).Spawn(Go([&]() -> Co<void> {
    co_await m.cpu(1).Execute(999);
    end1 = m.cpu(1).now();
  }));
  m.engine().Run();
  EXPECT_EQ(end0, 100);
  EXPECT_EQ(end1, 999);
}

TEST(CpuTest, AccessLineChargesCoherenceCost) {
  Machine m(QuietConfig());
  SimCpu& cpu = m.cpu(0);
  LineId line = m.coherence().AllocateLine("t");
  Cycles c = cpu.AccessLine(line, AccessType::kRead);
  EXPECT_EQ(c, m.costs().cache.memory_fill);
  EXPECT_EQ(cpu.now(), c);
}

}  // namespace
}  // namespace tlbsim
