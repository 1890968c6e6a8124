// System-level integration: multi-process isolation, context switching,
// whole-system determinism, optimization-set plumbing, machine wiring.
#include <gtest/gtest.h>

#include <string>

#include "src/core/system.h"
#include "tests/testutil.h"

namespace tlbsim {
namespace {

TEST(MachineTest, WiringMatchesConfig) {
  MachineConfig cfg;
  cfg.topo.sockets = 1;
  cfg.topo.cores_per_socket = 4;
  cfg.topo.smt = 2;
  Machine m(cfg);
  EXPECT_EQ(m.num_cpus(), 8);
  for (int i = 0; i < m.num_cpus(); ++i) {
    EXPECT_EQ(m.cpu(i).id(), i);
  }
}

TEST(MachineTest, PerCpuRngStreamsDiffer) {
  Machine m(MachineConfig{});
  uint64_t a = m.cpu(0).rng().UniformU64();
  uint64_t b = m.cpu(1).rng().UniformU64();
  EXPECT_NE(a, b);
}

// Each cpu's named lines keep the ids and names one AllocateLine call per
// line gave them: tlbstate, call_single_queue, stack_flush_info, then
// cfd[0..n), cpu after cpu. CFDs are built on first use with those ids.
TEST(PerCpuTest, CfdLinesKeepPerLineIdsAndNames) {
  for (const Topology& topo : {Topology{}, Topology::EightSocket()}) {
    SystemConfig cfg;
    cfg.machine.topo = topo;
    System sys(cfg);
    CoherenceModel& coh = sys.machine().coherence();
    const int n = topo.num_cpus();
    const LineId base = sys.kernel().percpu(0).tlbstate_line;
    for (int c = 0; c < n; ++c) {
      PerCpu& pc = sys.kernel().percpu(c);
      const LineId first = base + static_cast<LineId>(c) * static_cast<LineId>(n + 3);
      const std::string cpu = "cpu" + std::to_string(c);
      ASSERT_EQ(pc.tlbstate_line, first) << cpu;
      EXPECT_EQ(pc.csq_line, first + 1) << cpu;
      EXPECT_EQ(pc.stack_info_line, first + 2) << cpu;
      EXPECT_EQ(coh.NameOf(pc.tlbstate_line), cpu + ".tlbstate");
      EXPECT_EQ(coh.NameOf(pc.csq_line), cpu + ".call_single_queue");
      EXPECT_EQ(coh.NameOf(pc.stack_info_line), cpu + ".stack_flush_info");
      for (const auto& cfd : pc.cfds()) {
        EXPECT_EQ(cfd, nullptr) << cpu << ": built before first use";
      }
      for (int t = 0; t < n; ++t) {
        LineId line = pc.CfdFor(t).line;
        ASSERT_EQ(line, first + 3 + static_cast<LineId>(t)) << cpu << " t" << t;
        ASSERT_EQ(coh.NameOf(line), cpu + ".cfd[" + std::to_string(t) + "]");
        ASSERT_EQ(&pc.CfdFor(t), pc.cfds()[static_cast<size_t>(t)].get());
      }
    }
  }
}

TEST(OptimizationSetTest, CumulativePresetsAreMonotone) {
  for (int level = 1; level <= 6; ++level) {
    OptimizationSet lo = OptimizationSet::Cumulative(level - 1);
    OptimizationSet hi = OptimizationSet::Cumulative(level);
    // Everything enabled at level-1 stays enabled at level.
    EXPECT_LE(lo.concurrent_flush, hi.concurrent_flush);
    EXPECT_LE(lo.early_ack, hi.early_ack);
    EXPECT_LE(lo.cacheline_consolidation, hi.cacheline_consolidation);
    EXPECT_LE(lo.in_context_flush, hi.in_context_flush);
    EXPECT_LE(lo.cow_avoidance, hi.cow_avoidance);
    EXPECT_LE(lo.userspace_batching, hi.userspace_batching);
  }
  EXPECT_EQ(OptimizationSet::Cumulative(0).Describe(), "baseline");
  EXPECT_EQ(OptimizationSet::None().Describe(), "baseline");
  EXPECT_NE(OptimizationSet::All().Describe().find("batching"), std::string::npos);
}

TEST(OptimizationSetTest, AllGeneralExcludesUseCaseSpecific) {
  OptimizationSet g = OptimizationSet::AllGeneral();
  EXPECT_TRUE(g.concurrent_flush && g.early_ack && g.cacheline_consolidation &&
              g.in_context_flush);
  EXPECT_FALSE(g.cow_avoidance);
  EXPECT_FALSE(g.userspace_batching);
}

TEST(FlushInfoTest, PageCountAndFull) {
  FlushTlbInfo info;
  info.start = 0x1000;
  info.end = 0x5000;
  EXPECT_EQ(info.PageCount(), 4u);
  EXPECT_FALSE(info.IsFull());
  info.end = kFlushAll;
  EXPECT_TRUE(info.IsFull());
  EXPECT_EQ(info.PageCount(), 0u);
  info.end = 0x1000;  // empty range
  EXPECT_EQ(info.PageCount(), 0u);
}

TEST(FlushInfoTest, HugeStride) {
  FlushTlbInfo info;
  info.start = 0;
  info.end = 4 * kPageSize2M;
  info.stride_shift = static_cast<int>(kHugeShift);
  EXPECT_EQ(info.PageCount(), 4u);
}

TEST(SystemTest, TwoProcessesAreIsolated) {
  System sys(TestConfig(OptimizationSet::All()));
  Kernel& k = sys.kernel();
  auto* p1 = k.CreateProcess();
  auto* p2 = k.CreateProcess();
  auto* t1 = k.CreateThread(p1, 0);
  auto* t2 = k.CreateThread(p2, 2);
  EXPECT_NE(p1->mm->kernel_pcid, p2->mm->kernel_pcid);
  EXPECT_NE(p1->mm->user_pcid, p2->mm->user_pcid);

  sys.machine().engine().Spawn(0, Go([&]() -> Co<void> {
    uint64_t a1 = co_await k.SysMmap(*t1, 8 * kPageSize4K, true, false);
    uint64_t a2 = co_await k.SysMmap(*t2, 8 * kPageSize4K, true, false);
    for (int i = 0; i < 8; ++i) {
      co_await k.UserAccess(*t1, a1 + i * kPageSize4K, true);
      co_await k.UserAccess(*t2, a2 + i * kPageSize4K, true);
    }
    // p1's madvise must not IPI p2's CPU (different mm).
    uint64_t ipis_before = sys.machine().apic().stats().ipis_sent;
    co_await k.SysMadviseDontneed(*t1, a1, 8 * kPageSize4K);
    EXPECT_EQ(sys.machine().apic().stats().ipis_sent, ipis_before);
    // p2's pages are untouched.
    for (int i = 0; i < 8; ++i) {
      EXPECT_TRUE(p2->mm->pt.Walk(a2 + i * kPageSize4K).present);
    }
  }));
  sys.machine().engine().Run();
  EXPECT_TRUE(TlbCoherent(sys, *p1->mm));
  EXPECT_TRUE(TlbCoherent(sys, *p2->mm));
}

TEST(SystemTest, ContextSwitchBetweenProcessesKeepsCoherence) {
  System sys(TestConfig(OptimizationSet::All()));
  Kernel& k = sys.kernel();
  auto* p1 = k.CreateProcess();
  auto* p2 = k.CreateProcess();
  auto* t1 = k.CreateThread(p1, 0);
  sys.machine().engine().Spawn(0, Go([&]() -> Co<void> {
    uint64_t a1 = co_await k.SysMmap(*t1, 4 * kPageSize4K, true, false);
    for (int i = 0; i < 4; ++i) {
      co_await k.UserAccess(*t1, a1 + i * kPageSize4K, true);
    }
    // Switch cpu0 to p2 and back; p1's translations must not be usable by
    // p2 (PCID separation), and coherence holds throughout.
    co_await k.SwitchTo(0, p2->mm.get());
    EXPECT_FALSE(p1->mm->cpumask.test(0));
    EXPECT_TRUE(p2->mm->cpumask.test(0));
    co_await k.SwitchTo(0, p1->mm.get());
    EXPECT_TRUE(p1->mm->cpumask.test(0));
  }));
  sys.machine().engine().Run();
  EXPECT_TRUE(TlbCoherent(sys, *p1->mm));
  EXPECT_TRUE(TlbCoherent(sys, *p2->mm));
  EXPECT_EQ(sys.kernel().stats().context_switches, 2u);
}

TEST(SystemTest, WholeSystemDeterminism) {
  auto run = [] {
    SystemConfig cfg = TestConfig(OptimizationSet::All());
    cfg.machine.seed = 99;
    cfg.machine.costs.jitter_frac = 0.05;
    System sys(cfg);
    Kernel& k = sys.kernel();
    auto* p = k.CreateProcess();
    Thread* threads[2] = {k.CreateThread(p, 0), k.CreateThread(p, 30)};
    for (Thread* t : threads) {
      sys.machine().cpu(t->cpu).Spawn(Go([&k, &sys, t]() -> Co<void> {
        uint64_t a = co_await k.SysMmap(*t, 8 * kPageSize4K, true, false);
        for (int r = 0; r < 5; ++r) {
          for (int i = 0; i < 8; ++i) {
            co_await k.UserAccess(*t, a + i * kPageSize4K, true);
          }
          co_await k.SysMadviseDontneed(*t, a, 8 * kPageSize4K);
        }
      }));
    }
    Cycles end = sys.machine().engine().Run();
    return std::make_tuple(end, sys.shootdown().stats().shootdowns,
                           sys.machine().apic().stats().ipis_sent,
                           sys.machine().coherence().global_stats().transfers);
  };
  EXPECT_EQ(run(), run());
}

TEST(SystemTest, MprotectShootdownAcrossThreads) {
  System sys(TestConfig(OptimizationSet::All()));
  Kernel& k = sys.kernel();
  auto* p = k.CreateProcess();
  auto* t0 = k.CreateThread(p, 0);
  k.CreateThread(p, 2);
  sys.machine().engine().Spawn(0, BusyLoop(sys.machine().cpu(2), 500, 1000));
  bool write_after_protect = true;
  sys.machine().engine().Spawn(0, Go([&]() -> Co<void> {
    uint64_t a = co_await k.SysMmap(*t0, 2 * kPageSize4K, true, false);
    co_await k.UserAccess(*t0, a, true);
    co_await k.SysMprotect(*t0, a, 2 * kPageSize4K, /*writable=*/false);
    write_after_protect = co_await k.UserAccess(*t0, a, true);
  }));
  sys.machine().engine().Run();
  EXPECT_FALSE(write_after_protect);
  EXPECT_TRUE(TlbCoherent(sys, *p->mm));
}

TEST(SystemTest, HugePageMadviseUsesHugeStride) {
  System sys(TestConfig(OptimizationSet::All()));
  Kernel& k = sys.kernel();
  auto* p = k.CreateProcess();
  auto* t = k.CreateThread(p, 0);
  sys.machine().engine().Spawn(0, Go([&]() -> Co<void> {
    uint64_t a = co_await k.SysMmap(*t, 2 * kPageSize2M, true, false, nullptr, 0, PageSize::k2M);
    co_await k.UserAccess(*t, a, true);
    co_await k.UserAccess(*t, a + kPageSize2M, true);
    co_await k.SysMadviseDontneed(*t, a, 2 * kPageSize2M);
    EXPECT_FALSE(p->mm->pt.Walk(a).present);
  }));
  sys.machine().engine().Run();
  EXPECT_TRUE(TlbCoherent(sys, *p->mm));
}

}  // namespace
}  // namespace tlbsim
