// Parallel engine: the closed-shard contract. Each parallel phase runs every
// shard to completion (or to the RunUntil deadline) with no channel between
// queues, so a cross-queue schedule or cancel during a phase — and a
// coordinator insert behind a shard's clock — must abort, while confined
// per-shard work replays bit-identically inline and on a thread pool (the
// latter is what the TSan CI job runs to cover the fork-join).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/exec/thread_pool.h"
#include "src/sim/engine.h"

namespace tlbsim {
namespace {

// Two shards, two cpus each: cpus {0,1} -> shard A (queue 1), {2,3} ->
// shard B (queue 2). Null executor: shards run inline on the caller.
Engine::ShardPlan TwoShardPlan() {
  Engine::ShardPlan plan;
  plan.shards = 2;
  plan.shard_of_cpu = {0, 0, 1, 1};
  return plan;
}

TEST(ParallelEngineTest, DegeneratePlanStaysLegacy) {
  // shards <= 1 must leave the engine in the unsharded shape: same ids,
  // same ordering, ScheduleOnCpu lands on the serial queue.
  Engine legacy;
  Engine degenerate;
  Engine::ShardPlan plan;
  plan.shards = 1;
  degenerate.ConfigureSharding(std::move(plan));
  EXPECT_FALSE(degenerate.sharded());

  std::vector<int> legacy_order;
  std::vector<int> degen_order;
  std::vector<Engine::EventId> legacy_ids;
  std::vector<Engine::EventId> degen_ids;
  for (Engine* e : {&legacy, &degenerate}) {
    auto& order = (e == &legacy) ? legacy_order : degen_order;
    auto& ids = (e == &legacy) ? legacy_ids : degen_ids;
    ids.push_back(e->Schedule(30, [&order] { order.push_back(3); }));
    ids.push_back(e->ScheduleOnCpu(2, 10, [&order] { order.push_back(1); }));
    ids.push_back(e->Schedule(20, [&order] { order.push_back(2); }));
    e->Cancel(ids[2]);
    e->Run();
  }
  EXPECT_EQ(legacy_order, (std::vector<int>{1, 3}));
  EXPECT_EQ(degen_order, legacy_order);
  EXPECT_EQ(degen_ids, legacy_ids);  // bit-compatible EventId encoding
  EXPECT_EQ(degenerate.now(), legacy.now());
  EXPECT_EQ(degenerate.events_processed(), legacy.events_processed());
}

TEST(ParallelEngineTest, UnshardedScheduleOnCpuInterleavesWithSchedule) {
  Engine e;
  std::vector<int> order;
  e.Schedule(20, [&] { order.push_back(2); });
  e.ScheduleOnCpu(55, 10, [&] { order.push_back(1); });
  e.ScheduleOnCpu(3, 30, [&] { order.push_back(3); });
  e.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30);
}

TEST(ParallelEngineTest, RunUntilStopsAtDeadlineAndResumes) {
  Engine e;
  e.ConfigureSharding(TwoShardPlan());

  std::vector<Cycles> fired;
  e.ScheduleOnCpu(0, 100, [&] { fired.push_back(e.now()); });
  e.ScheduleOnCpu(2, 200, [&] { fired.push_back(e.now()); });
  EXPECT_FALSE(e.RunUntil(150));
  EXPECT_EQ(fired, (std::vector<Cycles>{100}));
  e.Run();
  EXPECT_EQ(fired, (std::vector<Cycles>{100, 200}));
  EXPECT_TRUE(e.empty());
}

// --- contract violations abort, in every build type ---

TEST(ParallelEngineDeathTest, CrossShardScheduleDuringPhaseAborts) {
  EXPECT_DEATH(
      {
        Engine e;
        e.ConfigureSharding(TwoShardPlan());
        e.ScheduleOnCpu(0, 10, [&] { e.ScheduleOnCpu(2, 5000, [] {}); });
        e.Run();
      },
      "queue 1 scheduled onto queue 2 during a parallel phase");
}

TEST(ParallelEngineDeathTest, CrossShardCancelDuringPhaseAborts) {
  EXPECT_DEATH(
      {
        Engine e;
        e.ConfigureSharding(TwoShardPlan());
        Engine::EventId victim = e.ScheduleOnCpu(2, 5000, [] {});
        e.ScheduleOnCpu(0, 10, [&e, victim] { e.Cancel(victim); });
        e.Run();
      },
      "queue 1 cancelled an event of queue 2 during a parallel phase");
}

TEST(ParallelEngineDeathTest, CoordinatorInsertBehindShardClockAborts) {
  EXPECT_DEATH(
      {
        Engine e;
        e.ConfigureSharding(TwoShardPlan());
        e.ScheduleOnCpu(0, 100, [] {});
        e.Run();  // shard A's clock is now 100; the serial clock is still 0
        e.ScheduleOnCpu(1, 50, [] {});
      },
      "queue 0 scheduled onto queue 1 at 50, behind its clock 100");
}

// --- confined per-shard chains: same result inline and on a pool ---

struct ChainResult {
  std::vector<uint64_t> hashes;  // per cpu, order-sensitive
  uint64_t events = 0;
  Cycles end = 0;
  Engine::ParallelStats par;
};

// Every cpu of a 4-shard, 16-cpu plan runs a self-rescheduling chain on its
// own shard; each link folds (cpu, time) into that cpu's hash, so any
// reordering or lost event changes the result.
ChainResult RunChains(Engine::Executor* executor) {
  constexpr int kCpus = 16;
  constexpr int kLinks = 200;
  Engine e;
  Engine::ShardPlan plan;
  plan.shards = 4;
  for (int c = 0; c < kCpus; ++c) {
    plan.shard_of_cpu.push_back(c / 4);
  }
  plan.executor = executor;
  e.ConfigureSharding(std::move(plan));

  ChainResult r;
  r.hashes.assign(kCpus, 0);
  std::vector<int> left(kCpus, kLinks);
  auto link = [&](auto&& self, int cpu) -> void {
    uint64_t& h = r.hashes[static_cast<size_t>(cpu)];
    h = h * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(e.now());
    if (--left[static_cast<size_t>(cpu)] > 0) {
      e.ScheduleOnCpu(cpu, e.now() + 1 + static_cast<Cycles>(h % 13),
                      [&self, cpu] { self(self, cpu); });
    }
  };
  for (int c = 0; c < kCpus; ++c) {
    e.ScheduleOnCpu(c, c, [&link, c] { link(link, c); });
  }
  r.end = e.Run();
  r.events = e.events_processed();
  r.par = e.parallel_stats();
  return r;
}

TEST(ParallelEngineTest, PerShardChainsReplayOnThreadPool) {
  ChainResult inline_run = RunChains(nullptr);
  EXPECT_EQ(inline_run.events, 16u * 200u);
  EXPECT_EQ(inline_run.par.windows, 1u);
  EXPECT_EQ(inline_run.par.shard_windows, 4u);
  EXPECT_EQ(inline_run.par.parallel_events, inline_run.events);

  ThreadPool pool(4);
  EngineExecutor executor(pool);
  ChainResult pooled = RunChains(&executor);
  EXPECT_EQ(pooled.hashes, inline_run.hashes);
  EXPECT_EQ(pooled.events, inline_run.events);
  EXPECT_EQ(pooled.end, inline_run.end);
  EXPECT_EQ(pooled.par.windows, inline_run.par.windows);
  EXPECT_EQ(pooled.par.shard_windows, inline_run.par.shard_windows);
  EXPECT_EQ(pooled.par.parallel_events, inline_run.par.parallel_events);
}

}  // namespace
}  // namespace tlbsim
