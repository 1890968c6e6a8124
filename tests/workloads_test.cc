// Workload drivers: determinism, paper-shape assertions for each experiment
// family (cheap versions of the bench checks, suitable for CI).
#include <gtest/gtest.h>

#include "src/workloads/apache.h"
#include "src/workloads/churn.h"
#include "src/workloads/fracture.h"
#include "src/workloads/microbench.h"
#include "src/workloads/sysbench.h"

namespace tlbsim {
namespace {

MicroResult Micro(int level, int pages, Placement p, bool pti = true, uint64_t seed = 1) {
  MicroConfig cfg;
  cfg.pti = pti;
  cfg.opts = OptimizationSet::Cumulative(level);
  cfg.pages = pages;
  cfg.placement = p;
  cfg.iterations = 100;
  cfg.seed = seed;
  return RunMadviseMicrobench(cfg);
}

TEST(MicrobenchTest, Deterministic) {
  MicroResult a = Micro(0, 4, Placement::kOtherSocket);
  MicroResult b = Micro(0, 4, Placement::kOtherSocket);
  EXPECT_DOUBLE_EQ(a.initiator.mean(), b.initiator.mean());
  EXPECT_DOUBLE_EQ(a.responder_cycles_per_op, b.responder_cycles_per_op);
}

TEST(MicrobenchTest, EveryIterationShootsDown) {
  MicroResult r = Micro(0, 1, Placement::kSameSocket);
  EXPECT_EQ(r.shootdowns, 100u);
  EXPECT_EQ(r.initiator.count(), 100u);
}

TEST(MicrobenchTest, ConcurrentFlushingHelpsInitiator) {
  EXPECT_LT(Micro(1, 10, Placement::kOtherSocket).initiator.mean(),
            Micro(0, 10, Placement::kOtherSocket).initiator.mean());
}

TEST(MicrobenchTest, ConcurrentBenefitGrowsWithPages) {
  auto gain = [](int pages) {
    double base = Micro(0, pages, Placement::kSameCore).initiator.mean();
    double conc = Micro(1, pages, Placement::kSameCore).initiator.mean();
    return 1.0 - conc / base;
  };
  EXPECT_GT(gain(10), gain(1));
}

TEST(MicrobenchTest, EarlyAckBenefitGrowsWithDistance) {
  auto gain = [](Placement p) {
    double before = Micro(2, 10, p).initiator.mean();
    double after = Micro(3, 10, p).initiator.mean();
    return before - after;
  };
  EXPECT_GT(gain(Placement::kOtherSocket), gain(Placement::kSameCore));
}

TEST(MicrobenchTest, InContextHelpsResponderInSafeMode) {
  double before = Micro(3, 10, Placement::kOtherSocket).responder_cycles_per_op;
  double after = Micro(4, 10, Placement::kOtherSocket).responder_cycles_per_op;
  EXPECT_LT(after, before);
}

TEST(MicrobenchTest, InitiatorLatencyOrdersByDistance) {
  double same_core = Micro(0, 1, Placement::kSameCore).initiator.mean();
  double same_socket = Micro(0, 1, Placement::kSameSocket).initiator.mean();
  double cross = Micro(0, 1, Placement::kOtherSocket).initiator.mean();
  EXPECT_LT(same_core, same_socket);
  EXPECT_LT(same_socket, cross);
}

TEST(MicrobenchTest, UnsafeModeFasterThanSafe) {
  EXPECT_LT(Micro(0, 10, Placement::kOtherSocket, /*pti=*/false).initiator.mean(),
            Micro(0, 10, Placement::kOtherSocket, /*pti=*/true).initiator.mean());
}

TEST(CowBenchTest, AvoidanceSavesCycles) {
  CowConfig cfg;
  cfg.pages = 32;
  cfg.rounds = 2;
  cfg.opts = OptimizationSet::AllGeneral();
  CowResult base = RunCowMicrobench(cfg);
  cfg.opts.cow_avoidance = true;
  CowResult opt = RunCowMicrobench(cfg);
  EXPECT_LT(opt.write_cycles.mean(), base.write_cycles.mean());
  EXPECT_EQ(opt.flushes_avoided, 64u);  // 32 pages x 2 rounds
  EXPECT_EQ(base.flushes_avoided, 0u);
}

TEST(SysbenchTest, RunsAndCountsShootdowns) {
  SysbenchConfig cfg;
  cfg.threads = 4;
  cfg.writes_per_thread = 48;
  cfg.seed = 3;
  SysbenchResult r = RunSysbench(cfg);
  EXPECT_GT(r.writes_per_mcycle, 0.0);
  EXPECT_GT(r.shootdowns, 0u);
}

TEST(SysbenchTest, BatchingImprovesThroughput) {
  SysbenchConfig cfg;
  cfg.threads = 4;
  cfg.writes_per_thread = 64;
  cfg.seed = 3;
  double base = RunSysbench(cfg).writes_per_mcycle;
  cfg.opts.userspace_batching = true;
  double batched = RunSysbench(cfg).writes_per_mcycle;
  EXPECT_GT(batched, base);
}

TEST(SysbenchTest, FlushStormsAppearWithManyThreads) {
  SysbenchConfig cfg;
  cfg.threads = 12;
  cfg.writes_per_thread = 64;
  cfg.seed = 3;
  SysbenchResult r = RunSysbench(cfg);
  EXPECT_GT(r.responder_full_storm + r.skipped_gen, 0u);
}

TEST(ApacheTest, ThroughputScalesWithCoresUntilCap) {
  ApacheConfig cfg;
  cfg.requests_per_core = 30;
  cfg.server_cores = 1;
  double one = RunApache(cfg).requests_per_mcycle;
  cfg.server_cores = 4;
  double four = RunApache(cfg).requests_per_mcycle;
  EXPECT_GT(four, 2.5 * one);
}

TEST(ApacheTest, OptimizationsHelpAtHighCoreCounts) {
  ApacheConfig cfg;
  cfg.requests_per_core = 30;
  cfg.server_cores = 8;
  cfg.generator_cap_per_mcycle = 1e9;  // uncapped
  double base = RunApache(cfg).raw_requests_per_mcycle;
  cfg.opts = OptimizationSet::AllGeneral();
  double opt = RunApache(cfg).raw_requests_per_mcycle;
  EXPECT_GT(opt, base);
}

TEST(ApacheTest, GeneratorCapClips) {
  ApacheConfig cfg;
  cfg.requests_per_core = 20;
  cfg.server_cores = 4;
  cfg.generator_cap_per_mcycle = 10.0;
  ApacheResult r = RunApache(cfg);
  EXPECT_DOUBLE_EQ(r.requests_per_mcycle, 10.0);
  EXPECT_GT(r.raw_requests_per_mcycle, 10.0);
}

TEST(FractureTest, FracturingRowSelectiveEqualsFull) {
  FractureConfig cfg;
  cfg.guest_size = PageSize::k2M;
  cfg.host_size = PageSize::k4K;
  cfg.rounds = 10;
  cfg.selective_flush = false;
  uint64_t full = RunFractureWorkload(cfg).dtlb_misses;
  cfg.selective_flush = true;
  FractureResult sel = RunFractureWorkload(cfg);
  EXPECT_EQ(sel.dtlb_misses, full);
  EXPECT_EQ(sel.fracture_forced_full, 10u);
}

TEST(FractureTest, NonFracturingSelectiveIsCheap) {
  FractureConfig cfg;
  cfg.guest_size = PageSize::k4K;
  cfg.host_size = PageSize::k4K;
  cfg.rounds = 10;
  cfg.selective_flush = false;
  uint64_t full = RunFractureWorkload(cfg).dtlb_misses;
  cfg.selective_flush = true;
  uint64_t sel = RunFractureWorkload(cfg).dtlb_misses;
  EXPECT_LT(sel * 5, full);
}

TEST(FractureTest, MitigationRestoresSelectiveFlush) {
  FractureConfig cfg;
  cfg.guest_size = PageSize::k2M;
  cfg.host_size = PageSize::k4K;
  cfg.rounds = 10;
  cfg.selective_flush = true;
  uint64_t broken = RunFractureWorkload(cfg).dtlb_misses;
  cfg.disable_fracture_degrade = true;
  uint64_t fixed = RunFractureWorkload(cfg).dtlb_misses;
  EXPECT_LT(fixed * 5, broken);
}

TEST(FractureTest, HugePagesReduceMissCounts) {
  FractureConfig cfg;
  cfg.vm = false;
  cfg.rounds = 10;
  cfg.host_size = PageSize::k4K;
  uint64_t small = RunFractureWorkload(cfg).dtlb_misses;
  cfg.host_size = PageSize::k2M;
  uint64_t huge = RunFractureWorkload(cfg).dtlb_misses;
  EXPECT_LT(huge * 10, small);
}

ChurnResult Churn(bool pagecache, int threads, FlushBackendKind backend) {
  ChurnConfig cfg;
  cfg.opts = OptimizationSet::AllGeneral();
  cfg.opts.reuse_elision = true;
  cfg.threads = threads;
  cfg.iters = 8;
  cfg.backend = backend;
  return pagecache ? RunChurnPagecache(cfg) : RunChurnArena(cfg);
}

TEST(ChurnTest, SeededStormReplaysIdentically) {
  // Replaying the seeded storm must be cycle-identical — for every workload
  // shape, backend and thread count.
  for (bool pagecache : {false, true}) {
    for (FlushBackendKind backend : {FlushBackendKind::kIpi, FlushBackendKind::kQueue}) {
      for (int threads : {1, 4}) {
        SCOPED_TRACE((pagecache ? std::string("pagecache") : std::string("arena")) + "/" +
                     FlushBackendName(backend) + "/t" + std::to_string(threads));
        ChurnResult a = Churn(pagecache, threads, backend);
        ChurnResult r = Churn(pagecache, threads, backend);
        EXPECT_EQ(a.total_cycles, r.total_cycles);
        EXPECT_EQ(a.flush_requests, r.flush_requests);
        EXPECT_EQ(a.shootdowns, r.shootdowns);
        EXPECT_EQ(a.elided_flushes, r.elided_flushes);
        EXPECT_EQ(a.elided_pages, r.elided_pages);
        EXPECT_EQ(a.benign_closes, r.benign_closes);
        EXPECT_EQ(a.forced_flushes, r.forced_flushes);
        EXPECT_EQ(a.evictions, r.evictions);
        EXPECT_EQ(a.frame_handoffs, r.frame_handoffs);
      }
    }
  }
}

TEST(ChurnTest, ElisionMovesFlushesOffTheShootdownPath) {
  for (bool pagecache : {false, true}) {
    SCOPED_TRACE(pagecache ? "pagecache" : "arena");
    ChurnConfig cfg;
    cfg.opts = OptimizationSet::AllGeneral();
    cfg.threads = 4;
    cfg.iters = 8;
    ChurnResult off = pagecache ? RunChurnPagecache(cfg) : RunChurnArena(cfg);
    cfg.opts.reuse_elision = true;
    ChurnResult on = pagecache ? RunChurnPagecache(cfg) : RunChurnArena(cfg);
    EXPECT_EQ(off.elided_flushes, 0u);
    EXPECT_EQ(off.benign_closes, 0u);
    EXPECT_GT(on.elided_flushes, 0u);
    EXPECT_GT(on.benign_closes, 0u);
    EXPECT_LT(on.flush_requests, off.flush_requests);
  }
}

}  // namespace
}  // namespace tlbsim
