// google-benchmark microbenchmarks of the simulator primitives: TLB lookup /
// insert / INVLPG / construction, page walks and present-leaf walks, frame
// allocator churn and refault, coherence accesses, System construction,
// engine event throughput, coroutine-frame pooling, the metrics snapshot of a
// 224-cpu storm, and a full end-to-end shootdown simulation per iteration.
#include <benchmark/benchmark.h>

#include <vector>

#include "src/core/snapshot.h"
#include "src/core/system.h"
#include "src/mm/phys.h"
#include "src/hw/machine.h"
#include "src/hw/mmu.h"
#include "src/sim/frame_pool.h"
#include "src/workloads/microbench.h"
#include "src/workloads/protocol_storm.h"

namespace tlbsim {
namespace {

void BM_TlbLookupHit(benchmark::State& state) {
  Tlb tlb;
  TlbEntry e;
  e.vpn = 0x1234;
  e.pcid = 1;
  e.pfn = 7;
  e.flags = PteFlags::kPresent;
  tlb.Insert(e);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tlb.Lookup(1, 0x1234ULL << kPageShift));
  }
}
BENCHMARK(BM_TlbLookupHit);

void BM_TlbInsertEvict(benchmark::State& state) {
  Tlb tlb;
  uint64_t vpn = 0;
  for (auto _ : state) {
    TlbEntry e;
    e.vpn = vpn++;
    e.pcid = 1;
    e.pfn = vpn;
    e.flags = PteFlags::kPresent;
    tlb.Insert(e);
  }
}
BENCHMARK(BM_TlbInsertEvict);

void BM_TlbInvlPgNo2M(benchmark::State& state) {
  // The responder's per-page flush with no 2M entry resident, so the 2M
  // probe is skipped. The 4K entries are gone after the first 1024 flushes;
  // the 4K set scan still runs.
  Tlb tlb;
  for (uint64_t vpn = 0; vpn < 1024; ++vpn) {
    TlbEntry e;
    e.vpn = vpn;
    e.pcid = 1;
    e.pfn = vpn;
    e.flags = PteFlags::kPresent;
    tlb.Insert(e);
  }
  uint64_t vpn = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tlb.InvlPg(1, (vpn++ % 1024) << kPageShift));
  }
}
BENCHMARK(BM_TlbInvlPgNo2M);

void BM_TlbInvlPgEmptySet(benchmark::State& state) {
  // INVLPG into a 4K set with no valid way on a TLB whose sets 0..63 are
  // full: the responder's per-page flush of a page this cpu never cached.
  Tlb tlb;
  for (uint64_t vpn = 0; vpn < 128 * 12; ++vpn) {
    if (vpn % 128 >= 64) continue;
    TlbEntry e;
    e.vpn = vpn;
    e.pcid = 1;
    e.pfn = vpn;
    e.flags = PteFlags::kPresent;
    tlb.Insert(e);
  }
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tlb.InvlPg(1, (64 + i++ % 64) << kPageShift));
  }
}
BENCHMARK(BM_TlbInvlPgEmptySet);

void BM_TlbConstruction(benchmark::State& state) {
  // One data TLB and one instruction TLB (SimCpu's geometries) built and
  // destroyed; a System builds one pair per cpu.
  TlbGeometry itlb_geo;
  itlb_geo.sets_4k = 16;
  itlb_geo.ways_4k = 8;
  itlb_geo.sets_2m = 2;
  itlb_geo.ways_2m = 4;
  for (auto _ : state) {
    Tlb dtlb;
    Tlb itlb(itlb_geo);
    benchmark::DoNotOptimize(&dtlb);
    benchmark::DoNotOptimize(&itlb);
  }
}
BENCHMARK(BM_TlbConstruction);

void BM_PageWalk(benchmark::State& state) {
  PageTable pt;
  constexpr uint64_t kVa = 0x500000000000ULL;
  for (int i = 0; i < 512; ++i) {
    pt.Map(kVa + static_cast<uint64_t>(i) * kPageSize4K, static_cast<uint64_t>(i + 1),
           PteFlags::kPresent | PteFlags::kUser);
  }
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pt.Walk(kVa + (i++ % 512) * kPageSize4K));
  }
}
BENCHMARK(BM_PageWalk);

void BM_ForEachPresent1024(benchmark::State& state) {
  // The zap/mprotect/msync range walk over 1024 present 4K pages.
  PageTable pt;
  constexpr uint64_t kVa = 0x500000000000ULL;
  constexpr uint64_t kPages = 1024;
  for (uint64_t i = 0; i < kPages; ++i) {
    pt.Map(kVa + i * kPageSize4K, i + 1, PteFlags::kPresent | PteFlags::kUser);
  }
  for (auto _ : state) {
    uint64_t visited = 0;
    pt.ForEachPresent(kVa, kVa + kPages * kPageSize4K,
                      [&](uint64_t, Pte, PageSize) { ++visited; });
    benchmark::DoNotOptimize(visited);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kPages));
}
BENCHMARK(BM_ForEachPresent1024);

void BM_FrameAllocChurn(benchmark::State& state) {
  // Steady-state alloc/free churn with a deep free list. The old allocator
  // scanned the free list linearly per Alloc (O(n) with n = live free
  // entries); the bucketed index makes the scan O(log n). The range arg is
  // the standing free-list depth.
  FrameAllocator fa;
  std::vector<uint64_t> standing;
  const int depth = static_cast<int>(state.range(0));
  standing.reserve(static_cast<size_t>(depth));
  for (int i = 0; i < depth; ++i) {
    standing.push_back(fa.Alloc());
  }
  for (uint64_t pfn : standing) {
    fa.Unref(pfn);  // deep free list of 1-frame blocks
  }
  uint64_t huge = fa.Alloc(512);
  fa.Unref(huge);  // plus one huge block the churn must skip past
  for (auto _ : state) {
    uint64_t pfn = fa.Alloc(512);
    fa.Unref(pfn);
    benchmark::DoNotOptimize(pfn);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FrameAllocChurn)->Arg(16)->Arg(1024)->Arg(65536);

void BM_FrameAllocRefault(benchmark::State& state) {
  // The frame side of a warm madvise(MADV_DONTNEED) -> refault cycle: free
  // the range's N frames, then fault them back in, each off the free list.
  // A standing population keeps the pfn tables realistically sized.
  FrameAllocator fa;
  for (int i = 0; i < 1024; ++i) {
    fa.Alloc();
  }
  std::vector<uint64_t> range(static_cast<size_t>(state.range(0)));
  for (uint64_t& pfn : range) {
    pfn = fa.Alloc();
  }
  for (auto _ : state) {
    for (uint64_t pfn : range) {
      fa.Unref(pfn);
    }
    for (uint64_t& pfn : range) {
      pfn = fa.AllocOn(0);
    }
    benchmark::DoNotOptimize(range.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FrameAllocRefault)->Arg(1)->Arg(10);

void BM_CoherencePingPong(benchmark::State& state) {
  Topology topo;
  CacheCosts costs;
  CoherenceModel model(topo, costs);
  LineId line = model.AllocateLine("pingpong");
  int cpu = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Access(cpu, line, AccessType::kWrite));
    cpu = cpu == 0 ? 30 : 0;
  }
}
BENCHMARK(BM_CoherencePingPong);

void BM_CoherenceSharersThenWriter(benchmark::State& state) {
  // A named line read by 16 cpus (both sockets) and then written by one
  // more: 16 read transfers and one invalidating write per iteration.
  Topology topo;
  CacheCosts costs;
  CoherenceModel model(topo, costs);
  LineId line = model.AllocateLine("flush_info");
  for (auto _ : state) {
    for (int cpu = 0; cpu < 32; cpu += 2) {
      benchmark::DoNotOptimize(model.Access(cpu, line, AccessType::kRead));
    }
    benchmark::DoNotOptimize(model.Access(55, line, AccessType::kWrite));
  }
  state.SetItemsProcessed(state.iterations() * 17);
}
BENCHMARK(BM_CoherenceSharersThenWriter);

void BM_SystemConstruction(benchmark::State& state) {
  // Building (and tearing down) a whole System: per-cpu TLBs, the kernel's
  // named lines and the coherence directory. Arg = cpus (56 or 224).
  SystemConfig cfg;
  cfg.machine.topo = state.range(0) > 56 ? Topology::EightSocket() : Topology{};
  for (auto _ : state) {
    System sys(cfg);
    benchmark::DoNotOptimize(&sys);
  }
}
BENCHMARK(BM_SystemConstruction)->Arg(56)->Arg(224)->Unit(benchmark::kMillisecond);

void BM_EngineEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    Engine e;
    for (int i = 0; i < 1000; ++i) {
      e.Schedule(i, [] {});
    }
    e.Run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EngineEventThroughput);

void BM_FramePoolPingPong(benchmark::State& state) {
  // One coroutine frame allocated and freed per iteration: every Free
  // pushes into an empty bucket, the path that arms the thread's releaser.
  for (auto _ : state) {
    void* p = FramePool::Alloc(256);
    benchmark::DoNotOptimize(p);
    FramePool::Free(p, 256);
  }
}
BENCHMARK(BM_FramePoolPingPong);

void BM_StormSnapshot(benchmark::State& state) {
  // SystemMetricsJson on the 224-cpu System a protocol storm leaves behind:
  // the per-cpu counters of every cpu plus the banked histograms.
  ProtocolStormConfig cfg;
  cfg.iterations = 2;
  std::unique_ptr<System> sys;
  RunProtocolStorm(cfg, &sys);
  for (auto _ : state) {
    Json j = SystemMetricsJson(*sys);
    benchmark::DoNotOptimize(j.size());
  }
}
BENCHMARK(BM_StormSnapshot)->Unit(benchmark::kMillisecond);

void BM_FullShootdownSimulation(benchmark::State& state) {
  // Wall-clock cost of simulating one complete madvise microbenchmark run
  // (50 shootdowns, cross-socket, all optimizations).
  for (auto _ : state) {
    MicroConfig cfg;
    cfg.pti = true;
    cfg.opts = OptimizationSet::All();
    cfg.pages = 10;
    cfg.placement = Placement::kOtherSocket;
    cfg.iterations = 50;
    cfg.seed = 1;
    MicroResult r = RunMadviseMicrobench(cfg);
    benchmark::DoNotOptimize(r.initiator.mean());
  }
  state.SetItemsProcessed(state.iterations() * 50);
}
BENCHMARK(BM_FullShootdownSimulation);

}  // namespace
}  // namespace tlbsim

BENCHMARK_MAIN();
