// Steady-state shootdowns never reach the heap allocator: every per-IPI,
// per-wait, per-resume and per-shootdown structure (target lists, flush-info
// batches, the call-single-queue, flag waiters, resume events, coroutine
// frames) lives inline or in storage that keeps its capacity. Counted with a
// replacement operator new, after a warm-up long enough for histogram
// reservoirs (Histogram::kMaxSamples) and the engine's slot pool to reach
// their final capacity.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "src/core/system.h"
#include "tests/testutil.h"

namespace {
uint64_t g_allocs = 0;
}  // namespace

// Out of line: inlined, GCC pairs the malloc/free inside these with the
// operator new/delete calls around them and warns (-Wmismatched-new-delete).
// The library's nothrow and array forms forward to these.
[[gnu::noinline]] void* operator new(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) {
    return p;
  }
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace tlbsim {
namespace {

constexpr int kWarmup = 5000;  // > Histogram::kMaxSamples records per histogram
constexpr int kMeasured = 500;

struct Params {
  FlushBackendKind backend;
  bool all_opts;
};

class AllocTest : public ::testing::TestWithParam<Params> {};

// Initiator on cpu0 flushing one page of an mm shared with three idle
// responders (two APIC clusters) and one busy responder whose Execute()
// chunks the IRQs preempt (it spins until the initiator is done). Returns
// the allocations made by the measured shootdowns.
uint64_t MeasuredAllocs(Params p, uint64_t* shootdowns) {
  SystemConfig cfg = TestConfig(p.all_opts ? OptimizationSet::AllGeneral()
                                           : OptimizationSet::None());
  cfg.backend = p.backend;
  System sys(cfg);
  Process* proc = sys.kernel().CreateProcess();
  Thread* initiator = sys.kernel().CreateThread(proc, 0);
  for (int cpu : {1, 2, 17, 30}) {
    sys.kernel().CreateThread(proc, cpu);
  }
  uint64_t allocs = 0;
  bool done = false;
  sys.machine().engine().Spawn(0, Go([&]() -> Co<void> {
    while (!done) {
      co_await sys.machine().cpu(30).Execute(1000);
    }
  }));
  sys.machine().engine().Spawn(0, Go([&]() -> Co<void> {
    Kernel& k = sys.kernel();
    SimCpu& cpu = sys.machine().cpu(0);
    uint64_t addr = co_await k.SysMmap(*initiator, kPageSize4K, true, false);
    co_await k.UserAccess(*initiator, addr, true);
    uint64_t before = 0;
    for (int i = 0; i < kWarmup + kMeasured; ++i) {
      if (i == kWarmup) {
        before = g_allocs;
      }
      co_await k.backend().FlushRange(cpu, *proc->mm, addr, addr + kPageSize4K,
                                      static_cast<int>(kPageShift), /*freed_tables=*/false);
    }
    allocs = g_allocs - before;
    done = true;
  }));
  sys.machine().engine().Run();
  EXPECT_TRUE(done);
  *shootdowns = sys.machine().apic().stats().ipis_sent;
  return allocs;
}

TEST_P(AllocTest, SteadyStateShootdownsDoNotAllocate) {
  uint64_t ipis = 0;
  uint64_t allocs = MeasuredAllocs(GetParam(), &ipis);
  EXPECT_GE(ipis, static_cast<uint64_t>(kWarmup + kMeasured));  // IPIs really went out
  EXPECT_EQ(allocs, 0u) << "over " << kMeasured << " shootdowns";
}

INSTANTIATE_TEST_SUITE_P(
    Backends, AllocTest,
    ::testing::Values(Params{FlushBackendKind::kIpi, false}, Params{FlushBackendKind::kIpi, true},
                      Params{FlushBackendKind::kQueue, false},
                      Params{FlushBackendKind::kQueue, true}),
    [](const ::testing::TestParamInfo<Params>& info) {
      return std::string(FlushBackendName(info.param.backend)) +
             (info.param.all_opts ? "_AllGeneral" : "_None");
    });

}  // namespace
}  // namespace tlbsim
