#include "src/workloads/apache.h"

#include <algorithm>

#include "src/core/snapshot.h"

namespace tlbsim {

namespace {

SimTask ServerWorker(System& sys, Thread& t, const ApacheConfig& cfg, File* file,
                     uint64_t seed) {
  Kernel& k = sys.kernel();
  SimCpu& cpu = sys.machine().cpu(t.cpu);
  Rng rng(seed);
  uint64_t file_bytes = static_cast<uint64_t>(cfg.file_pages) * kPageSize4K;
  for (int req = 0; req < cfg.requests_per_core; ++req) {
    // accept + parse (application work, jittered).
    co_await cpu.Execute(rng.Jitter(cfg.app_cycles / 2, 0.05));
    // Map the served file and read it.
    uint64_t addr = co_await k.SysMmap(t, file_bytes, /*writable=*/false, /*shared=*/true, file);
    for (int i = 0; i < cfg.file_pages; ++i) {
      co_await k.UserAccess(t, addr + static_cast<uint64_t>(i) * kPageSize4K, false);
    }
    // send()
    co_await cpu.Execute(rng.Jitter(cfg.app_cycles / 2, 0.05));
    // Tear the mapping down: the shootdown source.
    co_await k.SysMunmap(t, addr, file_bytes);
  }
}

}  // namespace

ApacheResult RunApache(const ApacheConfig& cfg) {
  SystemConfig sys_cfg;
  sys_cfg.kernel.pti = cfg.pti;
  sys_cfg.kernel.opts = cfg.opts;
  sys_cfg.machine.seed = cfg.seed;
  sys_cfg.backend = cfg.backend;
  System sys(sys_cfg);

  Process* p = sys.kernel().CreateProcess();
  File* f = sys.kernel().CreateFile(static_cast<uint64_t>(cfg.file_pages) * kPageSize4K);
  Rng seeder(cfg.seed ^ 0xA9A9);
  for (int i = 0; i < cfg.server_cores; ++i) {
    Thread* t = sys.kernel().CreateThread(p, i);
    sys.machine().cpu(i).Spawn(ServerWorker(sys, *t, cfg, f, seeder.UniformU64()));
  }
  sys.machine().engine().Run();

  ApacheResult out;
  Cycles end = 0;
  for (int i = 0; i < cfg.server_cores; ++i) {
    end = std::max(end, sys.machine().cpu(i).now());
  }
  double total = static_cast<double>(cfg.server_cores) * cfg.requests_per_core;
  out.raw_requests_per_mcycle = total / (static_cast<double>(end) / 1e6);
  out.requests_per_mcycle = std::min(out.raw_requests_per_mcycle, cfg.generator_cap_per_mcycle);
  out.shootdowns =
      sys.queue() != nullptr
          ? sys.queue()->stats().shootdowns
          : sys.shootdown().stats().shootdowns + sys.shootdown().stats().batch_shootdowns;
  out.metrics = SystemMetricsJson(sys);
  return out;
}

}  // namespace tlbsim
