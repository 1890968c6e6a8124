#include "src/workloads/microbench.h"

#include "src/core/snapshot.h"

namespace tlbsim {

const char* PlacementName(Placement p) {
  switch (p) {
    case Placement::kSameCore:
      return "same-core";
    case Placement::kSameSocket:
      return "same-socket";
    case Placement::kOtherSocket:
      return "other-socket";
  }
  return "?";
}

namespace {

int ResponderCpu(Placement p) {
  switch (p) {
    case Placement::kSameCore:
      return 1;  // SMT sibling of cpu 0
    case Placement::kSameSocket:
      return 4;
    case Placement::kOtherSocket:
      return 30;
  }
  return 30;
}

SimTask ResponderLoop(SimCpu& cpu, const bool* stop) {
  while (!*stop) {
    co_await cpu.Execute(500);
  }
}

SimTask InitiatorProgram(System& sys, Thread& t, const MicroConfig& cfg, MicroResult* out,
                         bool* stop) {
  Kernel& k = sys.kernel();
  SimCpu& cpu = sys.machine().cpu(t.cpu);
  uint64_t bytes = static_cast<uint64_t>(cfg.pages) * kPageSize4K;
  uint64_t addr = co_await k.SysMmap(t, bytes, true, false);
  for (int it = 0; it < cfg.iterations; ++it) {
    // Touch to allocate (not measured).
    for (int i = 0; i < cfg.pages; ++i) {
      co_await k.UserAccess(t, addr + static_cast<uint64_t>(i) * kPageSize4K, true);
    }
    Cycles t0 = cpu.now();
    co_await k.SysMadviseDontneed(t, addr, bytes);
    out->initiator.Add(static_cast<double>(cpu.now() - t0));
  }
  *stop = true;
}

}  // namespace

MicroResult RunMadviseMicrobench(const MicroConfig& cfg) {
  SystemConfig sys_cfg;
  sys_cfg.kernel.pti = cfg.pti;
  sys_cfg.kernel.opts = cfg.opts;
  sys_cfg.machine.seed = cfg.seed;
  sys_cfg.backend = cfg.backend;
  System sys(sys_cfg);

  Process* p = sys.kernel().CreateProcess();
  Thread* initiator = sys.kernel().CreateThread(p, 0);
  int rcpu = ResponderCpu(cfg.placement);
  sys.kernel().CreateThread(p, rcpu);

  MicroResult out;
  bool stop = false;
  SimCpu& responder = sys.machine().cpu(rcpu);
  responder.Spawn(ResponderLoop(responder, &stop));
  sys.machine().cpu(0).Spawn(InitiatorProgram(sys, *initiator, cfg, &out, &stop));
  sys.machine().engine().Run();

  out.responder_cycles_per_op =
      static_cast<double>(responder.stats().cycles_in_irq) / cfg.iterations;
  if (sys.queue() != nullptr) {
    // Queue protocol has no early acks; the resend count is the analogous
    // "protocol pressure" signal figures report alongside shootdowns.
    out.shootdowns = sys.queue()->stats().shootdowns;
    out.early_acks = 0;
  } else {
    out.shootdowns = sys.shootdown().stats().shootdowns;
    out.early_acks = sys.shootdown().stats().early_acks;
  }
  out.metrics = SystemMetricsJson(sys);
  return out;
}

namespace {

SimTask CowProgram(System& sys, Thread& t, const CowConfig& cfg, CowResult* out) {
  Kernel& k = sys.kernel();
  SimCpu& cpu = sys.machine().cpu(t.cpu);
  File* f = k.CreateFile(static_cast<uint64_t>(cfg.pages) * kPageSize4K);
  uint64_t bytes = static_cast<uint64_t>(cfg.pages) * kPageSize4K;
  for (int r = 0; r < cfg.rounds; ++r) {
    uint64_t addr = co_await k.SysMmap(t, bytes, true, /*shared=*/false, f);
    // Read-touch everything: maps the file pages read-only with the CoW bit.
    for (int i = 0; i < cfg.pages; ++i) {
      co_await k.UserAccess(t, addr + static_cast<uint64_t>(i) * kPageSize4K, false);
    }
    // Measured: the first write to each page breaks CoW.
    for (int i = 0; i < cfg.pages; ++i) {
      Cycles t0 = cpu.now();
      co_await k.UserAccess(t, addr + static_cast<uint64_t>(i) * kPageSize4K, true);
      out->write_cycles.Add(static_cast<double>(cpu.now() - t0));
    }
    co_await k.SysMunmap(t, addr, bytes);
  }
}

}  // namespace

CowResult RunCowMicrobench(const CowConfig& cfg) {
  SystemConfig sys_cfg;
  sys_cfg.kernel.pti = cfg.pti;
  sys_cfg.kernel.opts = cfg.opts;
  sys_cfg.machine.seed = cfg.seed;
  sys_cfg.backend = cfg.backend;
  System sys(sys_cfg);

  Process* p = sys.kernel().CreateProcess();
  Thread* t = sys.kernel().CreateThread(p, 0);
  CowResult out;
  sys.machine().cpu(0).Spawn(CowProgram(sys, *t, cfg, &out));
  sys.machine().engine().Run();
  out.cow_faults = sys.kernel().stats().cow_faults;
  out.flushes_avoided = sys.queue() != nullptr ? sys.queue()->stats().cow_flush_avoided
                                               : sys.shootdown().stats().cow_flush_avoided;
  out.metrics = SystemMetricsJson(sys);
  return out;
}

}  // namespace tlbsim
