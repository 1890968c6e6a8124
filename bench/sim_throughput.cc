// Simulator self-benchmark: how fast does tlbsim itself run?
//
// The paper's evaluation sweeps dozens of configurations across 1-56 cores,
// so wall-clock simulator throughput bounds how much of it we can reproduce.
// This bench measures the engine hot path directly:
//
//   1. plain_events    — a storm of self-rescheduling engine events
//                        (events/sec, allocations per event);
//   2. coro_storm      — awaited Co<> chains under a root SimTask
//                        (coroutine frames/sec, allocations per frame);
//   3. shootdown_storm — the Fig.5 madvise microbenchmark (wall-clock ns per
//                        simulated shootdown);
//   4. protocol_sweep  — the REAL shootdown protocol (kernel + IPI backend)
//                        as a socket-confined storm on the 8-socket preset,
//                        serial vs protocol shards at 1/2/4/8 host threads
//                        (MachineConfig::shard_protocol): events/s per
//                        point, in-binary equality of every sharded point
//                        against the serial replay AND against true serial
//                        (the ipi protocol replays bit-exactly), the same
//                        phase count at every host-thread count, and the
//                        >=2x-at-8-threads speedup gate on hosts with enough
//                        cores to express it (>= 4; CI runs it on a
//                        multi-core runner).
//
// Allocations are counted by a replacement global operator new in this TU.
// Each phase runs a warmup pass first so pools, free lists and vectors reach
// steady state; the reported allocations-per-event is the *steady-state*
// figure, which CI gates at exactly zero for the plain-event path.
//
// Every timed measurement is repeated (3x; once under --quick) and reports
// its fastest repetition; the protocol sweep interleaves its repetitions
// across points so host drift hits every point alike. On a shared host the
// fastest run is the least-interfered one, which keeps the >10% tripwire in
// scripts/perf_compare.py about the simulator rather than the neighbours.
//
// Report layout: everything under "virtual" and "config" is seeded virtual-
// simulation data and must be byte-identical across runs (CI strips "wall"
// and cmps the rest); "wall" holds host-dependent wall-clock results.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <coroutine>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <new>
#include <thread>
#include <utility>
#include <vector>

#include "bench/report.h"
#include "src/sim/engine.h"
#include "src/sim/task.h"
#include "src/workloads/microbench.h"
#include "src/workloads/protocol_storm.h"

// ----- counting allocator hook ---------------------------------------------
// Relaxed atomics: the protocol sweep allocates from pool worker threads, and
// the hook must stay cheap on the single-threaded phases.
namespace {
std::atomic<uint64_t> g_allocs{0};
std::atomic<uint64_t> g_alloc_bytes{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t n) { return ::operator new(n); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tlbsim {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Phase 1: K independent chains of self-rescheduling events. Each firing
// re-schedules itself until the shared budget runs out — the pure
// Schedule/Step/reschedule loop with a tiny capture, i.e. the path every
// Execute/IPI/flag wakeup in the simulator boils down to.
struct PlainEventResult {
  uint64_t events = 0;
  double seconds = 0;
  double allocs_per_event = 0;
};

PlainEventResult RunPlainEvents(uint64_t budget) {
  Engine e;
  uint64_t remaining = budget;
  constexpr int kChains = 64;
  auto arm = [&](auto&& self, int lane) -> void {
    if (remaining == 0) {
      return;
    }
    --remaining;
    e.ScheduleAfter(static_cast<Cycles>(1 + lane % 7), [&, lane] { self(self, lane); });
  };
  for (int i = 0; i < kChains; ++i) {
    arm(arm, i);
  }
  // Warm this engine instance before snapshotting counters: the first few
  // thousand events grow the slot pool, free list and heap to their
  // steady-state footprint, and those one-time allocations must not pollute
  // the steady-state allocs-per-event figure (CI gates it at exactly zero).
  e.RunUntil(2048);
  uint64_t before_events = e.events_processed();
  uint64_t before_allocs = g_allocs.load(std::memory_order_relaxed);
  auto t0 = Clock::now();
  e.Run();
  auto t1 = Clock::now();
  PlainEventResult r;
  r.events = e.events_processed() - before_events;
  r.seconds = Seconds(t0, t1);
  r.allocs_per_event =
      r.events == 0 ? 0.0
                    : static_cast<double>(g_allocs.load(std::memory_order_relaxed) - before_allocs) /
                          static_cast<double>(r.events);
  return r;
}

// Phase 2: root tasks awaiting chains of child coroutines — the "kernel code
// calling kernel code" shape. Each leaf consumes no virtual time, so this
// isolates frame allocation + symmetric transfer cost.
struct CoroResult {
  uint64_t frames = 0;
  double seconds = 0;
  double allocs_per_frame = 0;
};

Co<uint64_t> Leaf(uint64_t x) { co_return x * 2654435761u; }

Co<uint64_t> Branch(uint64_t x) {
  uint64_t a = co_await Leaf(x);
  uint64_t b = co_await Leaf(x + 1);
  co_return a ^ b;
}

// Suspends and resumes via a zero-delay engine event. Needed because a chain
// of coroutines that never suspends completes entirely within one resume()
// call: at -O0 the symmetric transfers are not tail calls, so hundreds of
// thousands of back-to-back frames would overflow the native stack. Bouncing
// through the engine every few hundred iterations unwinds it.
struct EngineYield {
  Engine* e;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    e->ScheduleAfter(0, [h] { h.resume(); });
  }
  void await_resume() const noexcept {}
};

CoroResult RunCoroStorm(uint64_t rounds) {
  Engine e;
  uint64_t sink = 0;
  uint64_t frames = 0;
  auto storm = [&](uint64_t n) -> SimTask {
    for (uint64_t i = 0; i < n; ++i) {
      sink ^= co_await Branch(i);
      frames += 3;  // one Branch + two Leaf frames per iteration
      if ((i & 255) == 255) {
        co_await EngineYield{&e};
      }
    }
  };
  e.Spawn(0, storm(rounds / 8));  // warmup: size-bucketed pools fill here
  e.Run();
  frames = 0;
  uint64_t before_allocs = g_allocs.load(std::memory_order_relaxed);
  auto t0 = Clock::now();
  e.Spawn(e.now(), storm(rounds));
  e.Run();
  auto t1 = Clock::now();
  CoroResult r;
  r.frames = frames;
  r.seconds = Seconds(t0, t1);
  r.allocs_per_frame =
      r.frames == 0 ? 0.0
                    : static_cast<double>(g_allocs.load(std::memory_order_relaxed) - before_allocs) /
                          static_cast<double>(r.frames);
  if (sink == 0xdeadbeef) {  // defeat dead-code elimination
    std::printf("impossible\n");
  }
  return r;
}

// Phase 4: the protocol sweep. The real shootdown protocol (kernel, IPI
// backend, coherence, TLBs) as a socket-confined storm on the 8-socket
// preset. One true-serial baseline plus sharded points at 1/2/4/8 host
// threads; the sharded points must all replay the serial timeline bit-
// exactly (the ipi-backend equality contract), so wall-clock deltas are the
// engine's doing alone.
struct ProtoPoint {
  bool sharded = false;
  int threads = 0;  // host threads (0: true serial engine)
  ProtocolStormResult storm;
  double seconds = 0;
};

ProtoPoint RunProtoPoint(bool sharded, int threads, int iterations) {
  ProtocolStormConfig cfg;
  cfg.topo = Topology::EightSocket();
  cfg.backend = FlushBackendKind::kIpi;
  cfg.shard_protocol = sharded;
  cfg.sim_threads = threads;
  cfg.iterations = iterations;
  cfg.pages_per_cpu = 2;
  cfg.seed = 42;

  // Warmup at 1/4 length: thread-pool spin-up plus allocator steady state.
  ProtocolStormConfig warm = cfg;
  warm.iterations = iterations / 4 + 1;
  RunProtocolStorm(warm);

  ProtoPoint p;
  p.sharded = sharded;
  p.threads = threads;
  auto t0 = Clock::now();
  p.storm = RunProtocolStorm(cfg);
  auto t1 = Clock::now();
  p.seconds = Seconds(t0, t1);
  return p;
}

// Keeps the faster of `best` (if already set) and `next`.
template <typename T>
void KeepFastest(T* best, T next, bool first) {
  if (first || next.seconds < best->seconds) {
    *best = std::move(next);
  }
}

}  // namespace

int Main(int argc, char** argv) {
  BenchReport report("sim_throughput", argc, argv);

  // Warmup pass: touch every phase once so global/static pools, the engine's
  // node pool and the microbench's system allocation all reach steady state
  // before anything is measured.
  RunPlainEvents(200000);

  const int repeats = report.quick() ? 1 : 3;
  PlainEventResult plain;
  CoroResult coro;
  for (int r = 0; r < repeats; ++r) {
    KeepFastest(&plain, RunPlainEvents(2000000), r == 0);
    KeepFastest(&coro, RunCoroStorm(300000), r == 0);
  }

  MicroConfig mc;
  mc.pti = true;
  mc.pages = 1;
  mc.placement = Placement::kOtherSocket;
  mc.iterations = 1500;
  mc.seed = 42;
  RunMadviseMicrobench(mc);  // shootdown-phase warmup
  MicroResult micro;
  double storm_seconds = 0;
  for (int r = 0; r < repeats; ++r) {
    auto t0 = Clock::now();
    micro = RunMadviseMicrobench(mc);
    double s = Seconds(t0, Clock::now());
    storm_seconds = r == 0 ? s : std::min(storm_seconds, s);
  }

  double events_per_sec =
      plain.seconds > 0 ? static_cast<double>(plain.events) / plain.seconds : 0;
  double frames_per_sec = coro.seconds > 0 ? static_cast<double>(coro.frames) / coro.seconds : 0;
  double ns_per_shootdown =
      micro.shootdowns > 0 ? storm_seconds * 1e9 / static_cast<double>(micro.shootdowns) : 0;

  std::printf("sim_throughput self-benchmark\n");
  std::printf("  plain events   : %.2fM events/s, %.4f allocs/event (steady state)\n",
              events_per_sec / 1e6, plain.allocs_per_event);
  std::printf("  coroutine storm: %.2fM frames/s, %.4f allocs/frame (steady state)\n",
              frames_per_sec / 1e6, coro.allocs_per_frame);
  std::printf("  shootdown storm: %lu shootdowns, %.0f ns/shootdown\n",
              static_cast<unsigned long>(micro.shootdowns), ns_per_shootdown);

  int rc = 0;

  // Phase 4: protocol scaling — the real shootdown path on protocol shards.
  const int proto_iterations = report.quick() ? 4 : 16;
  constexpr int kProtoThreads[] = {1, 2, 4, 8};
  ProtoPoint proto_serial;
  std::vector<ProtoPoint> proto(std::size(kProtoThreads));
  for (int r = 0; r < repeats; ++r) {
    KeepFastest(&proto_serial, RunProtoPoint(/*sharded=*/false, /*threads=*/1, proto_iterations),
                r == 0);
    for (size_t k = 0; k < proto.size(); ++k) {
      KeepFastest(&proto[k], RunProtoPoint(/*sharded=*/true, kProtoThreads[k], proto_iterations),
                  r == 0);
    }
  }
  unsigned host_cores = std::thread::hardware_concurrency();
  std::printf("  protocol sweep : 8-socket/224-cpu confined shootdown storm, "
              "%d iters/cpu (ipi backend)\n",
              proto_iterations);
  {
    double eps = proto_serial.seconds > 0
                     ? static_cast<double>(proto_serial.storm.events_processed) /
                           proto_serial.seconds
                     : 0;
    std::printf("    serial  : %6.2fM events/s, %lu shootdowns\n", eps / 1e6,
                static_cast<unsigned long>(proto_serial.storm.shootdowns));
  }
  // Phase granularity of the sharded points: parallel phases, and events
  // each shard fires per phase it runs in. Host threads only change who runs
  // a shard, never where a phase starts or ends, so every point must agree.
  const Engine::ParallelStats& proto_par = proto.front().storm.par;
  const double proto_events_per_window =
      proto_par.shard_windows == 0
          ? 0.0
          : static_cast<double>(proto_par.parallel_events) /
                static_cast<double>(proto_par.shard_windows);
  std::printf("    windows : %lu, %.1f events per shard per window\n",
              static_cast<unsigned long>(proto_par.windows), proto_events_per_window);
  for (const ProtoPoint& p : proto) {
    double eps = p.seconds > 0
                     ? static_cast<double>(p.storm.events_processed) / p.seconds
                     : 0;
    double speedup = proto_serial.seconds > 0 && p.seconds > 0
                         ? proto_serial.seconds / p.seconds
                         : 0.0;
    double ns_per_sd =
        p.storm.shootdowns > 0
            ? p.seconds * 1e9 / static_cast<double>(p.storm.shootdowns)
            : 0;
    std::printf("    shards=8 threads=%d: %6.2fM events/s, %.0f ns/shootdown, "
                "speedup %.2fx vs serial\n",
                p.threads, eps / 1e6, ns_per_sd, speedup);
    // The ipi-backend equality contract: every sharded point replays TRUE
    // serial bit-exactly (per-socket coherence banks inherit line contents at
    // the split, and the confined storm never leaves its shard).
    if (p.storm.checksum != proto_serial.storm.checksum ||
        p.storm.end_time != proto_serial.storm.end_time ||
        p.storm.events_processed != proto_serial.storm.events_processed ||
        p.storm.shootdowns != proto_serial.storm.shootdowns ||
        p.storm.flush_requests != proto_serial.storm.flush_requests) {
      std::fprintf(stderr,
                   "sim_throughput: protocol shards (threads=%d) diverged from "
                   "the serial replay\n",
                   p.threads);
      rc = 1;
    }
    if (p.storm.par.windows != proto_par.windows ||
        p.storm.par.shard_windows != proto_par.shard_windows ||
        p.storm.par.parallel_events != proto_par.parallel_events) {
      std::fprintf(stderr,
                   "sim_throughput: protocol shards (threads=%d) ran %lu windows, "
                   "%lu at threads=%d\n",
                   p.threads, static_cast<unsigned long>(p.storm.par.windows),
                   static_cast<unsigned long>(proto_par.windows), proto.front().threads);
      rc = 1;
    }
    // The headline scaling gate: >= 2x events/s at 8 shards vs serial. Only
    // enforceable where the host can actually run 8 shard threads in
    // parallel — CI's required multi-core job owns this gate; small local
    // hosts report the number without failing.
    if (p.threads == 8 && host_cores >= 4 && speedup < 2.0) {
      std::fprintf(stderr,
                   "sim_throughput: protocol shards at 8 threads reached only "
                   "%.2fx vs serial (host_cores=%u, gate 2.0x)\n",
                   speedup, host_cores);
      rc = 1;
    }
  }

  Json config = Json::Object();
  config["plain_event_budget"] = static_cast<uint64_t>(2000000);
  config["coro_rounds"] = static_cast<uint64_t>(300000);
  config["storm_iterations"] = mc.iterations;
  config["storm_seed"] = mc.seed;
  config["protocol_storm_iterations"] = proto_iterations;
  report.Set("config", std::move(config));

  // Seeded, wall-clock-free quantities: must replay byte-identically.
  Json virt = Json::Object();
  virt["plain_events_processed"] = plain.events;
  virt["coro_frames"] = coro.frames;
  virt["storm_shootdowns"] = micro.shootdowns;
  virt["storm_early_acks"] = micro.early_acks;
  virt["protocol_storm_checksum"] = proto_serial.storm.checksum;
  virt["protocol_storm_end_time"] = static_cast<uint64_t>(proto_serial.storm.end_time);
  virt["protocol_storm_events"] = proto_serial.storm.events_processed;
  virt["protocol_storm_shootdowns"] = proto_serial.storm.shootdowns;
  virt["protocol_storm_flush_requests"] = proto_serial.storm.flush_requests;
  virt["protocol_storm_windows"] = proto_par.windows;
  virt["protocol_storm_events_per_window"] = proto_events_per_window;
  report.Set("virtual", std::move(virt));

  // Host-dependent wall-clock results; CI strips this key before the
  // determinism cmp but gates on the values via check_bench_json.py.
  Json wall = Json::Object();
  wall["events_per_sec"] = events_per_sec;
  wall["coro_frames_per_sec"] = frames_per_sec;
  wall["ns_per_shootdown"] = ns_per_shootdown;
  wall["allocs_per_event_steady"] = plain.allocs_per_event;
  wall["allocs_per_coro_frame_steady"] = coro.allocs_per_frame;
  wall["host_cores"] = static_cast<uint64_t>(std::thread::hardware_concurrency());
  Json proto_wall = Json::Array();
  {
    Json w = Json::Object();
    w["threads"] = 0;
    w["sharded"] = false;
    w["seconds"] = proto_serial.seconds;
    w["events_per_sec"] = proto_serial.seconds > 0
                              ? static_cast<double>(proto_serial.storm.events_processed) /
                                    proto_serial.seconds
                              : 0.0;
    w["ns_per_shootdown"] =
        proto_serial.storm.shootdowns > 0
            ? proto_serial.seconds * 1e9 / static_cast<double>(proto_serial.storm.shootdowns)
            : 0.0;
    w["speedup_vs_serial"] = 1.0;
    proto_wall.Append(std::move(w));
  }
  for (const ProtoPoint& p : proto) {
    Json w = Json::Object();
    w["threads"] = p.threads;
    w["sharded"] = true;
    w["seconds"] = p.seconds;
    w["events_per_sec"] =
        p.seconds > 0 ? static_cast<double>(p.storm.events_processed) / p.seconds : 0.0;
    w["ns_per_shootdown"] =
        p.storm.shootdowns > 0
            ? p.seconds * 1e9 / static_cast<double>(p.storm.shootdowns)
            : 0.0;
    w["speedup_vs_serial"] =
        proto_serial.seconds > 0 && p.seconds > 0 ? proto_serial.seconds / p.seconds : 0.0;
    proto_wall.Append(std::move(w));
  }
  wall["protocol_sweep"] = std::move(proto_wall);
  report.Set("wall", std::move(wall));

  if (plain.events == 0 || micro.shootdowns == 0) {
    std::fprintf(stderr, "sim_throughput: empty run (events=%lu shootdowns=%lu)\n",
                 static_cast<unsigned long>(plain.events),
                 static_cast<unsigned long>(micro.shootdowns));
    rc = 1;
  }
  return report.Finish(rc);
}

}  // namespace tlbsim

int main(int argc, char** argv) { return tlbsim::Main(argc, argv); }
