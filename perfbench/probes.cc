#include "perfbench/probes.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>

#include "src/cache/coherence.h"
#include "src/hw/tlb.h"
#include "src/mm/page_table.h"
#include "src/mm/phys.h"
#include "src/sim/engine.h"
#include "src/sim/rng.h"

namespace perfbench {

using tlbsim::Cycles;

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kReps = 5;

double Ns(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Median over kReps of `rep()`, which returns ns per operation.
double MedianOf(const std::function<double()>& rep) {
  std::vector<double> v;
  for (int i = 0; i < kReps; ++i) {
    v.push_back(rep());
  }
  return Median(v);
}

// One self-rescheduling event chain per busy CPU keeps the heap as deep as
// the workload's: each dispatch schedules the chain's next event.
struct Chain {
  tlbsim::Engine* engine;
  uint64_t* left;
  uint64_t state;
  void Fire() {
    if (*left == 0) {
      return;
    }
    --*left;
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    engine->ScheduleAfter(static_cast<Cycles>(1 + (state >> 54)), [this] { Fire(); });
  }
};

double ProbeEngine(const ProbeShape& shape) {
  constexpr uint64_t kEvents = 200000;
  return MedianOf([&] {
    tlbsim::Engine engine;
    uint64_t left = kEvents;
    std::vector<Chain> chains(shape.cpus.size());
    for (size_t i = 0; i < chains.size(); ++i) {
      chains[i] = Chain{&engine, &left, shape.seed + i};
    }
    Clock::time_point t0 = Clock::now();
    for (Chain& c : chains) {
      c.Fire();
    }
    engine.Run();
    return Ns(t0, Clock::now()) / static_cast<double>(engine.events_processed());
  });
}

double ProbeCoherence(const ProbeShape& shape) {
  constexpr int kAccesses = 200000;
  tlbsim::Rng rng(shape.seed);
  std::vector<int> cpu(kAccesses);
  std::vector<uint64_t> line(kAccesses);
  std::vector<tlbsim::AccessType> type(kAccesses);
  for (int i = 0; i < kAccesses; ++i) {
    cpu[i] = shape.cpus[rng.UniformU64() % shape.cpus.size()];
    line[i] = tlbsim::CoherenceModel::LineOfAddress((rng.UniformU64() % shape.lines) * 64);
    type[i] = rng.UniformU64() % 4 == 0 ? tlbsim::AccessType::kWrite : tlbsim::AccessType::kRead;
  }
  return MedianOf([&] {
    tlbsim::CoherenceModel model(shape.topo, tlbsim::CacheCosts{});
    for (uint64_t l = 0; l < shape.lines; ++l) {  // directory at full size first
      model.Access(shape.cpus.front(), tlbsim::CoherenceModel::LineOfAddress(l * 64),
                   tlbsim::AccessType::kRead);
    }
    Cycles sink = 0;
    Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kAccesses; ++i) {
      sink += model.Access(cpu[i], line[i], type[i]);
    }
    double ns = Ns(t0, Clock::now());
    return sink >= 0 ? ns / kAccesses : 0.0;
  });
}

void FillTlb(tlbsim::Tlb& tlb, int entries) {
  for (int i = 0; i < entries; ++i) {
    tlbsim::TlbEntry e;
    e.vpn = static_cast<uint64_t>(i);
    e.pcid = 1;
    e.pfn = static_cast<uint64_t>(i) + 1;
    e.flags = tlbsim::PteFlags::kPresent | tlbsim::PteFlags::kUser;
    tlb.Insert(e);
  }
}

void ProbeTlb(ProbeResults* out) {
  tlbsim::TlbGeometry geo;
  const int entries = geo.sets_4k * geo.ways_4k;
  constexpr int kRounds = 64;
  out->ns_per_invlpg = MedianOf([&] {
    tlbsim::Tlb tlb(geo);
    double ns = 0;
    for (int r = 0; r < kRounds; ++r) {
      FillTlb(tlb, entries);
      Clock::time_point t0 = Clock::now();
      for (int i = 0; i < entries; ++i) {
        tlb.InvlPg(1, static_cast<uint64_t>(i) << tlbsim::kPageShift);
      }
      ns += Ns(t0, Clock::now());
    }
    return ns / (kRounds * entries);
  });
  out->ns_per_full_flush = MedianOf([&] {
    tlbsim::Tlb tlb(geo);
    double ns = 0;
    for (int r = 0; r < kRounds; ++r) {
      FillTlb(tlb, entries);
      Clock::time_point t0 = Clock::now();
      tlb.FlushPcid(1);
      ns += Ns(t0, Clock::now());
    }
    return ns / kRounds;
  });
}

void ProbePageTable(const ProbeShape& shape, ProbeResults* out) {
  constexpr uint64_t kBase = 0x7f0000000000ULL;
  constexpr uint64_t kMinVisits = 200000;
  tlbsim::PageTable pt;
  for (uint64_t i = 0; i < shape.mapped_pages; ++i) {
    pt.Map(kBase + i * tlbsim::kPageSize4K, i + 1,
           tlbsim::PteFlags::kPresent | tlbsim::PteFlags::kUser);
  }
  const uint64_t hi = kBase + shape.mapped_pages * tlbsim::kPageSize4K;
  const uint64_t passes = std::max<uint64_t>(1, kMinVisits / shape.mapped_pages);
  out->ns_per_present_page = MedianOf([&] {
    uint64_t visited = 0;
    Clock::time_point t0 = Clock::now();
    for (uint64_t p = 0; p < passes; ++p) {
      pt.ForEachPresent(kBase, hi, [&](uint64_t, tlbsim::Pte, tlbsim::PageSize) { ++visited; });
    }
    return Ns(t0, Clock::now()) / static_cast<double>(visited);
  });
  out->ns_per_walk = MedianOf([&] {
    uint64_t found = 0;
    Clock::time_point t0 = Clock::now();
    for (uint64_t p = 0; p < passes; ++p) {
      for (uint64_t i = 0; i < shape.mapped_pages; ++i) {
        found += pt.Walk(kBase + i * tlbsim::kPageSize4K).present ? 1 : 0;
      }
    }
    double ns = Ns(t0, Clock::now());
    return ns / static_cast<double>(std::max<uint64_t>(found, 1));
  });
}

double ProbeFrames(const ProbeShape& shape) {
  constexpr int kPairs = 100000;
  return MedianOf([&] {
    tlbsim::FrameAllocator frames;
    for (uint64_t i = 0; i < shape.frames; ++i) {
      frames.Alloc();
    }
    Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kPairs; ++i) {
      frames.Unref(frames.Alloc());
    }
    return Ns(t0, Clock::now()) / kPairs;
  });
}

double ProbeSystem(const ProbeShape& shape) {
  return MedianOf([&] {
    Clock::time_point t0 = Clock::now();
    auto sys = std::make_unique<tlbsim::System>(shape.system);
    double ms = Ns(t0, Clock::now()) / 1e6;
    sys.reset();  // teardown is not construction
    return ms;
  });
}

}  // namespace

ProbeResults RunProbes(const ProbeShape& shape) {
  ProbeResults r;
  r.ns_per_event = ProbeEngine(shape);
  r.ns_per_access = ProbeCoherence(shape);
  ProbeTlb(&r);
  ProbePageTable(shape, &r);
  r.ns_per_frame_alloc = ProbeFrames(shape);
  r.system_ms = ProbeSystem(shape);
  return r;
}

}  // namespace perfbench
