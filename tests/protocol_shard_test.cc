// Protocol sharding (MachineConfig::shard_protocol): the shootdown protocol
// executing on per-socket event shards with banked protocol state.
//
// Determinism properties under test:
//   - sharded at host_threads 1 vs N: bit-identical metrics snapshots
//     (closed shards see only their own events, whichever thread runs them);
//   - sharded vs true serial (ipi backend): identical checksum / end_time /
//     events_processed / backend counters — the per-socket coherence banks
//     inherit each line's MESI contents at the split, so a socket-confined
//     storm replays the serial cost sequence exactly. The queue backend
//     keeps count equality but runs FASTER in virtual time: its global
//     next_tlb_gen ticket line is the one genuinely cross-socket protocol
//     line, and partitioning it is the tentpole's whole point;
//   - a confined storm is one parallel phase: exactly 1 window, with one
//     shard window per active socket (any cross-shard schedule would abort);
//   - random shootdown masks x sim-threads {1,2,8} x backend {ipi,queue}
//     keep all of the above (the property sweep).
#include <gtest/gtest.h>

#include <vector>

#include "src/sim/rng.h"
#include "src/workloads/protocol_storm.h"

namespace tlbsim {
namespace {

ProtocolStormConfig SmallConfig(FlushBackendKind backend) {
  ProtocolStormConfig cfg;
  cfg.topo = Topology{2, 2, 2};  // 2 sockets x 4 cpus
  cfg.backend = backend;
  cfg.pages_per_cpu = 3;
  cfg.iterations = 8;
  return cfg;
}

void ExpectAggregatesEqual(const ProtocolStormResult& a, const ProtocolStormResult& b) {
  EXPECT_EQ(a.iterations_done, b.iterations_done);
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.shootdowns, b.shootdowns);
  EXPECT_EQ(a.flush_requests, b.flush_requests);
}

// Protocol-count equality — holds vs true serial on BOTH backends. (The
// queue backend's virtual TIME legitimately drops under sharding: serial
// mode ping-pongs the single next_tlb_gen ticket cacheline across sockets,
// and partitioning it per socket is precisely the serialization the
// tentpole removes. The IPI backend has no cross-socket protocol line, so
// it replays serial bit-exactly — asserted separately.)
void ExpectCountsEqual(const ProtocolStormResult& a, const ProtocolStormResult& b) {
  EXPECT_EQ(a.iterations_done, b.iterations_done);
  EXPECT_EQ(a.shootdowns, b.shootdowns);
  EXPECT_EQ(a.flush_requests, b.flush_requests);
}

TEST(ProtocolShardTest, ShardedMatchesSerialAggregates) {
  for (FlushBackendKind backend : {FlushBackendKind::kIpi, FlushBackendKind::kQueue}) {
    ProtocolStormConfig serial = SmallConfig(backend);
    serial.shard_protocol = false;
    ProtocolStormConfig sharded = SmallConfig(backend);
    ProtocolStormResult rs = RunProtocolStorm(serial);
    ProtocolStormResult rp = RunProtocolStorm(sharded);
    ASSERT_GT(rs.shootdowns, 0u);
    if (backend == FlushBackendKind::kIpi) {
      // Confined IPI storms replay true serial bit-exactly: the per-socket
      // coherence banks inherit each line's MESI contents at the split.
      ExpectAggregatesEqual(rs, rp);
    } else {
      ExpectCountsEqual(rs, rp);
      // The partitioned ticket counter removes the cross-socket ticket-line
      // ping-pong serial mode pays, so sharded time can only improve.
      EXPECT_LE(rp.end_time, rs.end_time);
    }
    // The storm is confined, so every shard runs to completion in one phase.
    EXPECT_EQ(rp.par.windows, 1u);
    EXPECT_EQ(rp.par.shard_windows, static_cast<uint64_t>(sharded.topo.sockets));
    EXPECT_GT(rp.par.parallel_events, 0u);
  }
}

TEST(ProtocolShardTest, SimThreadsShardOnlyTheProtocol) {
  // sim_threads sizes the protocol shards' thread pool and nothing else:
  // without shard_protocol the engine keeps its single heap.
  SystemConfig cfg;
  cfg.machine.topo = Topology::FourSocket();
  cfg.machine.sim_threads = 4;
  System plain(cfg);
  plain.ActivateProtocolShards();
  EXPECT_FALSE(plain.machine().engine().sharded());

  cfg.machine.shard_protocol = true;
  System sharded(cfg);
  EXPECT_FALSE(sharded.machine().engine().sharded());  // split is deferred
  sharded.ActivateProtocolShards();
  EXPECT_TRUE(sharded.machine().engine().sharded());
}

TEST(ProtocolShardTest, HostThreadCountIsInvisible) {
  for (FlushBackendKind backend : {FlushBackendKind::kIpi, FlushBackendKind::kQueue}) {
    ProtocolStormConfig one = SmallConfig(backend);
    ProtocolStormConfig two = SmallConfig(backend);
    two.sim_threads = 2;
    ProtocolStormResult r1 = RunProtocolStorm(one);
    ProtocolStormResult r2 = RunProtocolStorm(two);
    ExpectAggregatesEqual(r1, r2);
    // Full snapshot equality, every counter and histogram: host threads must
    // be invisible to the simulation.
    EXPECT_EQ(r1.metrics, r2.metrics) << "metrics diverged on " << FlushBackendName(backend);
  }
}

TEST(ProtocolShardTest, BackToBackStormsReuseShardThreads) {
  // A released shard pool is parked for the next sharded Machine built on
  // this thread: storms of mixed widths in a row, and two Systems alive at
  // once (the second cannot take the first's pool), all replay the inline
  // reference.
  ProtocolStormConfig inline_cfg = SmallConfig(FlushBackendKind::kIpi);
  inline_cfg.topo = Topology{4, 2, 2};  // 4 sockets: pool widths 1 and 3
  ProtocolStormResult ref = RunProtocolStorm(inline_cfg);
  for (int threads : {2, 2, 4, 2}) {
    ProtocolStormConfig cfg = inline_cfg;
    cfg.sim_threads = threads;
    ProtocolStormResult r = RunProtocolStorm(cfg);
    ExpectAggregatesEqual(ref, r);
    EXPECT_EQ(ref.metrics, r.metrics) << "sim_threads " << threads;
  }
  SystemConfig cfg;
  cfg.machine.topo = inline_cfg.topo;
  cfg.machine.shard_protocol = true;
  cfg.machine.sim_threads = 2;
  {
    System a(cfg);
    System b(cfg);
    a.ActivateProtocolShards();
    b.ActivateProtocolShards();
  }
  ProtocolStormConfig two = inline_cfg;
  two.sim_threads = 2;
  ExpectAggregatesEqual(ref, RunProtocolStorm(two));
}

TEST(ProtocolShardTest, ConfinedStormBuildsOnlySocketLocalCfds) {
  // CFDs are built on first use, so an initiator whose shootdowns never
  // leave its socket holds at most cpus_per_socket of them, not num_cpus.
  ProtocolStormConfig cfg;
  cfg.pages_per_cpu = 1;
  cfg.iterations = 2;
  cfg.sim_threads = 2;
  ProtocolStormResult r = RunProtocolStorm(cfg);
  EXPECT_GT(r.max_cfds_per_cpu, 0u);
  EXPECT_LE(r.max_cfds_per_cpu, static_cast<size_t>(cfg.topo.cpus_per_socket()));
}

TEST(ProtocolShardTest, FastpathCountersSurviveSharding) {
  // The TLB fast path is per-CPU state driven purely by that CPU's access
  // stream, so its hit count must not depend on sharding or host threads.
  ProtocolStormConfig serial = SmallConfig(FlushBackendKind::kIpi);
  serial.shard_protocol = false;
  ProtocolStormConfig sharded = SmallConfig(FlushBackendKind::kIpi);
  sharded.sim_threads = 2;
  Json a = RunProtocolStorm(serial).metrics;
  Json b = RunProtocolStorm(sharded).metrics;
  EXPECT_EQ(a["per_cpu"]["tlb.fastpath_hits"], b["per_cpu"]["tlb.fastpath_hits"]);
}

// The property sweep: random shootdown masks (random participating-cpu
// subsets per socket) x sim-threads {1,2,8} x backend {ipi,queue}. Every
// sharded variant must match the serial reference's aggregates, and the
// sharded variants must match each other snapshot-for-snapshot.
TEST(ProtocolShardTest, RandomMaskPropertySweep) {
  Rng rng(2024);
  for (int trial = 0; trial < 4; ++trial) {
    ProtocolStormConfig base;
    base.topo = Topology{4, 2, 2};  // 4 sockets x 4 cpus
    base.pages_per_cpu = 2;
    base.iterations = 5;
    // Random non-trivial subset per socket; each socket keeps >= 1 cpu so
    // every socket still storms (empty sockets are legal but less
    // interesting).
    int cps = base.topo.cpus_per_socket();
    for (int s = 0; s < base.topo.sockets; ++s) {
      int keep = 1 + static_cast<int>(rng.UniformInt(0, cps - 1));
      std::vector<int> cpus;
      for (int i = 0; i < cps; ++i) {
        cpus.push_back(s * cps + i);
      }
      for (int i = 0; i < keep; ++i) {
        size_t j = static_cast<size_t>(i) +
                   static_cast<size_t>(rng.UniformInt(0, static_cast<int>(cpus.size()) - 1 - i));
        std::swap(cpus[static_cast<size_t>(i)], cpus[j]);
        base.active_cpus.push_back(cpus[static_cast<size_t>(i)]);
      }
    }
    for (FlushBackendKind backend : {FlushBackendKind::kIpi, FlushBackendKind::kQueue}) {
      base.backend = backend;
      ProtocolStormConfig serial = base;
      serial.shard_protocol = false;
      ProtocolStormResult ref = RunProtocolStorm(serial);
      ProtocolStormResult prev;
      bool have_prev = false;
      for (int threads : {1, 2, 8}) {
        ProtocolStormConfig cfg = base;
        cfg.sim_threads = threads;
        ProtocolStormResult r = RunProtocolStorm(cfg);
        if (backend == FlushBackendKind::kIpi) {
          ExpectAggregatesEqual(ref, r);
        } else {
          ExpectCountsEqual(ref, r);
        }
        EXPECT_EQ(r.par.windows, 1u);
        EXPECT_EQ(r.par.shard_windows, static_cast<uint64_t>(base.topo.sockets));
        if (have_prev) {
          ExpectAggregatesEqual(prev, r);
          EXPECT_EQ(prev.metrics, r.metrics)
              << "trial " << trial << " backend " << FlushBackendName(backend) << " threads "
              << threads;
        }
        prev = std::move(r);
        have_prev = true;
      }
    }
    base.active_cpus.clear();
  }
}

}  // namespace
}  // namespace tlbsim
