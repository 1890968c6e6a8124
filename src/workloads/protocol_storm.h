// Protocol storm: a socket-confined TLB shootdown storm driving the REAL
// kernel + flush-backend protocol on the per-socket event shards
// (MachineConfig::shard_protocol) — the headline workload of the sharded-
// protocol-state work.
//
// Shape: one process per socket, one thread per CPU, each thread owning a
// private page slice of its process's mapping. Setup (process creation,
// mmap, pre-faulting every page) runs on the unsharded serial engine; the
// engine is then quiescent and ActivateProtocolShards() splits it, banking
// the coherence directory, APIC, and backend state per socket. The measured
// phase is pure protocol pressure: every thread loops { mprotect(RO) ->
// read slice -> mprotect(RW) }, each mprotect shooting down every other CPU
// of its socket. Because each process's cpumask is confined to one socket,
// the ENTIRE shootdown chain — kernel entry, cpumask scan, IPI send, remote
// flush IRQ, ack — executes inside one shard, so the measured phase is a
// single parallel engine phase in which every shard runs to completion. The
// engine aborts on any cross-shard schedule or cancel, and debug builds
// also assert confinement in the backend (System::SetRequireConfined).
//
// Determinism contract, checked by tests/protocol_shard_test.cc and the
// in-binary equality gate in bench/sim_throughput:
//   - sharded at host_threads == 1 vs N: ALL metrics byte-identical (closed
//     shards see only their own events, whichever thread runs them);
//   - sharded vs true serial (shard_protocol off), ipi backend: checksum,
//     end_time, events_processed and backend counter sums identical —
//     per-socket coherence banks inherit each line's MESI contents at the
//     split, so a confined storm replays the serial cost sequence exactly;
//   - queue backend: protocol counts identical, but sharded virtual time
//     drops below serial — serial mode ping-pongs the single next_tlb_gen
//     ticket cacheline across sockets, and partitioning that counter per
//     socket is the serialization the protocol sharding removes.
#ifndef TLBSIM_SRC_WORKLOADS_PROTOCOL_STORM_H_
#define TLBSIM_SRC_WORKLOADS_PROTOCOL_STORM_H_

#include <cstdint>
#include <vector>

#include "src/core/system.h"
#include "src/sim/json.h"

namespace tlbsim {

struct ProtocolStormConfig {
  Topology topo = Topology::EightSocket();
  FlushBackendKind backend = FlushBackendKind::kIpi;
  // Off runs the identical workload on the serial engine — the equality
  // reference and the scaling baseline.
  bool shard_protocol = true;
  // Host threads (clamped to sockets); 1 with shard_protocol runs every
  // shard inline — the deterministic sharded reference.
  int sim_threads = 1;
  int pages_per_cpu = 4;
  int iterations = 50;            // mprotect RO/RW round-trips per CPU
  // Participating CPUs (empty: all). A socket's process gets threads on its
  // listed CPUs only, so this IS the shootdown target mask per socket —
  // the property test feeds random subsets here. Sockets with no listed CPU
  // sit idle.
  std::vector<int> active_cpus;
  uint64_t seed = 1;
};

struct ProtocolStormResult {
  uint64_t iterations_done = 0;   // sum over CPUs
  uint64_t shootdowns = 0;        // backend flushes with >= 1 remote target
  uint64_t flush_requests = 0;    // kernel FlushRange invocations
  uint64_t events_processed = 0;  // engine total
  uint64_t checksum = 0;          // commutative (cpu, time, iter) hash
  Cycles end_time = 0;            // final virtual time
  Engine::ParallelStats par;      // phases / shard runs / shard events
  Json metrics;                   // full registry snapshot (equality checks)
};

// Builds a System per the config, runs setup serially, activates protocol
// shards (when configured), runs the storm to completion and returns the
// deterministic result. Wall-clock measurement is the caller's job.
ProtocolStormResult RunProtocolStorm(const ProtocolStormConfig& cfg);

}  // namespace tlbsim

#endif  // TLBSIM_SRC_WORKLOADS_PROTOCOL_STORM_H_
