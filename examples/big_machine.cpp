// Big-machine lab: the 8-socket / 224-cpu preset on protocol shards.
//
// Runs the sharded-protocol storm (MachineConfig::shard_protocol): every
// socket runs a confined mprotect shootdown storm, and the ENTIRE shootdown
// protocol — cpumask scan, IPI delivery, remote flush, ack, coherence — is
// banked per socket and executed inside the shards, socket-confined by
// construction, so every shard runs to completion in one parallel phase (the
// engine aborts on any cross-shard schedule). The sharded run must replay the
// serial engine bit-exactly (checksum, end time, event count). This is also
// the TSan storm CI drives at --sim-threads 8.
//
//   $ ./build/examples/big_machine [--sim-threads N]
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/core/system.h"
#include "src/workloads/protocol_storm.h"

using namespace tlbsim;

int main(int argc, char** argv) {
  int sim_threads = 8;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--sim-threads") == 0 && i + 1 < argc) {
      sim_threads = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr, "usage: big_machine [--sim-threads N]\n");
      return 2;
    }
  }
  if (sim_threads < 1) {
    sim_threads = 1;
  }

  std::printf("big_machine: 8 sockets, 224 cpus, sharded-protocol storm, "
              "mprotect round-trips, %d host threads\n\n", sim_threads);
  ProtocolStormConfig pcfg;
  pcfg.topo = Topology::EightSocket();
  pcfg.pages_per_cpu = 2;
  pcfg.iterations = 4;
  pcfg.seed = 42;

  ProtocolStormConfig pserial = pcfg;
  pserial.shard_protocol = false;
  ProtocolStormResult rs = RunProtocolStorm(pserial);

  ProtocolStormConfig psharded = pcfg;
  psharded.sim_threads = sim_threads;
  ProtocolStormResult rp = RunProtocolStorm(psharded);

  std::printf("serial protocol : %llu shootdowns, checksum %016llx, end %lld\n",
              static_cast<unsigned long long>(rs.shootdowns),
              static_cast<unsigned long long>(rs.checksum),
              static_cast<long long>(rs.end_time));
  std::printf("8 proto shards  : %llu shootdowns, checksum %016llx, end %lld\n",
              static_cast<unsigned long long>(rp.shootdowns),
              static_cast<unsigned long long>(rp.checksum),
              static_cast<long long>(rp.end_time));
  std::printf("                  %llu phase(s), %llu shard windows, %llu events in parallel\n",
              static_cast<unsigned long long>(rp.par.windows),
              static_cast<unsigned long long>(rp.par.shard_windows),
              static_cast<unsigned long long>(rp.par.parallel_events));

  if (rp.checksum != rs.checksum || rp.end_time != rs.end_time ||
      rp.events_processed != rs.events_processed || rp.shootdowns != rs.shootdowns) {
    std::printf("\nFAIL: sharded protocol diverged from the serial replay\n");
    return 1;
  }
  if (rp.par.parallel_events == 0) {
    std::printf("\nFAIL: protocol storm never entered a parallel phase\n");
    return 1;
  }
  std::printf("\nOK: the sharded protocol replays the serial timeline bit-exactly\n");
  return 0;
}
