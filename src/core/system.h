// Convenience wiring: one object owning a Machine + Kernel + ShootdownEngine.
//
// This is the main entry point of the library:
//
//   tlbsim::SystemConfig cfg;
//   cfg.kernel.opts = tlbsim::OptimizationSet::All();
//   tlbsim::System sys(cfg);
//   auto* p = sys.kernel().CreateProcess();
//   auto* t = sys.kernel().CreateThread(p, /*cpu=*/0);
//   sys.machine().engine().Spawn(0, MyProgram(sys, *t));
//   sys.machine().engine().Run();
#ifndef TLBSIM_SRC_CORE_SYSTEM_H_
#define TLBSIM_SRC_CORE_SYSTEM_H_

#include <memory>
#include <string>

#include "src/core/queue_backend.h"
#include "src/core/shootdown.h"
#include "src/hw/machine.h"
#include "src/kernel/kernel.h"

namespace tlbsim {

// Which TLB-flush protocol drives the kernel: the paper's Linux 5.2.8
// call-function-data IPI engine, or the asynchronous per-CPU-ring queue
// design (src/core/queue_backend.h). Benches sweep this axis via --backend.
enum class FlushBackendKind {
  kIpi,
  kQueue,
};

inline const char* FlushBackendName(FlushBackendKind kind) {
  switch (kind) {
    case FlushBackendKind::kIpi:
      return "ipi";
    case FlushBackendKind::kQueue:
      return "queue";
  }
  return "unknown";
}

// Parses "ipi" / "queue"; returns false (and leaves *out alone) otherwise.
inline bool ParseFlushBackend(const std::string& name, FlushBackendKind* out) {
  if (name == "ipi") {
    *out = FlushBackendKind::kIpi;
    return true;
  }
  if (name == "queue") {
    *out = FlushBackendKind::kQueue;
    return true;
  }
  return false;
}

struct SystemConfig {
  MachineConfig machine;
  KernelConfig kernel;
  FlushBackendKind backend = FlushBackendKind::kIpi;
  // Attach a tlbcheck CheckContext (src/check/) to this system. Requires a
  // checker factory to be installed (linking tlbsim_check does that via
  // EnableTlbCheckEverywhere / InstallTlbCheckFactory); without one the flag
  // is ignored, so tlbsim_core itself never depends on the check library.
  bool check = false;
};

class System;

// Abstract face of the tlbcheck CheckContext, defined here so core code and
// tests can query violation state without linking against src/check/. The
// concrete implementation registers itself through SetSystemCheckerFactory.
class SystemChecker {
 public:
  virtual ~SystemChecker() = default;
  virtual uint64_t violation_count() const = 0;
  virtual std::string Summary() const = 0;
};

using SystemCheckerFactory = std::unique_ptr<SystemChecker> (*)(System&);

// Installs the factory System uses to build a checker when config.check is
// set (called by the check library; idempotent).
void SetSystemCheckerFactory(SystemCheckerFactory factory);

// Forces config.check on for every subsequently constructed System —
// the global "--check" switch used by bench drivers.
void SetCheckEverySystem(bool on);
bool CheckEverySystem();
SystemCheckerFactory GetSystemCheckerFactory();

class System {
 public:
  explicit System(const SystemConfig& config = SystemConfig{})
      : machine_(config.machine), kernel_(&machine_, config.kernel), shootdown_(&kernel_) {
    if (config.backend == FlushBackendKind::kQueue) {
      // Constructed after shootdown_: its ctor re-registers itself as the
      // kernel's flush backend (same pattern as src/core/alternatives.cc).
      // In ipi mode nothing queue-related is allocated or registered, so
      // ipi reports stay byte-identical with single-backend builds.
      queue_ = std::make_unique<QueueFlushBackend>(&kernel_);
    }
    MaybeCreateChecker(config);
  }
  System(const System&) = delete;
  System& operator=(const System&) = delete;

  Machine& machine() { return machine_; }
  Kernel& kernel() { return kernel_; }
  ShootdownEngine& shootdown() { return shootdown_; }

  // Protocol sharding, phase 2 (MachineConfig::shard_protocol): splits the
  // quiescent engine into per-socket shards and banks every protocol-state
  // layer — coherence directory, APIC, kernel counters, and whichever flush
  // backend is active — by the acting CPU's socket. Call after the serial
  // setup phase (process creation, pre-faulting) and before the measured
  // storm. No-op unless the config asked for protocol sharding; idempotent.
  void ActivateProtocolShards() {
    if (!machine_.config().shard_protocol || machine_.protocol_shards_active()) {
      return;
    }
    int banks = machine_.config().topo.sockets;
    int cps = machine_.config().topo.cpus_per_socket();
    machine_.ActivateProtocolShards();
    kernel_.ConfigureStatBanks(banks, cps);
    shootdown_.ConfigureBanks(banks, cps);
    if (queue_) {
      queue_->ConfigureBanks(banks, cps);
    }
  }

  // Debug contract check for socket-confined storms: asserts (debug builds)
  // that every shootdown's initiator and cpumask stay on one socket.
  void SetRequireConfined(bool on) {
    shootdown_.set_check_confined(on);
    if (queue_) {
      queue_->set_check_confined(on);
    }
  }

  // Non-null iff this system runs the queue backend.
  QueueFlushBackend* queue() { return queue_.get(); }
  const QueueFlushBackend* queue() const { return queue_.get(); }

  // Non-null iff checking is attached (config.check or the global switch,
  // with a factory installed).
  SystemChecker* checker() { return checker_.get(); }

 private:
  void MaybeCreateChecker(const SystemConfig& config);

  Machine machine_;
  Kernel kernel_;
  ShootdownEngine shootdown_;
  std::unique_ptr<QueueFlushBackend> queue_;
  // Declared last: destroyed first, so the checker drains its reports while
  // machine/kernel state is still alive.
  std::unique_ptr<SystemChecker> checker_;
};

}  // namespace tlbsim

#endif  // TLBSIM_SRC_CORE_SYSTEM_H_
