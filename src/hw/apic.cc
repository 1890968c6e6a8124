#include "src/hw/apic.h"

#include <algorithm>
#include <map>

namespace tlbsim {

Cycles Apic::WireLatency(int from, int to) const {
  switch (topo_.Between(from, to)) {
    case Topology::Distance::kSelf:
    case Topology::Distance::kSmtSibling:
      return costs_->ipi_wire_smt;
    case Topology::Distance::kSameSocket:
      return costs_->ipi_wire_same_socket;
    case Topology::Distance::kCrossSocket:
      return costs_->ipi_wire_cross_socket;
  }
  return costs_->ipi_wire_cross_socket;
}

// tlblint: setup — single-threaded Machine construction
void Apic::ConfigureBanks(int banks, int cpus_per_bank) {
  if (banks < 1) banks = 1;
  if (cpus_per_bank < 1) cpus_per_bank = 1;
  banks_.assign(static_cast<size_t>(banks), Stats{});
  cpus_per_bank_ = cpus_per_bank;
  wire_hists_.clear();
  if (banks > 1 && metrics_ != nullptr) {
    wire_hists_.reserve(static_cast<size_t>(banks));
    for (int b = 0; b < banks; ++b) {
      wire_hists_.push_back(
          &metrics_->histogram("apic.ipi_wire_cycles.socket" + std::to_string(b)));
    }
  }
}

// tlblint: setup — aggregation between runs, engine quiescent
Apic::Stats Apic::stats() const {
  Stats sum;
  for (const Stats& b : banks_) {
    sum.ipis_sent += b.ipis_sent;
    sum.icr_writes += b.icr_writes;
    sum.multicast_messages += b.multicast_messages;
  }
  return sum;
}

void Apic::Deliver(SimCpu& sender, int target, int vector) {
  Cycles wire = sender.rng().Jitter(WireLatency(sender.id(), target), costs_->jitter_frac);
  Cycles arrival = sender.now() + wire;
  SimCpu* cpu = cpus_.at(static_cast<size_t>(target));
  engine_->ScheduleOnCpu(target, arrival, [cpu, vector] { cpu->RaiseIrq(vector); });
  ++BankFor(sender.id()).ipis_sent;
  Histogram* h = WireHistFor(sender.id());
  if (h != nullptr) {
    h->Record(static_cast<double>(wire));
  }
}

void Apic::SendIpi(SimCpu& sender, const std::vector<int>& targets, int vector) {
  if (targets.empty()) {
    return;
  }
  Stats& bank = BankFor(sender.id());
  if (!use_multicast_) {
    for (int t : targets) {
      sender.AdvanceInline(sender.rng().Jitter(costs_->ipi_icr_write, costs_->jitter_frac));
      ++bank.icr_writes;
      Deliver(sender, t, vector);
    }
    return;
  }
  // Cluster-mode multicast: one ICR write per addressed cluster.
  std::map<int, std::vector<int>> by_cluster;
  for (int t : targets) {
    by_cluster[t / kClusterSize].push_back(t);
  }
  for (auto& [cluster, members] : by_cluster) {
    sender.AdvanceInline(sender.rng().Jitter(costs_->ipi_icr_write, costs_->jitter_frac));
    ++bank.icr_writes;
    ++bank.multicast_messages;
    for (int t : members) {
      Deliver(sender, t, vector);
    }
  }
}

void Apic::SendNmi(SimCpu& sender, int target) {
  sender.AdvanceInline(sender.rng().Jitter(costs_->ipi_icr_write, costs_->jitter_frac));
  ++BankFor(sender.id()).icr_writes;
  Deliver(sender, target, kNmiVector);
}

}  // namespace tlbsim
