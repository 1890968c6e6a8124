// Timeline tracing: records (time, cpu, tag) triples for protocol-phase
// visualization (used to regenerate the paper's Figures 1-3 as text
// timelines). Disabled by default; recording is O(1) when enabled.
#ifndef TLBSIM_SRC_SIM_TRACE_H_
#define TLBSIM_SRC_SIM_TRACE_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/sim/time.h"

namespace tlbsim {

struct TraceEvent {
  Cycles at;
  int cpu;
  std::string tag;
};

class Trace {
 public:
  void Enable() { enabled_ = true; }
  void Disable() { enabled_ = false; }
  bool enabled() const { return enabled_; }

  // The tag is copied into a string only when enabled: disabled tracing
  // sits on the per-shootdown hot path and must not allocate.
  void Record(Cycles at, int cpu, std::string_view tag) {
    if (enabled_) {
      events_.push_back(TraceEvent{at, cpu, std::string(tag)});
    }
  }

  const std::vector<TraceEvent>& events() const { return events_; }
  void Clear() { events_.clear(); }

  // Renders the trace as an aligned text timeline, one line per event.
  std::string Render() const;

 private:
  bool enabled_ = false;
  std::vector<TraceEvent> events_;
};

}  // namespace tlbsim

#endif  // TLBSIM_SRC_SIM_TRACE_H_
