// In-memory span recorder for the benchmark's traced run. Spans sit in the
// benchmark's own code, around its calls into the library (System
// construction, each Run* job, SweepRunner::Run, snapshot serialization);
// they are written out once, at exit, in the Chrome trace-event format
// (opens offline in chrome://tracing or Perfetto).
#ifndef TLBSIM_PERFBENCH_SPANS_H_
#define TLBSIM_PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/sim/json.h"

namespace perfbench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  // A disabled tracer records nothing; Begin/End cost one branch.
  explicit Tracer(bool on) : on_(on), epoch_(Clock::now()) {}

  bool on() const { return on_; }

  // Opens a span under `parent` (0: root) and returns its id (0 when off).
  uint64_t Begin(const char* name, uint64_t parent) {
    if (!on_) {
      return 0;
    }
    Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, spans_.size() + 1, parent, ThreadIndex(), Us(now), -1.0});
    return spans_.size();
  }

  void End(uint64_t id) {
    if (id == 0) {
      return;
    }
    Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id - 1].end_us = Us(now);
  }

  // {"traceEvents": [...]} with one complete ("X") event per closed span;
  // args carry the span id and its parent's, so a layer's self time is its
  // duration minus its children's.
  bool Write(const std::string& path) const {
    tlbsim::Json events = tlbsim::Json::Array();
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const Span& s : spans_) {
        if (s.end_us < 0) {
          continue;
        }
        tlbsim::Json e = tlbsim::Json::Object();
        e["name"] = s.name;
        e["ph"] = "X";
        e["pid"] = 1;
        e["tid"] = s.tid;
        e["ts"] = s.start_us;
        e["dur"] = s.end_us - s.start_us;
        e["args"]["id"] = s.id;
        e["args"]["parent"] = s.parent;
        events.Append(std::move(e));
      }
    }
    tlbsim::Json doc = tlbsim::Json::Object();
    doc["traceEvents"] = std::move(events);
    std::ofstream out(path);
    out << doc.Dump() << "\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    const char* name;
    uint64_t id;
    uint64_t parent;
    int tid;
    double start_us;
    double end_us;
  };

  double Us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }

  // Small dense thread numbers, in order of first span (caller holds mu_).
  int ThreadIndex() {
    std::thread::id self = std::this_thread::get_id();
    for (size_t i = 0; i < threads_.size(); ++i) {
      if (threads_[i] == self) {
        return static_cast<int>(i);
      }
    }
    threads_.push_back(self);
    return static_cast<int>(threads_.size()) - 1;
  }

  const bool on_;
  const Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<std::thread::id> threads_;
};

// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t parent)
      : tracer_(tracer), id_(tracer->Begin(name, parent)) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { tracer_->End(id_); }

  uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  uint64_t id_;
};

}  // namespace perfbench

#endif  // TLBSIM_PERFBENCH_SPANS_H_
