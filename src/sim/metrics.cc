#include "src/sim/metrics.h"

#include <algorithm>

namespace tlbsim {

namespace {

// The p-th percentile of the non-empty `v`: linear interpolation between
// the closest ranks. Selects those ranks in O(n) (reordering `v`) instead
// of sorting; order statistics do not depend on how they are found, so the
// result is bit-identical to indexing a sorted copy.
double SelectPercentile(std::vector<double>& v, double p) {
  double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  auto lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = rank - static_cast<double>(lo);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(lo), v.end());
  double at_lo = v[lo];
  // nth_element leaves every larger rank after lo: rank lo+1 is their minimum.
  double at_hi =
      hi == lo ? at_lo : *std::min_element(v.begin() + static_cast<std::ptrdiff_t>(hi), v.end());
  return at_lo * (1.0 - frac) + at_hi * frac;
}

}  // namespace

double Histogram::Percentile(double p) const {
  if (reservoir_.empty()) {
    return 0.0;
  }
  // A scratch copy keeps Record()'s arrival order intact (decimation depends
  // on it); the reservoir is at most kMaxSamples doubles.
  std::vector<double> scratch(reservoir_);
  return SelectPercentile(scratch, p);
}

Json Histogram::ToJson() const {
  // One scratch copy serves all three percentiles.
  std::vector<double> scratch(reservoir_);
  auto pct = [&scratch](double p) { return scratch.empty() ? 0.0 : SelectPercentile(scratch, p); };
  Json h = Json::Object();
  h["count"] = count();
  h["mean"] = mean();
  h["stddev"] = stddev();
  h["min"] = min();
  h["max"] = max();
  h["sum"] = sum();
  h["p50"] = pct(50);
  h["p90"] = pct(90);
  h["p99"] = pct(99);
  if (stride_ > 1) {
    // Percentiles above come from every stride-th observation; moments
    // (count/mean/stddev/min/max/sum) remain exact.
    h["percentile_samples"] = static_cast<uint64_t>(reservoir_.size());
    h["percentile_stride"] = stride_;
  }
  if (dropped_ > 0) {
    // Only reachable past the stride ceiling: percentiles no longer cover
    // the stream's tail. check_bench_json.py fails reports carrying this.
    h["dropped_samples"] = dropped_;
  }
  return h;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), Counter()).first;
  }
  return it->second;
}

PerCpuCounter& MetricsRegistry::percpu(std::string_view name) {
  auto it = percpus_.find(name);
  if (it == percpus_.end()) {
    it = percpus_.emplace(std::string(name), PerCpuCounter(num_cpus_)).first;
  }
  return it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), Histogram()).first;
  }
  return it->second;
}

Json MetricsRegistry::ToJson() const {
  // Every name is emitted once (map keys are unique), so members are
  // appended without operator[]'s duplicate-key scan.
  Json counters = Json::Object();
  for (const auto& [name, c] : counters_) {
    counters.AppendMember(name, c.value());
  }
  Json percpu = Json::Object();
  for (const auto& [name, pc] : percpus_) {
    Json entry = Json::Object();
    entry.AppendMember("total", pc.total());
    Json by_cpu = Json::Object();
    for (int cpu = 0; cpu < pc.num_cpus(); ++cpu) {
      if (pc.of(cpu) != 0) {
        by_cpu.AppendMember(std::to_string(cpu), pc.of(cpu));
      }
    }
    entry.AppendMember("by_cpu", std::move(by_cpu));
    percpu.AppendMember(name, std::move(entry));
  }
  Json histograms = Json::Object();
  for (const auto& [name, h] : histograms_) {
    histograms.AppendMember(name, h.ToJson());
  }
  Json root = Json::Object();
  root.AppendMember("counters", std::move(counters));
  root.AppendMember("per_cpu", std::move(percpu));
  root.AppendMember("histograms", std::move(histograms));
  return root;
}

void MetricsRegistry::Reset() {
  for (auto& [name, c] : counters_) {
    c.Reset();
  }
  for (auto& [name, pc] : percpus_) {
    pc.Reset();
  }
  for (auto& [name, h] : histograms_) {
    h.Reset();
  }
}

}  // namespace tlbsim
