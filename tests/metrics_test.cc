// Tests for the metrics registry and JSON pipeline: deterministic snapshots
// across identical seeded runs, histogram percentiles, string escaping and
// parser round-trips, scoped virtual-cycle timers, registry handle stability.
#include "src/sim/metrics.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/sim/json.h"
#include "src/workloads/microbench.h"

namespace tlbsim {
namespace {

TEST(JsonTest, ScalarsDump) {
  EXPECT_EQ(Json().Dump(), "null");
  EXPECT_EQ(Json(true).Dump(), "true");
  EXPECT_EQ(Json(false).Dump(), "false");
  EXPECT_EQ(Json(int64_t{-7}).Dump(), "-7");
  EXPECT_EQ(Json(uint64_t{18446744073709551615ULL}).Dump(), "18446744073709551615");
  EXPECT_EQ(Json(1.5).Dump(), "1.5");
  EXPECT_EQ(Json("hi").Dump(), "\"hi\"");
}

TEST(JsonTest, ObjectKeysKeepInsertionOrder) {
  Json doc = Json::Object();
  doc["zebra"] = 1;
  doc["apple"] = 2;
  doc["mango"] = 3;
  EXPECT_EQ(doc.Dump(), "{\"zebra\":1,\"apple\":2,\"mango\":3}");
}

TEST(JsonTest, EscapingRoundTrip) {
  const std::string nasty = "quote\" backslash\\ newline\n tab\t ctrl\x01 unicode\xc3\xa9";
  Json doc = Json::Object();
  doc["k\"ey"] = nasty;
  std::string dumped = doc.Dump();
  // The serialized form must escape the quote, backslash and control bytes.
  EXPECT_NE(dumped.find("\\\""), std::string::npos);
  EXPECT_NE(dumped.find("\\\\"), std::string::npos);
  EXPECT_NE(dumped.find("\\n"), std::string::npos);
  EXPECT_NE(dumped.find("\\t"), std::string::npos);
  EXPECT_NE(dumped.find("\\u0001"), std::string::npos);

  auto parsed = Json::Parse(dumped);
  ASSERT_TRUE(parsed.has_value());
  const Json* v = parsed->Find("k\"ey");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->AsString(), nasty);
  // Re-dumping the parse reproduces the original bytes.
  EXPECT_EQ(parsed->Dump(), dumped);
}

TEST(JsonTest, ParseRejectsGarbage) {
  EXPECT_FALSE(Json::Parse("{").has_value());
  EXPECT_FALSE(Json::Parse("{\"a\":1,}").has_value());
  EXPECT_FALSE(Json::Parse("[1,2] trailing").has_value());
  EXPECT_FALSE(Json::Parse("nul").has_value());
}

TEST(JsonTest, NestedRoundTrip) {
  Json doc = Json::Object();
  doc["list"] = Json::Array();
  doc["list"].Append(1);
  doc["list"].Append("two");
  doc["list"].Append(Json());
  doc["nested"]["deep"] = 2.25;
  std::string pretty = doc.Dump(2);
  auto parsed = Json::Parse(pretty);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, doc);
  EXPECT_EQ(parsed->Dump(2), pretty);
}

TEST(MetricsTest, CounterBasics) {
  MetricsRegistry reg(4);
  Counter& c = reg.counter("x");
  c.Inc();
  c.Inc(9);
  EXPECT_EQ(c.value(), 10u);
  // Same name returns the same handle at the same address.
  EXPECT_EQ(&reg.counter("x"), &c);
  c.Set(3);
  EXPECT_EQ(reg.counter("x").value(), 3u);
}

TEST(MetricsTest, PerCpuCounterTotalsAndGrowth) {
  PerCpuCounter pc(2);
  pc.Inc(0, 5);
  pc.Inc(1);
  pc.Inc(7, 2);  // grows on demand
  EXPECT_EQ(pc.of(0), 5u);
  EXPECT_EQ(pc.of(7), 2u);
  EXPECT_EQ(pc.of(3), 0u);
  EXPECT_EQ(pc.total(), 8u);
  EXPECT_EQ(pc.num_cpus(), 8);
}

TEST(MetricsTest, HistogramMomentsAndPercentiles) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) {
    h.Record(static_cast<double>(i));
  }
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_NEAR(h.Percentile(50), 50.0, 1.0);
  EXPECT_NEAR(h.Percentile(90), 90.0, 1.0);
  EXPECT_NEAR(h.Percentile(99), 99.0, 1.0);

  Json j = h.ToJson();
  EXPECT_EQ(j.Find("count")->AsUint(), 100u);
  EXPECT_DOUBLE_EQ(j.Find("mean")->AsDouble(), 50.5);
  ASSERT_NE(j.Find("p90"), nullptr);
}

TEST(MetricsTest, HistogramReservoirDecimatesWithoutBias) {
  Histogram h;
  // 8x the reservoir capacity of strictly increasing values: a first-N
  // reservoir would report p50 from the stream's first eighth; the
  // decimating reservoir must track the full range.
  const size_t n = 8 * Histogram::kMaxSamples;
  for (size_t i = 0; i < n; ++i) {
    h.Record(static_cast<double>(i));
  }
  EXPECT_EQ(h.count(), n);
  EXPECT_EQ(h.dropped_samples(), 0u);  // decimated, not dropped
  EXPECT_GT(h.percentile_stride(), 1u);
  EXPECT_LE(h.percentile_samples(), Histogram::kMaxSamples);
  EXPECT_NEAR(h.Percentile(50), static_cast<double>(n) / 2, static_cast<double>(n) * 0.01);
  EXPECT_NEAR(h.Percentile(99), static_cast<double>(n) * 0.99, static_cast<double>(n) * 0.01);
  // Moments still see every sample.
  EXPECT_DOUBLE_EQ(h.sum(), static_cast<double>(n) * (static_cast<double>(n) - 1) / 2);
  // The JSON form discloses the decimation but carries no dropped_samples
  // (the CI gate rejects reports with any).
  Json j = h.ToJson();
  ASSERT_NE(j.Find("percentile_stride"), nullptr);
  EXPECT_EQ(j.Find("dropped_samples"), nullptr);
}

TEST(MetricsTest, HistogramDecimationIsArrivalDeterministic) {
  Histogram a;
  Histogram b;
  for (size_t i = 0; i < 3 * Histogram::kMaxSamples; ++i) {
    double x = static_cast<double>((i * 2654435761u) % 100000);
    a.Record(x);
    b.Record(x);
  }
  EXPECT_EQ(a.ToJson().Dump(), b.ToJson().Dump());
}

// ToJson selects all three percentiles from one scratch copy; each must
// equal Percentile(), bit for bit, and (when the reservoir holds every
// sample) the closest-ranks interpolation over a fully sorted copy.
TEST(MetricsTest, ToJsonPercentilesEqualPercentile) {
  auto sorted_reference = [](std::vector<double> v, double p) {
    std::sort(v.begin(), v.end());
    double rank = p / 100.0 * static_cast<double>(v.size() - 1);
    auto lo = static_cast<size_t>(rank);
    size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return v[lo] * (1.0 - frac) + v[hi] * frac;
  };
  auto check = [&](const std::vector<double>& values, const char* what) {
    Histogram h;
    for (double x : values) {
      h.Record(x);
    }
    bool decimated = h.percentile_stride() > 1;
    Json j = h.ToJson();
    const std::pair<const char*, double> kKeys[] = {{"p50", 50.0}, {"p90", 90.0}, {"p99", 99.0}};
    for (const auto& [key, p] : kKeys) {
      ASSERT_NE(j.Find(key), nullptr) << what;
      EXPECT_EQ(j.Find(key)->AsDouble(), h.Percentile(p)) << what << " " << key;
      if (!values.empty() && !decimated) {
        EXPECT_EQ(h.Percentile(p), sorted_reference(values, p)) << what << " " << key;
      }
    }
  };
  check({}, "empty");
  check({7.5}, "n=1");
  check({9.0, -3.0}, "n=2");
  check({5.0, 1.0, 5.0, 5.0, 2.0, 5.0, 1.0, 9.0, 5.0}, "duplicates");
  std::vector<double> many;
  for (size_t i = 0; i < 997; ++i) {
    many.push_back(static_cast<double>((i * 2654435761u) % 101) / 4.0);
  }
  check(many, "many duplicates");
  std::vector<double> stream;
  for (size_t i = 0; i < 3 * Histogram::kMaxSamples + 17; ++i) {
    stream.push_back(static_cast<double>((i * 2654435761u) % 1000) / 8.0);
  }
  Histogram probe;
  for (double x : stream) {
    probe.Record(x);
  }
  ASSERT_GT(probe.percentile_stride(), 1u);
  check(stream, "decimated");
}

TEST(MetricsTest, ScopedCycleTimerRecordsVirtualDelta) {
  struct FakeClock {
    Cycles t = 0;
    Cycles now() const { return t; }
  };
  Histogram h;
  FakeClock clock{100};
  {
    ScopedCycleTimer t(&h, &clock);
    clock.t = 350;
  }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.mean(), 250.0);
  {
    // Null-safe: no histogram, no clock.
    ScopedCycleTimer t(nullptr, static_cast<const FakeClock*>(nullptr));
  }
  EXPECT_EQ(h.count(), 1u);
}

TEST(MetricsTest, RegistryToJsonShapeAndReset) {
  MetricsRegistry reg(4);
  reg.counter("b.second").Inc(2);
  reg.counter("a.first").Inc(1);
  reg.percpu("cpu.work").Inc(3, 7);
  reg.histogram("lat").Record(4.0);

  Json j = reg.ToJson();
  // Name-sorted sections regardless of registration order.
  const Json* counters = j.Find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_EQ(counters->members().size(), 2u);
  EXPECT_EQ(counters->members()[0].first, "a.first");
  EXPECT_EQ(counters->members()[1].first, "b.second");

  const Json* percpu = j.Find("per_cpu");
  ASSERT_NE(percpu, nullptr);
  const Json* work = percpu->Find("cpu.work");
  ASSERT_NE(work, nullptr);
  EXPECT_EQ(work->Find("total")->AsUint(), 7u);
  // by_cpu lists only nonzero CPUs.
  EXPECT_EQ(work->Find("by_cpu")->members().size(), 1u);
  EXPECT_EQ(work->Find("by_cpu")->members()[0].first, "3");

  ASSERT_NE(j.Find("histograms"), nullptr);
  ASSERT_NE(j.Find("histograms")->Find("lat"), nullptr);

  reg.Reset();
  EXPECT_EQ(reg.counter("a.first").value(), 0u);
  EXPECT_EQ(reg.percpu("cpu.work").total(), 0u);
  EXPECT_EQ(reg.histogram("lat").count(), 0u);
}

// The acceptance property behind BENCH_*.json diffing: two identical seeded
// simulation runs serialize to byte-identical metric documents.
TEST(MetricsTest, IdenticalSeededRunsProduceByteIdenticalJson) {
  auto run = [] {
    MicroConfig cfg;
    cfg.pti = true;
    cfg.pages = 2;
    cfg.placement = Placement::kOtherSocket;
    cfg.iterations = 30;
    cfg.seed = 1234;
    cfg.opts = OptimizationSet::AllGeneral();
    return RunMadviseMicrobench(cfg).metrics.Dump(2);
  };
  std::string first = run();
  std::string second = run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

// A different seed must actually change the registry — otherwise the
// determinism test above would pass vacuously.
TEST(MetricsTest, DifferentSeedsProduceDifferentJson) {
  auto run = [](uint64_t seed) {
    MicroConfig cfg;
    cfg.pti = true;
    cfg.pages = 2;
    cfg.placement = Placement::kOtherSocket;
    cfg.iterations = 30;
    cfg.seed = seed;
    cfg.opts = OptimizationSet::AllGeneral();
    return RunMadviseMicrobench(cfg).metrics.Dump(2);
  };
  EXPECT_NE(run(1), run(2));
}

}  // namespace
}  // namespace tlbsim
