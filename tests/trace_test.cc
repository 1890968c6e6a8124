// Trace: enable/disable gating, render ordering, and no allocation while
// disabled.
#include "src/sim/trace.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

// Counting global allocator for this binary: the disabled-trace test checks
// that Record() never reaches operator new.
namespace {
uint64_t g_allocs = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++g_allocs;
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace tlbsim {
namespace {

TEST(TraceTest, DisabledRecordsNothing) {
  Trace t;
  t.Record(10, 0, "x");
  EXPECT_TRUE(t.events().empty());
}

TEST(TraceTest, DisabledRecordDoesNotAllocate) {
  // Tags past the small-string buffer (15 chars in libstdc++) are the ones a
  // by-value std::string parameter would heap-allocate for.
  Trace t;
  const char* tag = "initiator: flush dispatch";
  uint64_t before = g_allocs;
  for (int i = 0; i < 1000; ++i) {
    t.Record(i, 0, tag);
  }
  EXPECT_EQ(g_allocs - before, 0u);
  EXPECT_TRUE(t.events().empty());
}

TEST(TraceTest, EnabledRecords) {
  Trace t;
  t.Enable();
  t.Record(10, 0, "hello");
  ASSERT_EQ(t.events().size(), 1u);
  EXPECT_EQ(t.events()[0].at, 10);
  EXPECT_EQ(t.events()[0].tag, "hello");
}

TEST(TraceTest, RenderSortsByTime) {
  Trace t;
  t.Enable();
  t.Record(30, 1, "late");
  t.Record(10, 0, "early");
  std::string out = t.Render();
  EXPECT_LT(out.find("early"), out.find("late"));
  EXPECT_NE(out.find("cpu1"), std::string::npos);
}

TEST(TraceTest, StableOrderForEqualTimes) {
  Trace t;
  t.Enable();
  t.Record(10, 0, "first");
  t.Record(10, 0, "second");
  std::string out = t.Render();
  EXPECT_LT(out.find("first"), out.find("second"));
}

TEST(TraceTest, ClearEmpties) {
  Trace t;
  t.Enable();
  t.Record(1, 0, "x");
  t.Clear();
  EXPECT_TRUE(t.events().empty());
  EXPECT_EQ(t.Render(), "");
}

}  // namespace
}  // namespace tlbsim
