// Allocation budget of building a run: every per-node structure lives in
// a few component-wide arrays sized once per network (docs/ENGINE.md,
// "Flat per-node arenas"), so a 16x16 network takes a few hundred heap
// allocations, and each extra node adds at most one.
//
// This file is its own executable because it replaces the global
// operator new/delete to count allocations.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "service/proto.hpp"
#include "snap/runstate.hpp"

namespace {

// Touched only by the test thread while a construction is counted.
std::uint64_t g_allocations = 0;
std::uint64_t g_bytes = 0;

void* counted_alloc(std::size_t size) {
  ++g_allocations;
  g_bytes += size;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace wavesim;

struct Count {
  std::uint64_t allocations = 0;
  std::uint64_t bytes = 0;
};

snap::RunSpec spec_of(const std::string& topo, const std::string& protocol) {
  // The clrp_setup / wh_uniform benchmark specs (perfbench/sims.cpp).
  return service::runspec_from_json(
      sim::JsonValue::object()
          .set("topo", topo)
          .set("protocol", protocol)
          .set("k", 2)
          .set("load", protocol == "wormhole" ? 0.10 : 0.05)
          .set("length", 64)
          .set("warmup", 2000)
          .set("measure", 10000)
          .set("seed", 1));
}

/// Heap traffic of constructing (not destroying) one run of `spec`.
Count construction_of(const snap::RunSpec& spec) {
  const std::uint64_t a0 = g_allocations;
  const std::uint64_t b0 = g_bytes;
  auto* run = new snap::CheckpointableRun(spec);
  const Count count{g_allocations - a0 - 1, g_bytes - b0 - sizeof *run};
  delete run;
  return count;
}

constexpr std::uint64_t kBudget16x16 = 400;

TEST(Construction, ClrpSixteenBySixteenFitsTheBudget) {
  const Count c = construction_of(spec_of("16x16", "clrp"));
  RecordProperty("allocations", std::to_string(c.allocations));
  RecordProperty("bytes", std::to_string(c.bytes));
  EXPECT_LE(c.allocations, kBudget16x16) << c.bytes << " bytes";
}

TEST(Construction, WormholeSixteenBySixteenFitsTheBudget) {
  const Count c = construction_of(spec_of("16x16", "wormhole"));
  RecordProperty("allocations", std::to_string(c.allocations));
  RecordProperty("bytes", std::to_string(c.bytes));
  EXPECT_LE(c.allocations, kBudget16x16) << c.bytes << " bytes";
}

TEST(Construction, EachExtraNodeCostsAtMostOneAllocation) {
  for (const char* protocol : {"clrp", "wormhole"}) {
    const Count small = construction_of(spec_of("8x8", protocol));
    const Count large = construction_of(spec_of("16x16", protocol));
    ASSERT_GE(large.allocations, small.allocations) << protocol;
    EXPECT_LE(large.allocations - small.allocations,
              static_cast<std::uint64_t>(16 * 16 - 8 * 8))
        << protocol << ": " << small.allocations << " -> "
        << large.allocations;
  }
}

TEST(Construction, ASecondConstructionAllocatesTheSame) {
  for (const char* protocol : {"clrp", "wormhole"}) {
    const snap::RunSpec spec = spec_of("16x16", protocol);
    const Count first = construction_of(spec);
    const Count second = construction_of(spec);
    EXPECT_EQ(first.allocations, second.allocations) << protocol;
    EXPECT_EQ(first.bytes, second.bytes) << protocol;
  }
}

}  // namespace
