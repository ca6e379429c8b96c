#include <gtest/gtest.h>

#include <stdexcept>

#include "src/common/rng.h"
#include "src/hw/counters.h"
#include "src/hw/ibs.h"
#include "src/hw/interconnect.h"
#include "src/hw/mem_ctrl.h"
#include "src/hw/tlb.h"
#include "src/hw/walker.h"
#include "src/topo/topology.h"
#include "tests/oracle/scalar_tlb.h"

namespace numalp {
namespace {

TEST(TlbTest, MissThenInsertThenHit) {
  Tlb tlb(TlbConfig{});
  EXPECT_EQ(tlb.Lookup(0x5000).level, TlbHitLevel::kMiss);
  tlb.Insert(0x5000, PageSize::k4K, 99, 1);
  const TlbLookup hit = tlb.Lookup(0x5abc);
  EXPECT_EQ(hit.level, TlbHitLevel::kL1);
  EXPECT_EQ(hit.pfn, 99u);
  EXPECT_EQ(hit.node, 1);
  EXPECT_EQ(hit.size, PageSize::k4K);
}

TEST(TlbTest, TwoMegEntryCoversWholeWindow) {
  Tlb tlb(TlbConfig{});
  tlb.Insert(kBytes2M, PageSize::k2M, 512, 0);
  EXPECT_EQ(tlb.Lookup(kBytes2M).level, TlbHitLevel::kL1);
  EXPECT_EQ(tlb.Lookup(kBytes2M + 511 * kBytes4K).level, TlbHitLevel::kL1);
  EXPECT_EQ(tlb.Lookup(2 * kBytes2M).level, TlbHitLevel::kMiss);
}

TEST(TlbTest, L2CatchesL1Eviction) {
  TlbConfig config;
  Tlb tlb(config);
  // Fill far beyond L1 capacity (64 entries) but within L2 (1024).
  for (Addr va = 0; va < 512 * kBytes4K; va += kBytes4K) {
    tlb.Insert(va, PageSize::k4K, va >> kShift4K, 0);
  }
  int l1_hits = 0;
  int l2_hits = 0;
  int misses = 0;
  for (Addr va = 0; va < 512 * kBytes4K; va += kBytes4K) {
    switch (tlb.Lookup(va).level) {
      case TlbHitLevel::kL1:
        ++l1_hits;
        break;
      case TlbHitLevel::kL2:
        ++l2_hits;
        break;
      case TlbHitLevel::kMiss:
        ++misses;
        break;
    }
  }
  EXPECT_GT(l2_hits, 300);  // most survive in L2
  EXPECT_EQ(misses, 0);
  // (L1 hits are possible but not guaranteed: L2-hit refills keep evicting
  // the small L1 during the ascending sweep.)
  (void)l1_hits;
}

TEST(TlbTest, TwoMegReachExceeds4KReach) {
  // Property from the paper's premise: the same TLB covers vastly more
  // address space with 2MB entries.
  Tlb tlb(TlbConfig{});
  for (int i = 0; i < 32; ++i) {
    tlb.Insert(static_cast<Addr>(i) * kBytes2M, PageSize::k2M, 0, 0);
  }
  int hits = 0;
  for (int i = 0; i < 32; ++i) {
    if (tlb.Lookup(static_cast<Addr>(i) * kBytes2M + 12345).level != TlbHitLevel::kMiss) {
      ++hits;
    }
  }
  EXPECT_EQ(hits, 32);  // 64MB of reach from the 2M array alone
}

TEST(TlbTest, InvalidatePageIsPrecise) {
  Tlb tlb(TlbConfig{});
  tlb.Insert(0x1000, PageSize::k4K, 1, 0);
  tlb.Insert(0x2000, PageSize::k4K, 2, 0);
  tlb.InvalidatePage(0x1000, PageSize::k4K);
  EXPECT_EQ(tlb.Lookup(0x1000).level, TlbHitLevel::kMiss);
  EXPECT_EQ(tlb.Lookup(0x2000).level, TlbHitLevel::kL1);
}

TEST(TlbTest, Invalidate2MEntry) {
  Tlb tlb(TlbConfig{});
  tlb.Insert(kBytes2M, PageSize::k2M, 512, 1);
  tlb.InvalidatePage(kBytes2M, PageSize::k2M);
  EXPECT_EQ(tlb.Lookup(kBytes2M + 5).level, TlbHitLevel::kMiss);
}

TEST(TlbTest, FlushAllClearsEverything) {
  Tlb tlb(TlbConfig{});
  tlb.Insert(0x1000, PageSize::k4K, 1, 0);
  tlb.Insert(kBytes2M, PageSize::k2M, 2, 0);
  tlb.Insert(kBytes1G, PageSize::k1G, 3, 0);
  tlb.FlushAll();
  EXPECT_EQ(tlb.Lookup(0x1000).level, TlbHitLevel::kMiss);
  EXPECT_EQ(tlb.Lookup(kBytes2M).level, TlbHitLevel::kMiss);
  EXPECT_EQ(tlb.Lookup(kBytes1G).level, TlbHitLevel::kMiss);
}

TEST(TlbTest, OneGigPagesHaveOwnArray) {
  Tlb tlb(TlbConfig{});
  tlb.Insert(0, PageSize::k1G, 0, 1);
  const TlbLookup hit = tlb.Lookup(kBytes1G - 1);
  EXPECT_EQ(hit.level, TlbHitLevel::kL1);
  EXPECT_EQ(hit.size, PageSize::k1G);
}

// The partitioned L1 arrays isolate capacity per page size: thrashing one
// size class cannot evict another's entries (and 1GB entries, which skip the
// unified L2, survive a 4KB flood that churns L2 too).
TEST(TlbTest, PerSizeCapacityIsolation) {
  const TlbConfig config;
  Tlb tlb(config);
  tlb.Insert(0x1000, PageSize::k4K, 1, 0);
  tlb.Insert(3 * kBytes2M, PageSize::k2M, 2, 0);
  // Flood the 1GB array past its capacity (1 set x 8 ways): the oldest 1GB
  // entry is evicted, the 4KB and 2MB residents are untouched.
  const Addr gig_base = 16 * kBytes1G;
  const int gig_entries = config.l1_1g_sets * config.l1_1g_ways;
  for (int i = 0; i <= gig_entries; ++i) {
    tlb.Insert(gig_base + static_cast<Addr>(i) * kBytes1G, PageSize::k1G,
               100 + static_cast<Pfn>(i), 0);
  }
  EXPECT_EQ(tlb.Lookup(gig_base).level, TlbHitLevel::kMiss);
  EXPECT_EQ(tlb.Lookup(gig_base + static_cast<Addr>(gig_entries) * kBytes1G).level,
            TlbHitLevel::kL1);
  EXPECT_EQ(tlb.Lookup(0x1000).level, TlbHitLevel::kL1);
  EXPECT_EQ(tlb.Lookup(3 * kBytes2M).level, TlbHitLevel::kL1);

  // Now flood 4KB far past the L1-4K and unified-L2 capacity; the surviving
  // 1GB entries (own array, never L2-cached) must all still hit.
  const Addr flood_base = 64 * kBytes1G;
  const int flood = 4 * config.l2_sets * config.l2_ways;
  for (int i = 0; i < flood; ++i) {
    tlb.Insert(flood_base + static_cast<Addr>(i) * kBytes4K, PageSize::k4K,
               1000 + static_cast<Pfn>(i), 0);
  }
  for (int i = 1; i <= gig_entries; ++i) {
    EXPECT_EQ(tlb.Lookup(gig_base + static_cast<Addr>(i) * kBytes1G).level,
              TlbHitLevel::kL1)
        << "1G entry " << i << " evicted by a 4K flood";
  }
}

// InvalidateRange drops every overlapping translation of every size —
// including a 1GB page that merely straddles the range — and nothing else.
TEST(TlbTest, RangedInvalidationSpansPageSizes) {
  Tlb tlb(TlbConfig{});
  const Addr gig = kBytes1G;  // second gigabyte
  tlb.Insert(gig, PageSize::k1G, 10, 0);
  tlb.Insert(gig + 4 * kBytes2M, PageSize::k2M, 11, 0);
  tlb.Insert(gig + kBytes2M + 3 * kBytes4K, PageSize::k4K, 12, 0);
  tlb.Insert(gig + 0x1000, PageSize::k4K, 13, 0);       // below the range
  tlb.Insert(gig + 2 * kBytes1G, PageSize::k4K, 14, 0);  // far above it

  tlb.InvalidateRange(gig + kBytes2M, 8 * kBytes2M);

  EXPECT_EQ(tlb.Lookup(gig + kBytes2M + 3 * kBytes4K).level, TlbHitLevel::kMiss);
  EXPECT_EQ(tlb.Lookup(gig + 4 * kBytes2M + 7).level, TlbHitLevel::kMiss);
  // The 1GB page overlaps the range, so its translation goes too...
  EXPECT_EQ(tlb.Lookup(gig + 100 * kBytes2M).level, TlbHitLevel::kMiss);
  // ...which means the 4KB entry below the range now misses the 1GB backing
  // but keeps its own translation, and the distant entry is untouched.
  EXPECT_EQ(tlb.Lookup(gig + 0x1000).level, TlbHitLevel::kL1);
  EXPECT_EQ(tlb.Lookup(gig + 2 * kBytes1G).level, TlbHitLevel::kL1);
}

// Mixed-size churn with ranged shootdowns: the SWAR/rank-LRU TLB and the
// scalar model (tests/oracle/scalar_tlb.h) must stay lookup- and
// occupancy-identical. This extends perf_structures_test's churn to the 1GB
// array and InvalidateRange.
TEST(TlbTest, MixedSizeChurnMatchesScalarModel) {
  Tlb fast(TlbConfig{});
  ScalarTlb reference(TlbConfig{});
  Rng rng(20260808);
  const Addr space = 8 * kBytes1G;
  for (int i = 0; i < 50'000; ++i) {
    const std::uint64_t op = rng.Uniform(100);
    const Addr va = (rng.Uniform(space / kBytes4K)) * kBytes4K;
    if (op < 55) {
      const TlbLookup a = fast.Lookup(va);
      const TlbLookup b = reference.Lookup(va);
      ASSERT_EQ(a.level, b.level) << "step " << i;
      ASSERT_EQ(a.pfn, b.pfn) << "step " << i;
      ASSERT_EQ(a.node, b.node) << "step " << i;
      ASSERT_EQ(a.size, b.size) << "step " << i;
    } else if (op < 85) {
      const std::uint64_t pick = rng.Uniform(3);
      const PageSize size = pick == 0   ? PageSize::k4K
                            : pick == 1 ? PageSize::k2M
                                        : PageSize::k1G;
      const Pfn pfn = rng.Uniform(1u << 20);
      const int node = static_cast<int>(rng.Uniform(16));
      fast.Insert(va, size, pfn, node);
      reference.Insert(va, size, pfn, node);
    } else if (op < 95) {
      const std::uint64_t pick = rng.Uniform(3);
      const PageSize size = pick == 0   ? PageSize::k4K
                            : pick == 1 ? PageSize::k2M
                                        : PageSize::k1G;
      fast.InvalidatePage(va, size);
      reference.InvalidatePage(va, size);
    } else {
      const std::uint64_t bytes = (1 + rng.Uniform(1024)) * kBytes2M;
      fast.InvalidateRange(va, bytes);
      reference.InvalidateRange(va, bytes);
    }
    ASSERT_EQ(fast.DebugOccupancy(), reference.DebugOccupancy()) << "step " << i;
  }
}

// The summary words hold one byte per way, so a geometry wider than 8 ways
// (or an empty array) is rejected outright rather than simulated wrongly.
TEST(TlbTest, RejectsArraysWiderThanEightWays) {
  TlbConfig nine;
  nine.l2_ways = 9;
  EXPECT_THROW(Tlb{nine}, std::invalid_argument);
  TlbConfig wide_l1;
  wide_l1.l1_1g_ways = 9;
  EXPECT_THROW(Tlb{wide_l1}, std::invalid_argument);
  TlbConfig empty;
  empty.l1_4k_ways = 0;
  EXPECT_THROW(Tlb{empty}, std::invalid_argument);
  TlbConfig eight;
  eight.l1_4k_ways = 8;
  EXPECT_NO_THROW(Tlb{eight});
}

TEST(WalkerTest, MissProbabilityMonotonicInTableSize) {
  PageWalker walker(WalkerConfig{});
  double previous = 0.0;
  for (std::uint64_t bytes : {0ull, 4096ull, 1ull << 20, 1ull << 24, 1ull << 30}) {
    const double p = walker.PteMissProbability(bytes);
    EXPECT_GE(p, previous);
    EXPECT_LE(p, 1.0);
    previous = p;
  }
}

TEST(WalkerTest, LargePagesWalkFewerLevels) {
  PageWalker walker(WalkerConfig{});
  Rng rng_a(1);
  Rng rng_b(1);
  Cycles cost_4k = 0;
  Cycles cost_1g = 0;
  for (int i = 0; i < 1000; ++i) {
    cost_4k += walker.Walk(PageSize::k4K, 0, rng_a).cycles;
    cost_1g += walker.Walk(PageSize::k1G, 0, rng_b).cycles;
  }
  EXPECT_LT(cost_1g, cost_4k);
}

TEST(WalkerTest, L2MissRateMatchesProbability) {
  PageWalker walker(WalkerConfig{});
  Rng rng(9);
  const std::uint64_t table_bytes = 4ull << 20;
  const double p = walker.PteMissProbability(table_bytes);
  int misses = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    misses += walker.Walk(PageSize::k4K, table_bytes, rng).l2_miss ? 1 : 0;
  }
  EXPECT_NEAR(misses / static_cast<double>(n), p, 0.01);
}

TEST(MemCtrlTest, BaseLatencyUnderCapacity) {
  MemCtrlModel model(MemCtrlConfig{});
  const std::vector<std::uint64_t> balanced{100, 100, 100, 100};
  for (Cycles latency : model.Latencies(balanced, 1000)) {
    EXPECT_EQ(latency, model.config().base_latency);
  }
}

TEST(MemCtrlTest, OverloadedControllerSlowsDown) {
  MemCtrlModel model(MemCtrlConfig{});
  const std::vector<std::uint64_t> skewed{4000, 100, 100, 100};
  const auto latencies = model.Latencies(skewed, 1000);
  EXPECT_GT(latencies[0], model.config().base_latency);
  EXPECT_EQ(latencies[1], model.config().base_latency);
}

TEST(MemCtrlTest, LatencyCapsAtMaxMultiplier) {
  MemCtrlConfig config;
  MemCtrlModel model(config);
  const Cycles max_latency =
      static_cast<Cycles>(config.max_multiplier * static_cast<double>(config.base_latency));
  EXPECT_EQ(model.LatencyForUtilization(100.0), max_latency);
  // Paper: ~1000 cycles on an overloaded controller vs ~200 balanced.
  EXPECT_GE(max_latency, 1000u);
  EXPECT_EQ(model.LatencyForUtilization(0.5), config.base_latency);
}

TEST(MemCtrlTest, LatencyMonotonicInUtilization) {
  MemCtrlModel model(MemCtrlConfig{});
  Cycles previous = 0;
  for (double u : {0.5, 1.0, 1.2, 1.5, 2.0, 3.0}) {
    const Cycles latency = model.LatencyForUtilization(u);
    EXPECT_GE(latency, previous);
    previous = latency;
  }
}

TEST(InterconnectTest, LocalAccessHasNoHopCost) {
  const Topology topo = Topology::MachineA();
  InterconnectModel model(InterconnectConfig{}, topo);
  const std::vector<std::uint64_t> remote{10, 10, 10, 10};
  const auto latencies = model.RemoteLatencies(remote);
  for (int n = 0; n < topo.num_nodes(); ++n) {
    EXPECT_EQ(latencies[n][n], 0u);
  }
}

TEST(InterconnectTest, TwoHopsCostMore) {
  const Topology topo = Topology::MachineB();
  InterconnectModel model(InterconnectConfig{}, topo);
  const std::vector<std::uint64_t> remote(8, 10);
  const auto latencies = model.RemoteLatencies(remote);
  // Node 0 -> 1 is one hop; find a two-hop destination.
  int two_hop = -1;
  for (int n = 1; n < 8; ++n) {
    if (topo.Hops(0, n) == 2) {
      two_hop = n;
      break;
    }
  }
  ASSERT_NE(two_hop, -1);
  EXPECT_GT(latencies[0][two_hop], latencies[0][1]);
}

TEST(InterconnectTest, CongestedDestinationCostsMore) {
  const Topology topo = Topology::MachineA();
  InterconnectConfig config;
  InterconnectModel model(config, topo);
  const std::vector<std::uint64_t> skewed{1000, 0, 0, 0};
  const std::vector<std::uint64_t> balanced{250, 250, 250, 250};
  const auto hot = model.RemoteLatencies(skewed);
  const auto cool = model.RemoteLatencies(balanced);
  EXPECT_GT(hot[1][0], cool[1][0]);
  // And the factor is capped.
  EXPECT_LE(hot[1][0], static_cast<Cycles>(config.max_factor *
                                           static_cast<double>(config.per_hop) + 1));
}

TEST(IbsTest, SamplingRateMatchesInterval) {
  IbsEngine ibs(2, 4, /*interval=*/64, /*seed=*/1);
  int sampled = 0;
  for (int i = 0; i < 64000; ++i) {
    sampled += ibs.Observe(0x1000, i % 4, 0, 1, true) ? 1 : 0;
  }
  EXPECT_NEAR(sampled, 1000, 10);
}

TEST(IbsTest, SamplesLandInRequestingNodesStore) {
  IbsEngine ibs(2, 2, /*interval=*/1, /*seed=*/2);
  ibs.Observe(0xabc, 0, /*req_node=*/0, /*home_node=*/1, true);
  ibs.Observe(0xdef, 1, /*req_node=*/1, /*home_node=*/0, false);
  EXPECT_EQ(ibs.stores()[0].size(), 1u);
  EXPECT_EQ(ibs.stores()[1].size(), 1u);
  EXPECT_EQ(ibs.stores()[0][0].va, 0xabcu);
  EXPECT_TRUE(ibs.stores()[0][0].dram);
  EXPECT_FALSE(ibs.stores()[1][0].dram);
}

TEST(IbsTest, DrainMovesAndClears) {
  IbsEngine ibs(2, 1, /*interval=*/1, /*seed=*/3);
  for (int i = 0; i < 10; ++i) {
    ibs.Observe(static_cast<Addr>(i), 0, 0, 0, true);
  }
  EXPECT_EQ(ibs.Drain().size(), 10u);
  EXPECT_TRUE(ibs.Drain().empty());
  EXPECT_EQ(ibs.total_samples(), 10u);
}

TEST(CountersTest, AccumulateAndTotals) {
  EpochCounters counters(2, 2);
  counters.cores[0].dram_local = 10;
  counters.cores[0].dram_remote = 5;
  counters.cores[1].walk_l2_miss = 3;
  counters.cores[1].faults_4k = 2;
  counters.node_requests[0] = 12;
  EXPECT_EQ(counters.TotalDram(), 15u);
  EXPECT_EQ(counters.TotalLocal(), 10u);
  EXPECT_EQ(counters.TotalWalkL2Miss(), 3u);
  EXPECT_EQ(counters.TotalFaults(), 2u);
  CoreCounters sum;
  sum.Accumulate(counters.cores[0]);
  sum.Accumulate(counters.cores[1]);
  EXPECT_EQ(sum.dram_accesses(), 15u);
  counters.Reset();
  EXPECT_EQ(counters.TotalDram(), 0u);
  EXPECT_EQ(counters.node_requests[0], 0u);
}

}  // namespace
}  // namespace numalp
