// Correctness of the hot-path performance structures: the flat map against
// std::unordered_map; the incremental sample window, the vectorized TLB and
// the run-batched generator against their seed-algorithm models in
// tests/oracle/ (across splits / promotions / migrations, the window
// boundary, TLB churn and every workload pattern); ranged TLB shootdowns
// against per-page loops; the pooled page table; the translate cache; and
// golden pins of whole-engine runs across the jobs and profile axes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "src/common/flat_map.h"
#include "src/common/rng.h"
#include "src/core/config.h"
#include "src/core/runner.h"
#include "src/core/simulation.h"
#include "src/hw/tlb.h"
#include "src/metrics/numa_metrics.h"
#include "src/metrics/sample_window.h"
#include "src/topo/topology.h"
#include "src/vm/address_space.h"
#include "src/workloads/spec.h"
#include "src/workloads/workload.h"
#include "tests/golden_pin.h"
#include "tests/oracle/per_call_generator.h"
#include "tests/oracle/reaggregating_window.h"
#include "tests/oracle/scalar_tlb.h"

namespace numalp {
namespace {

VmaOptions MakeNoThpOpts() {
  VmaOptions opts;
  opts.thp_eligible = false;
  return opts;
}

// ---------------------------------------------------------------------------
// FlatMap vs std::unordered_map golden equivalence.
// ---------------------------------------------------------------------------

TEST(FlatMapTest, MirrorsUnorderedMapUnderRandomChurn) {
  FlatMap<Addr, std::uint64_t> flat;
  std::unordered_map<Addr, std::uint64_t> reference;
  Rng rng(7);
  for (int op = 0; op < 20000; ++op) {
    const Addr key = rng.Uniform(512) * kBytes4K;  // heavy collisions
    switch (rng.Uniform(4)) {
      case 0:
      case 1:
        flat[key] += op;
        reference[key] += static_cast<std::uint64_t>(op);
        break;
      case 2: {
        const bool flat_erased = flat.Erase(key);
        const bool ref_erased = reference.erase(key) > 0;
        EXPECT_EQ(flat_erased, ref_erased);
        break;
      }
      default: {
        const std::uint64_t* found = flat.Find(key);
        const auto it = reference.find(key);
        ASSERT_EQ(found != nullptr, it != reference.end());
        if (found != nullptr) {
          EXPECT_EQ(*found, it->second);
        }
      }
    }
  }
  ASSERT_EQ(flat.size(), reference.size());
  for (const auto& [key, value] : flat) {
    const auto it = reference.find(key);
    ASSERT_NE(it, reference.end());
    EXPECT_EQ(value, it->second);
  }
}

TEST(FlatMapTest, IterationOrderIsInsertionOrderWithoutErase) {
  FlatMap<Addr, int> map;
  const std::vector<Addr> keys = {0x9000, 0x1000, 0x5000, 0x3000};
  for (std::size_t i = 0; i < keys.size(); ++i) {
    map[keys[i]] = static_cast<int>(i);
  }
  std::size_t at = 0;
  for (const auto& [key, value] : map) {
    EXPECT_EQ(key, keys[at]);
    EXPECT_EQ(value, static_cast<int>(at));
    ++at;
  }
}

TEST(FlatSetTest, InsertEraseContains) {
  FlatSet<Addr> set;
  EXPECT_TRUE(set.Insert(42));
  EXPECT_FALSE(set.Insert(42));
  EXPECT_TRUE(set.Contains(42));
  EXPECT_TRUE(set.Erase(42));
  EXPECT_FALSE(set.Erase(42));
  EXPECT_TRUE(set.empty());
}

// Order-sensitive consumers iterate through ForEachPageSorted: equal
// contents must give one canonical visit sequence whatever the build
// history (this is the portability contract of DESIGN.md Section 7).
TEST(FlatMapTest, SortedIterationIsCanonicalAcrossHistories) {
  PageAggMap a;
  PageAggMap b;
  const std::vector<Addr> keys = {0x7000, 0x2000, 0x9000, 0x4000, 0x1000};
  for (const Addr key : keys) {
    a[key].total = key;
  }
  for (auto it = keys.rbegin(); it != keys.rend(); ++it) {
    b[*it].total = *it;
  }
  b[0xdead000].total = 1;  // erase churn perturbs b's dense order
  b.Erase(0xdead000);
  std::vector<Addr> visited_a;
  std::vector<Addr> visited_b;
  ForEachPageSorted(a, [&](Addr key, const PageAgg&) { visited_a.push_back(key); });
  ForEachPageSorted(b, [&](Addr key, const PageAgg&) { visited_b.push_back(key); });
  EXPECT_EQ(visited_a, visited_b);
  EXPECT_TRUE(std::is_sorted(visited_a.begin(), visited_a.end()));
}

// ---------------------------------------------------------------------------
// Incremental window vs the full re-aggregation model.
// ---------------------------------------------------------------------------

class SampleWindowTest : public ::testing::Test {
 protected:
  // 2GB per node: room for a 1GB page.
  SampleWindowTest() : topo_(Topology::Tiny(2 * kGiB)), phys_(topo_), as_(phys_, topo_, thp_) {}

  IbsSample Sample(Addr va, int core, int req_node, bool dram = true) {
    IbsSample s;
    s.va = va;
    s.core = static_cast<std::uint16_t>(core);
    s.req_node = static_cast<std::uint8_t>(req_node);
    s.home_node = 0;
    s.dram = dram;
    return s;
  }

  static void ExpectEqualAggregates(const PageAggMap& got, const PageAggMap& want) {
    ASSERT_EQ(got.size(), want.size());
    for (const auto& [base, agg] : want) {
      const PageAgg* found = got.Find(base);
      ASSERT_NE(found, nullptr) << "missing page " << std::hex << base;
      EXPECT_EQ(found->total, agg.total) << std::hex << base;
      EXPECT_EQ(found->dram, agg.dram) << std::hex << base;
      EXPECT_EQ(found->core_mask, agg.core_mask) << std::hex << base;
      EXPECT_EQ(found->home_node, agg.home_node) << std::hex << base;
      EXPECT_EQ(found->size, agg.size) << std::hex << base;
      EXPECT_EQ(found->req_node_counts, agg.req_node_counts) << std::hex << base;
    }
  }

  Topology topo_;
  PhysicalMemory phys_;
  ThpState thp_;
  AddressSpace as_;
};

// The fold is kept up to date from a delta journal while the address
// space's generation holds still, and rebuilt in full when it moves; both
// paths must equal full re-aggregation after every kind of mapping change,
// including a munmap whose samples outlive it (orphans) and a later fault
// that maps one of them again without bumping the generation. The 4KB range
// queries (split-time placement, state pruning) are held to the model too.
TEST_F(SampleWindowTest, IncrementalMatchesReaggregationAcrossMappingChurn) {
  thp_.alloc_enabled = true;
  const Addr big = as_.MmapAnon(8 * kMiB, {});
  for (Addr offset = 0; offset < 8 * kMiB; offset += kBytes2M) {
    as_.Touch(big + offset, 0);  // four 2M pages
  }
  const Addr small = as_.MmapAnon(kMiB, MakeNoThpOpts());
  for (Addr offset = 0; offset < kMiB; offset += kBytes4K) {
    as_.Touch(small + offset, static_cast<int>((offset >> kShift4K) % 2));
  }
  VmaOptions huge_opts;
  huge_opts.explicit_page = PageSize::k1G;
  const Addr huge = as_.MmapAnon(kBytes1G, huge_opts);
  ASSERT_EQ(as_.Touch(huge, 1).mapping.size, PageSize::k1G);
  const Addr churn = as_.MmapAnon(kMiB, MakeNoThpOpts());
  for (Addr offset = 0; offset < kMiB; offset += kBytes4K) {
    as_.Touch(churn + offset, 0);
  }

  SampleWindow fast(/*max_epochs=*/4);
  ReaggregatingWindow model(/*max_epochs=*/4);
  std::uint64_t folds = 0;
  const auto expect_equal_folds = [&] {
    ++folds;
    ExpectEqualAggregates(fast.FoldToMapping(as_), model.FoldToMapping(as_));
  };
  // Ranges of every granularity over every region, plus unsampled space.
  const std::vector<std::pair<Addr, std::uint64_t>> ranges = {
      {big, kBytes2M},           {big + kBytes2M, kBytes2M}, {big, 8 * kMiB},
      {small, kBytes4K},         {small, kMiB},              {huge, kBytes2M},
      {huge, kBytes1G},          {churn, kMiB / 2},          {churn + kMiB / 2, kMiB / 2},
      {churn + 5 * kBytes4K, kBytes4K},                      {huge + kBytes1G, kBytes1G}};
  const auto expect_equal_ranges = [&] {
    for (const auto& [base, bytes] : ranges) {
      EXPECT_EQ(fast.MajorityReqNodeIn(base, bytes), model.MajorityReqNodeIn(base, bytes))
          << std::hex << base << "+" << bytes;
      EXPECT_EQ(fast.MajorityReqNodeIn(base, bytes, 8), model.MajorityReqNodeIn(base, bytes, 8))
          << std::hex << base << "+" << bytes;
      EXPECT_EQ(fast.HasSamplesIn(base, bytes), model.HasSamplesIn(base, bytes))
          << std::hex << base << "+" << bytes;
    }
  };
  // Pages in the half of the churn region that gets unmapped: `stale` ones
  // are sampled every epoch, so they are in the window as orphans; `late` is
  // first sampled after the munmap. Random churn samples keep to the other
  // half. The per-epoch count varies so an epoch's adds and retirements do
  // not cancel.
  const std::vector<Addr> stale = {churn + 5 * kBytes4K, churn + 7 * kBytes4K,
                                   churn + 9 * kBytes4K, churn + 11 * kBytes4K};
  const Addr late = churn + 13 * kBytes4K;
  Rng rng(99);
  for (int epoch = 0; epoch < 16; ++epoch) {
    std::vector<IbsSample> samples;
    for (int i = 0; i <= epoch % 3; ++i) {
      for (const Addr va : stale) {
        samples.push_back(Sample(va + 64, epoch % 3, epoch % 2));
      }
      if (epoch >= 10) {
        samples.push_back(Sample(late, epoch % 3, 1));
      }
    }
    for (int i = 0; i < 200; ++i) {
      Addr va = 0;
      switch (rng.Uniform(6)) {
        case 0:
        case 1:
        case 2:
          va = big + rng.Uniform(8 * kMiB);
          break;
        case 3:
          va = small + rng.Uniform(kMiB);
          break;
        case 4:
          // Sparse over the 1GB page, plus one hot 2MB stretch so its 4KB
          // pieces repeat and retire.
          va = huge + (rng.Uniform(2) == 0 ? rng.Uniform(kBytes1G) : rng.Uniform(kBytes2M));
          break;
        default:
          va = churn + kMiB / 2 + rng.Uniform(kMiB / 2);
      }
      samples.push_back(Sample(va, static_cast<int>(rng.Uniform(4)),
                               static_cast<int>(rng.Uniform(2)), rng.Uniform(4) != 0));
    }
    fast.PushEpoch(samples);
    model.PushEpoch(samples);
    expect_equal_ranges();

    // Mutate mappings the way the policies do: the incremental aggregate
    // must track re-bucketing (split), merging (promote) and home changes
    // (migrate) without touching the window itself.
    if (epoch == 2) {
      // The engine's post-split re-fold: fold, split, fold again within
      // one epoch.
      expect_equal_folds();
      ASSERT_TRUE(as_.SplitLargePage(big).has_value());
    }
    if (epoch == 4) {
      as_.MigratePage(big + 2 * kBytes2M, 1);
      as_.MigratePage(small, 1);
    }
    if (epoch == 6) {
      ASSERT_TRUE(as_.PromoteWindow(big, 1).has_value());
    }
    if (epoch == 8) {
      as_.MigratePage(big + kBytes4K * 3, 0);  // no-op unless still 4K-mapped
    }
    if (epoch == 9) {
      // munmap of half the churn region (its VMA stays): those samples stay
      // in the window but translate nowhere, so the full fold keeps them as
      // orphans.
      as_.MunmapRange(churn, kMiB / 2);
    }
    if (epoch == 10) {
      // `late` is a new untranslatable key on the journal path. Then faults
      // map two sampled pages again — no generation bump — and a fold with
      // no push in between must pick their whole aggregates back up.
      const std::uint64_t generation = as_.generation();
      expect_equal_folds();
      as_.Touch(stale[0], 1);
      as_.Touch(stale[1], 0);
      ASSERT_EQ(as_.generation(), generation);
      expect_equal_folds();
    }
    if (epoch == 11) {
      // Orphans re-faulted after a push: their journal entries since the
      // last fold are already inside the aggregates they re-enter with.
      as_.Touch(stale[2], 0);
      as_.Touch(stale[3], 1);
      as_.Touch(late, 1);  // an orphan first seen on the journal path
    }
    if (epoch == 12) {
      ASSERT_TRUE(as_.SplitLargePage(huge).has_value());  // 1GB -> 2MB pieces
    }

    expect_equal_folds();
    EXPECT_EQ(fast.epochs(), model.epochs());
    if (epoch % 3 == 0) {
      expect_equal_folds();  // a fold with no push in between
    }
  }
  // Most folds replayed the journal; only the first one and those after a
  // generation change (split, migrate, promote, munmap) started over.
  EXPECT_GE(fast.full_folds(), 6u);
  EXPECT_LT(fast.full_folds() * 2, folds);
}

// The satellite regression: retiring the oldest epoch at the window
// boundary (the seed's erase(begin())) must leave exactly the last
// `max_epochs` epochs aggregated — counts and sharer masks both.
TEST_F(SampleWindowTest, WindowBoundaryRetiresOldestEpoch) {
  const Addr base = as_.MmapAnon(kMiB, MakeNoThpOpts());
  as_.Touch(base, 0);
  as_.Touch(base + kBytes4K, 0);

  SampleWindow window(/*max_epochs=*/3);
  // Epoch 0 is the only epoch where core 7 touches page 0.
  window.PushEpoch({Sample(base, /*core=*/7, 0), Sample(base + kBytes4K, 1, 1)});
  window.PushEpoch({Sample(base, 0, 0)});
  window.PushEpoch({Sample(base, 1, 0)});
  {
    const PageAggMap folded = window.FoldToMapping(as_);
    const PageAgg* page0 = folded.Find(base);
    ASSERT_NE(page0, nullptr);
    EXPECT_EQ(page0->total, 3u);
    EXPECT_EQ(page0->core_mask, (1ull << 7) | (1ull << 0) | (1ull << 1));
    EXPECT_NE(folded.Find(base + kBytes4K), nullptr);
  }
  // Fourth push: epoch 0 retires; core 7's bit and page 1 must vanish.
  window.PushEpoch({Sample(base, 0, 0)});
  const PageAggMap folded = window.FoldToMapping(as_);
  EXPECT_EQ(window.epochs(), 3u);
  const PageAgg* page0 = folded.Find(base);
  ASSERT_NE(page0, nullptr);
  EXPECT_EQ(page0->total, 3u);
  EXPECT_EQ(page0->core_mask, (1ull << 0) | (1ull << 1));
  EXPECT_EQ(folded.Find(base + kBytes4K), nullptr);
  EXPECT_EQ(window.distinct_pages(), 1u);
}

// Full re-aggregation is a test-side model, not an engine mode: the one
// constructor that still takes the old flag accepts only false.
TEST_F(SampleWindowTest, ReferenceFlagIsRejected) {
  EXPECT_THROW(SampleWindow(4, true, ProfileMode::kExact, {}), std::invalid_argument);
  SampleWindow window(4, false, ProfileMode::kSketch, {});
  EXPECT_EQ(window.profile_mode(), ProfileMode::kSketch);
}

// ---------------------------------------------------------------------------
// Vectorized TLB vs the scalar model: lookups, O(1) victim selection and
// live-entry bookkeeping must be bit-identical under churn.
// ---------------------------------------------------------------------------

// Drives both TLBs through an identical operation stream — lookups with
// refill (the engine's miss->insert pattern), precise and ranged
// invalidations, flushes — and pins every observable: hit levels, payloads,
// and the live counters that drive probe-skip decisions. Eviction choices
// are covered transitively: a divergent victim would surface as a divergent
// hit/miss within a few operations on these small arrays.
TEST(TlbEngineIdentityTest, FastMatchesScalarModelUnderChurn) {
  const TlbConfig config;
  Tlb fast(config);
  ScalarTlb model(config);
  Rng rng(1234);
  // A working set far larger than the arrays, mixing page sizes, so sets
  // stay full and the LRU victim path runs constantly.
  const auto random_va = [&](PageSize& size) {
    const std::uint64_t kind = rng.Uniform(8);
    if (kind < 5) {
      size = PageSize::k4K;
      return (0x40000000ull + rng.Uniform(4096) * kBytes4K) + rng.Uniform(64) * 64;
    }
    if (kind < 7) {
      size = PageSize::k2M;
      return (0x80000000ull + rng.Uniform(128) * kBytes2M) + rng.Uniform(512) * 4096;
    }
    size = PageSize::k1G;
    return (0x100000000ull + rng.Uniform(16) * kBytes1G) + rng.Uniform(1024) * 4096;
  };
  for (int op = 0; op < 200000; ++op) {
    const std::uint64_t action = rng.Uniform(100);
    if (action < 90) {
      PageSize size = PageSize::k4K;
      const Addr va = random_va(size);
      const TlbLookup a = fast.Lookup(va);
      const TlbLookup b = model.Lookup(va);
      ASSERT_EQ(a.level, b.level) << "op " << op << " va " << std::hex << va;
      if (a.level != TlbHitLevel::kMiss) {
        ASSERT_EQ(a.pfn, b.pfn) << "op " << op;
        ASSERT_EQ(a.node, b.node) << "op " << op;
        ASSERT_EQ(a.size, b.size) << "op " << op;
      } else {
        // Miss -> walk -> insert, as the engine does.
        const Addr page = AlignDown(va, BytesOf(size));
        const Pfn pfn = page >> kShift4K;
        const int node = static_cast<int>(rng.Uniform(4));
        fast.Insert(page, size, pfn, node);
        model.Insert(page, size, pfn, node);
      }
    } else if (action < 95) {
      PageSize size = PageSize::k4K;
      const Addr va = random_va(size);
      const Addr page = AlignDown(va, BytesOf(size));
      fast.InvalidatePage(page, size);
      model.InvalidatePage(page, size);
    } else if (action < 99) {
      const Addr base = 0x40000000ull + rng.Uniform(8) * kBytes2M;
      fast.InvalidateRange(base, kBytes2M);
      model.InvalidateRange(base, kBytes2M);
    } else {
      fast.FlushAll();
      model.FlushAll();
    }
    ASSERT_EQ(fast.DebugOccupancy(), model.DebugOccupancy()) << "op " << op;
  }
  EXPECT_EQ(fast.lookups(), model.lookups());
}

// The live-entry audit regression: invalidations (precise and ranged) must
// retire exactly the entries they hit from the probe-skip counters, in the
// TLB and its model alike — a stale count would make Lookup skip (or probe)
// an array the model does not, which the churn test above would surface as
// a divergent hit. This pins the counters directly on a hand-built sequence.
template <typename AnyTlb>
void CheckLiveCountersRetire() {
  const TlbConfig config;
  AnyTlb tlb(config);
  tlb.Insert(0x40000000, PageSize::k4K, 1, 0);
  tlb.Insert(0x40001000, PageSize::k4K, 2, 1);
  tlb.Insert(0x80000000, PageSize::k2M, 3, 0);
  TlbOccupancy occ = tlb.DebugOccupancy();
  EXPECT_EQ(occ.live_4k, 2u);
  EXPECT_EQ(occ.live_2m, 1u);
  EXPECT_EQ(occ.l2_parity_4k, 2u);
  EXPECT_EQ(occ.l2_parity_2m, 1u);
  tlb.InvalidatePage(0x40000000, PageSize::k4K);
  occ = tlb.DebugOccupancy();
  EXPECT_EQ(occ.live_4k, 1u);
  EXPECT_EQ(occ.l2_parity_4k, 1u);
  // Ranged shootdown across the remaining 4K entry and the 2M page.
  tlb.InvalidateRange(0x40000000, kBytes2M);
  tlb.InvalidateRange(0x80000000, kBytes2M);
  occ = tlb.DebugOccupancy();
  EXPECT_EQ(occ.live_4k, 0u);
  EXPECT_EQ(occ.live_2m, 0u);
  EXPECT_EQ(occ.l2_parity_4k, 0u);
  EXPECT_EQ(occ.l2_parity_2m, 0u);
  // Re-insert after total invalidation: counters must come back exact.
  tlb.Insert(0x40000000, PageSize::k4K, 1, 0);
  EXPECT_EQ(tlb.DebugOccupancy().live_4k, 1u);
  tlb.FlushAll();
  EXPECT_EQ(tlb.DebugOccupancy(), TlbOccupancy{});
}

TEST(TlbEngineIdentityTest, LiveCountersRetireAcrossInvalidatePaths) {
  CheckLiveCountersRetire<Tlb>();
  CheckLiveCountersRetire<ScalarTlb>();
}

// ---------------------------------------------------------------------------
// Batched access generation vs the per-call model.
// ---------------------------------------------------------------------------

// Every workload pattern (uniform, zipf with and without block shuffle, hot
// chunks, partitioned, sequential, incremental) plus the setup and barrier
// phases must emit byte-identical access streams from the run-batched
// generator and the seed's one-call-per-access generator.
TEST(BatchedGenerationTest, MatchesPerCallModelAcrossSuite) {
  const Topology topo = Topology::MachineA();
  for (const BenchmarkId id : {BenchmarkId::kCG_D, BenchmarkId::kUA_B, BenchmarkId::kSSCA,
                               BenchmarkId::kWrmem, BenchmarkId::kSPECjbb,
                               BenchmarkId::kLU_B}) {
    const WorkloadSpec spec = MakeWorkloadSpec(id, topo);
    PhysicalMemory phys_fast(topo);
    ThpState thp_fast;
    AddressSpace as_fast(phys_fast, topo, thp_fast);
    Workload fast(spec, as_fast, topo.num_cores(), 99);
    PhysicalMemory phys_ref(topo);
    ThpState thp_ref;
    AddressSpace as_ref(phys_ref, topo, thp_ref);
    Workload model_state(spec, as_ref, topo.num_cores(), 99);
    PerCallGenerator model(model_state);

    std::vector<WorkloadAccess> batch_fast;
    std::vector<WorkloadAccess> batch_model;
    for (int epoch = 0; epoch < 12; ++epoch) {
      fast.BeginEpoch();
      model.BeginEpoch();
      for (int t = 0; t < topo.num_cores(); ++t) {
        fast.FillBatch(t, 512, batch_fast);
        model.FillBatch(t, 512, batch_model);
        ASSERT_EQ(batch_fast.size(), batch_model.size());
        for (std::size_t i = 0; i < batch_fast.size(); ++i) {
          ASSERT_EQ(batch_fast[i].va, batch_model[i].va)
              << NameOf(id) << " epoch " << epoch << " thread " << t << " access " << i;
          ASSERT_EQ(batch_fast[i].region, batch_model[i].region);
          ASSERT_EQ(batch_fast[i].write, batch_model[i].write);
        }
      }
      ASSERT_EQ(fast.SetupDone(), model.SetupDone());
    }
  }
}

// ---------------------------------------------------------------------------
// Ranged TLB shootdown vs the per-page loop it replaces.
// ---------------------------------------------------------------------------

TEST(TlbRangeTest, InvalidateRangeMatchesPerPageLoop) {
  const TlbConfig config;
  Tlb ranged(config);
  Tlb per_page(config);
  const Addr window = 0x40000000;  // 2M-aligned
  // Populate both TLBs identically: the window's 512 4K translations plus
  // neighbors on both sides and an unrelated 2M entry.
  const auto fill = [&](Tlb& tlb) {
    for (Addr p = window - 4 * kBytes4K; p < window + kBytes2M + 4 * kBytes4K;
         p += kBytes4K) {
      tlb.Insert(p, PageSize::k4K, p >> kShift4K, 0);
    }
    tlb.Insert(window + 8 * kBytes2M, PageSize::k2M, 12345, 1);
  };
  fill(ranged);
  fill(per_page);
  ranged.InvalidateRange(window, kBytes2M);
  for (Addr p = window; p < window + kBytes2M; p += kBytes4K) {
    per_page.InvalidatePage(p, PageSize::k4K);
  }
  // Probe both with the same sequence; every lookup must agree.
  for (Addr p = window - 4 * kBytes4K; p < window + kBytes2M + 4 * kBytes4K;
       p += kBytes4K) {
    const TlbLookup a = ranged.Lookup(p);
    const TlbLookup b = per_page.Lookup(p);
    EXPECT_EQ(a.level, b.level) << std::hex << p;
    if (a.level != TlbHitLevel::kMiss) {
      EXPECT_EQ(a.pfn, b.pfn);
    }
  }
  EXPECT_EQ(ranged.Lookup(window + 8 * kBytes2M).level,
            per_page.Lookup(window + 8 * kBytes2M).level);
}

// ---------------------------------------------------------------------------
// Pooled page table and translate cache.
// ---------------------------------------------------------------------------

TEST(PageTablePoolTest, SplitPromoteChurnReusesPoolSlots) {
  const Topology topo = Topology::Tiny(256 * kMiB);
  PhysicalMemory phys(topo);
  ThpState thp;
  thp.alloc_enabled = true;
  AddressSpace as(phys, topo, thp);
  const Addr base = as.MmapAnon(4 * kMiB, {});
  as.Touch(base, 0);
  const std::uint64_t tables_before = as.page_table().num_tables();
  for (int round = 0; round < 8; ++round) {
    ASSERT_TRUE(as.SplitLargePage(base).has_value());
    ASSERT_TRUE(as.PromoteWindow(base, 0).has_value());
  }
  // Every split's PT came from (and went back to) the pool free list: no
  // net growth in live tables, and capacity stopped growing after round 1.
  EXPECT_EQ(as.page_table().num_tables(), tables_before);
  EXPECT_GE(as.page_table().pool_free(), 1u);
  EXPECT_LE(as.page_table().pool_capacity(), tables_before + 2);
}

TEST(TranslateCacheTest, CacheHitsAreInvalidatedByMutations) {
  const Topology topo = Topology::Tiny(256 * kMiB);
  PhysicalMemory phys(topo);
  ThpState thp;
  AddressSpace as(phys, topo, thp);
  const Addr base = as.MmapAnon(kMiB, MakeNoThpOpts());
  as.Touch(base, 0);
  AddressSpace::TranslationCache cache;
  const auto first = as.Translate(base + 100, cache);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->node, 0);
  // Cached repeat: same mapping.
  const auto repeat = as.Translate(base + 200, cache);
  ASSERT_TRUE(repeat.has_value());
  EXPECT_EQ(repeat->pfn, first->pfn);
  // A migration must invalidate the cached line, not serve the stale node.
  ASSERT_TRUE(as.MigratePage(base, 1).has_value());
  const auto after = as.Translate(base + 100, cache);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->node, 1);
  EXPECT_EQ(after->node, as.Translate(base + 100)->node);
}

// ---------------------------------------------------------------------------
// Whole-engine golden pins and the jobs / profile identity axes.
// ---------------------------------------------------------------------------

void ExpectIdenticalRuns(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  EXPECT_EQ(a.measured_cycles, b.measured_cycles);
  EXPECT_EQ(a.epochs, b.epochs);
  EXPECT_EQ(a.total_migrations, b.total_migrations);
  EXPECT_EQ(a.total_splits, b.total_splits);
  EXPECT_EQ(a.total_promotions, b.total_promotions);
  EXPECT_EQ(a.total_policy_overhead, b.total_policy_overhead);
  EXPECT_EQ(a.totals.accesses, b.totals.accesses);
  EXPECT_EQ(a.totals.dram_local, b.totals.dram_local);
  EXPECT_EQ(a.totals.dram_remote, b.totals.dram_remote);
  EXPECT_EQ(a.totals.walk_l2_miss, b.totals.walk_l2_miss);
  EXPECT_EQ(a.node_request_totals, b.node_request_totals);
  EXPECT_EQ(a.final_thp_coverage, b.final_thp_coverage);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t e = 0; e < a.history.size(); ++e) {
    EXPECT_EQ(a.history[e].wall, b.history[e].wall) << "epoch " << e;
    EXPECT_EQ(a.history[e].migrations, b.history[e].migrations) << "epoch " << e;
    EXPECT_EQ(a.history[e].splits, b.history[e].splits) << "epoch " << e;
    EXPECT_EQ(a.history[e].promotions, b.history[e].promotions) << "epoch " << e;
    EXPECT_EQ(a.history[e].metrics.lar_pct, b.history[e].metrics.lar_pct) << "epoch " << e;
    EXPECT_EQ(a.history[e].est_split_lar, b.history[e].est_split_lar) << "epoch " << e;
  }
  // Cumulative page aggregates (drives PAMUP/NHP/PSP reporting).
  ASSERT_EQ(a.cumulative_pages.size(), b.cumulative_pages.size());
  EXPECT_EQ(a.PamupPct(), b.PamupPct());
  EXPECT_EQ(a.Nhp(), b.Nhp());
  EXPECT_EQ(a.PspPct(), b.PspPct());
}

// Golden pin of the whole engine on the paper machine: CG.D drives the
// hot-page path (splits + interleave + promotions); UA.B drives the
// false-sharing path (shared demotions, split-time placement from the
// window's 4KB aggregates, hinting-fault migration, and the batched
// migration accounting). tests/golden/paper_cells.txt was recorded where the
// seed-algorithm engine still ran beside the fast one and both agreed.
TEST(GoldenPinTest, PaperCellsMatchGolden) {
  const Topology topo = Topology::MachineA();
  std::string rendered;
  for (const BenchmarkId bench : {BenchmarkId::kCG_D, BenchmarkId::kUA_B}) {
    for (const PolicyKind kind :
         {PolicyKind::kThp, PolicyKind::kCarrefour2M, PolicyKind::kCarrefourLp,
          PolicyKind::kConservativeOnly}) {
      SimConfig sim;
      sim.accesses_per_thread_per_epoch = 1024;
      sim.max_epochs = 25;
      WorkloadSpec spec = MakeWorkloadSpec(bench, topo);
      spec.steady_accesses_per_thread = 16'000;
      Simulation simulation(topo, spec, MakePolicyConfig(kind), sim);
      golden::RenderRun(std::string(NameOf(bench)) + "/" + std::string(NameOf(kind)),
                        simulation.Run(), &rendered);
    }
  }
  golden::ExpectMatchesGolden("paper_cells", rendered);
}

// Sketch profile mode at the default admission threshold must reproduce
// exact mode bit for bit on every decision-bearing surface (DESIGN.md
// Section 11's identity argument: the epoch presketch admits every page on
// its first sample, so the exact aggregate sees the identical sample stream
// and the filter/sketch are never consulted). Same cells as the engine
// identity matrix — CG.D's hot-page churn and UA.B's demotion/hinting path —
// plus absurdly small sketch knobs on a second pass, which must not matter
// at threshold 1.
TEST(EngineIdentityTest, SketchProfileModeIsBitIdentical) {
  const Topology topo = Topology::MachineA();
  for (const BenchmarkId bench : {BenchmarkId::kCG_D, BenchmarkId::kUA_B}) {
    for (const PolicyKind kind :
         {PolicyKind::kThp, PolicyKind::kCarrefour2M, PolicyKind::kCarrefourLp,
          PolicyKind::kConservativeOnly}) {
      SimConfig sim;
      sim.accesses_per_thread_per_epoch = 1024;
      sim.max_epochs = 25;
      WorkloadSpec spec = MakeWorkloadSpec(bench, topo);
      spec.steady_accesses_per_thread = 16'000;

      Simulation exact(topo, spec, MakePolicyConfig(kind), sim);
      const RunResult exact_result = exact.Run();

      SimConfig sketch_sim = sim;
      sketch_sim.profile_mode = ProfileMode::kSketch;
      Simulation sketch(topo, spec, MakePolicyConfig(kind), sketch_sim);
      ExpectIdenticalRuns(exact_result, sketch.Run());

      SimConfig tiny_sim = sketch_sim;
      tiny_sim.profile_sketch.filter_capacity = 16;
      tiny_sim.profile_sketch.sketch_width = 16;
      Simulation tiny(topo, spec, MakePolicyConfig(kind), tiny_sim);
      ExpectIdenticalRuns(exact_result, tiny.Run());
    }
  }
}

// Datacenter machines and explicitly-1GB-backed workloads ride the same
// identity invariants as the paper machines (DESIGN.md Section 13.2's
// argument: on all-CPU machines the cpu-node refactor is the identity, and
// on far-memory machines every policy draw still happens at the same serial
// sites). Each cell is pinned to tests/golden/datacenter_cells.txt and held
// across profile mode (exact vs sketch).
TEST(EngineIdentityTest, DatacenterAndOneGigCellsAreBitIdentical) {
  struct Cell {
    Topology topo;
    BenchmarkId bench;
    bool one_gig;
  };
  const std::vector<Cell> cells = {
      {Topology::Epyc8(), BenchmarkId::kCG_D, false},
      {Topology::Snc16(), BenchmarkId::kUA_B, false},
      {Topology::Cxl(), BenchmarkId::kCG_D, false},
      // The vlp_1gb configuration: machine B at memory scale 8 so a node
      // holds several 1GB frames, every region explicitly 1GB-backed.
      {Topology::MachineB(/*memory_scale=*/8), BenchmarkId::kSSCA, true},
  };
  std::string rendered;
  for (const Cell& cell : cells) {
    SimConfig sim;
    sim.accesses_per_thread_per_epoch = 1024;
    sim.max_epochs = 25;
    WorkloadSpec spec = MakeWorkloadSpec(cell.bench, cell.topo);
    spec.steady_accesses_per_thread = 16'000;
    if (cell.one_gig) {
      for (auto& region : spec.regions) {
        region.explicit_page = PageSize::k1G;
      }
    }
    const PolicyConfig policy = MakePolicyConfig(PolicyKind::kCarrefourLp);

    Simulation golden_run(cell.topo, spec, policy, sim);
    const RunResult golden_result = golden_run.Run();
    golden::RenderRun(cell.topo.name() + "/" + std::string(NameOf(cell.bench)) +
                          (cell.one_gig ? "/1G" : ""),
                      golden_result, &rendered);

    SimConfig sketch_sim = sim;
    sketch_sim.profile_mode = ProfileMode::kSketch;
    Simulation sketch(cell.topo, spec, policy, sketch_sim);
    ExpectIdenticalRuns(golden_result, sketch.Run());
  }
  golden::ExpectMatchesGolden("datacenter_cells", rendered);
}

// A small grid at jobs={1,8} x profile={exact,sketch} must produce one
// identical result set — parallelism between cells never changes results,
// and neither does the profiling metadata representation — and that set is
// pinned to tests/golden/jobs_grid.txt.
TEST(EngineIdentityTest, JobsAndProfileAxesAreBitIdentical) {
  ExperimentGrid grid;
  grid.machines = {Topology::MachineA()};
  grid.workloads = {BenchmarkId::kCG_D, BenchmarkId::kUA_B};
  grid.policies = {PolicyKind::kCarrefourLp};
  grid.num_seeds = 2;
  grid.sim.accesses_per_thread_per_epoch = 512;
  grid.sim.max_epochs = 8;

  std::vector<GridResults> all;
  for (const ProfileMode mode : {ProfileMode::kExact, ProfileMode::kSketch}) {
    for (const int jobs : {1, 8}) {
      ExperimentGrid g = grid;
      g.sim.profile_mode = mode;
      const ExperimentRunner runner(jobs);
      all.push_back(RunGrid(g, runner));
    }
  }
  const GridResults& golden = all.front();
  std::string rendered;
  for (int w = 0; w < golden.num_workloads(); ++w) {
    for (int s = 0; s < golden.num_seeds(); ++s) {
      const std::string cell = std::string(NameOf(grid.workloads[static_cast<std::size_t>(w)])) +
                               "/seed" + std::to_string(s);
      golden::RenderRun(cell + "/baseline", golden.Baseline(0, w, s), &rendered);
      golden::RenderRun(cell + "/Carrefour-LP", golden.At(0, w, 0, s), &rendered);
    }
  }
  golden::ExpectMatchesGolden("jobs_grid", rendered);
  for (std::size_t v = 1; v < all.size(); ++v) {
    for (int w = 0; w < golden.num_workloads(); ++w) {
      for (int s = 0; s < golden.num_seeds(); ++s) {
        const RunResult& want = golden.At(0, w, 0, s);
        const RunResult& got = all[v].At(0, w, 0, s);
        EXPECT_EQ(got.total_cycles, want.total_cycles)
            << "variant " << v << " workload " << w << " seed " << s;
        EXPECT_EQ(got.measured_cycles, want.measured_cycles);
        EXPECT_EQ(got.total_migrations, want.total_migrations);
        EXPECT_EQ(got.total_splits, want.total_splits);
        EXPECT_EQ(got.totals.dram_local, want.totals.dram_local);
        const RunResult& base_want = golden.Baseline(0, w, s);
        const RunResult& base_got = all[v].Baseline(0, w, s);
        EXPECT_EQ(base_got.total_cycles, base_want.total_cycles);
      }
    }
  }
}

}  // namespace
}  // namespace numalp
