// Property-test battery for the sketch-backed profiling front end
// (DESIGN.md Section 11): the cuckoo fingerprint filter and count-min
// sketch against std::unordered_map oracles — zero false negatives, bounded
// false-positive rate across fill factors, deletion that genuinely reclaims
// slots — and the SampleWindow admission pipeline built on them: sketch
// mode at the default threshold is bit-identical to exact mode (the pinned
// contract), admitted aggregates stay integer-exact at higher thresholds,
// and a deliberately undersized filter degrades gracefully (counted
// admission misses, healed aggregates, no crash) while bounding state on a
// sparse footprint; batched admission equals admitting one page at a time,
// and the journaled fold equals a full fold, on the clamping paths too.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <map>
#include <unordered_map>
#include <vector>

#include "src/common/count_sketch.h"
#include "src/common/cuckoo_filter.h"
#include "src/common/rng.h"
#include "src/core/config.h"
#include "src/core/simulation.h"
#include "src/metrics/sample_window.h"
#include "src/topo/topology.h"
#include "src/vm/address_space.h"
#include "src/workloads/spec.h"

namespace numalp {
namespace {

// ---------------------------------------------------------------------------
// CuckooFilter vs a multiset oracle.
// ---------------------------------------------------------------------------

// Successful inserts must never be forgotten (a false negative would make
// the sample window leak a live sample's slot), at any fill factor. False
// positives are allowed but must stay within the fingerprint budget: with
// 16-bit fingerprints and 8 candidate slots per probe the theoretical rate
// is ~8 * 2^-16 ~ 0.012%; the 1% assertion leaves two orders of magnitude
// of slack while still catching a broken hash split (fingerprint and bucket
// index drawing on the same bits aliases everything).
TEST(CuckooFilterTest, ZeroFalseNegativesAndBoundedFalsePositives) {
  Rng rng(271828);
  for (const double fill : {0.25, 0.5, 0.75, 0.95}) {
    const std::size_t capacity = 4096;
    CuckooFilter filter(capacity);
    ASSERT_EQ(filter.slot_count(), capacity);
    std::unordered_map<std::uint64_t, int> oracle;
    const auto target = static_cast<std::size_t>(fill * static_cast<double>(capacity));
    while (filter.size() < target) {
      // Mostly unique keys with some repeats, exercising multiset slots.
      const std::uint64_t key = (rng.Uniform(1u << 20)) * kBytes4K;
      if (filter.Insert(key)) {
        oracle[key] += 1;
      }
    }
    for (const auto& [key, count] : oracle) {
      EXPECT_TRUE(filter.Contains(key)) << "fill " << fill << " key " << std::hex << key;
    }
    int false_positives = 0;
    const int probes = 20000;
    for (int i = 0; i < probes; ++i) {
      // Absent keys live in a disjoint address range.
      const std::uint64_t absent = (1ull << 40) + rng.Uniform(1u << 20) * kBytes4K;
      if (oracle.find(absent) == oracle.end() && filter.Contains(absent)) {
        ++false_positives;
      }
    }
    EXPECT_LE(false_positives, probes / 100) << "fill factor " << fill;
  }
}

// Deletion must hand capacity back: at a fill where inserts start failing,
// erasing keys and re-inserting those same keys always succeeds (each erase
// frees a slot in one of the key's two candidate buckets, so the re-insert
// cannot even need the kick chain). This is the property that lets a
// sliding window run forever without accreting filter state.
TEST(CuckooFilterTest, EraseReclaimsSlotsForReinsertionAtCapacity) {
  CuckooFilter filter(1024);
  Rng rng(31337);
  std::vector<std::uint64_t> resident;
  // Fill until the filter refuses an insert (beyond ~95% load the kick
  // chain stops finding room).
  for (;;) {
    const std::uint64_t key = rng.Uniform(1u << 30) * kBytes4K;
    if (!filter.Insert(key)) {
      // A failed insert rolls its displacement chain back: everything
      // previously resident must still be present.
      break;
    }
    resident.push_back(key);
  }
  const std::size_t full_size = filter.size();
  EXPECT_GE(full_size, filter.slot_count() * 9 / 10);
  for (const std::uint64_t key : resident) {
    ASSERT_TRUE(filter.Contains(key));
  }
  // Erase a batch, then re-insert the same keys at capacity.
  const std::size_t batch = resident.size() / 4;
  for (std::size_t i = 0; i < batch; ++i) {
    ASSERT_TRUE(filter.Erase(resident[i])) << i;
  }
  EXPECT_EQ(filter.size(), full_size - batch);
  for (std::size_t i = 0; i < batch; ++i) {
    ASSERT_TRUE(filter.Insert(resident[i])) << "re-insert after erase must succeed " << i;
  }
  EXPECT_EQ(filter.size(), full_size);
}

TEST(CuckooFilterTest, MultisetOccurrencesEraseOneAtATime) {
  CuckooFilter filter(64);
  const std::uint64_t key = 0x42000;
  EXPECT_TRUE(filter.Insert(key));
  EXPECT_TRUE(filter.Insert(key));
  EXPECT_TRUE(filter.Insert(key));
  EXPECT_EQ(filter.size(), 3u);
  EXPECT_TRUE(filter.Erase(key));
  EXPECT_TRUE(filter.Contains(key));
  EXPECT_TRUE(filter.Erase(key));
  EXPECT_TRUE(filter.Erase(key));
  EXPECT_FALSE(filter.Erase(key));
  EXPECT_FALSE(filter.Contains(key));
  EXPECT_EQ(filter.size(), 0u);
}

TEST(CuckooFilterTest, DisabledDefaultRejectsEverything) {
  CuckooFilter filter;
  EXPECT_FALSE(filter.Insert(0x1000));
  EXPECT_FALSE(filter.Contains(0x1000));
  EXPECT_FALSE(filter.Erase(0x1000));
  EXPECT_EQ(filter.bytes(), 0u);
}

// ---------------------------------------------------------------------------
// CountSketch vs an exact counting oracle.
// ---------------------------------------------------------------------------

// The count-min guarantee the admission gate relies on: estimates never
// undershoot the true count (an undershoot would admit late and break the
// "overestimation only moves toward exact" argument), and overshoot stays
// small at the configured width.
TEST(CountSketchTest, NeverUnderestimatesAndOverestimatesAreBounded) {
  CountSketch sketch(4, 4096);
  std::unordered_map<std::uint64_t, std::int64_t> oracle;
  Rng rng(999);
  for (int i = 0; i < 6000; ++i) {
    const std::uint64_t key = rng.Uniform(2000) * kBytes4K;
    sketch.Add(key, +1);
    oracle[key] += 1;
  }
  std::uint64_t total_error = 0;
  for (const auto& [key, count] : oracle) {
    const std::uint64_t estimate = sketch.Estimate(key);
    ASSERT_GE(estimate, static_cast<std::uint64_t>(count)) << std::hex << key;
    total_error += estimate - static_cast<std::uint64_t>(count);
  }
  // 6000 insertions over 4x4096 cells: the classic epsilon*N bound puts the
  // per-key expected overshoot well under 1; allow an average of 2.
  EXPECT_LE(total_error, 2 * oracle.size());
}

// Reversibility — the reason the sketch uses plain (not conservative)
// updates: decrements must exactly undo increments, so a sliding window
// that retires every sample it pushed returns the sketch to its prior
// state bit for bit.
TEST(CountSketchTest, DecrementsExactlyUndoIncrements) {
  CountSketch sketch(4, 1024);
  Rng rng(777);
  std::vector<std::uint64_t> stable;
  for (int i = 0; i < 300; ++i) {
    const std::uint64_t key = rng.Uniform(500) * kBytes4K;
    sketch.Add(key, +1);
    stable.push_back(key);
  }
  std::vector<std::uint64_t> before;
  for (const std::uint64_t key : stable) {
    before.push_back(sketch.Estimate(key));
  }
  // A transient burst of other keys, then its exact inverse.
  std::vector<std::uint64_t> burst;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t key = (1ull << 32) + rng.Uniform(4000) * kBytes4K;
    sketch.Add(key, +1);
    burst.push_back(key);
  }
  for (const std::uint64_t key : burst) {
    sketch.Add(key, -1);
  }
  for (std::size_t i = 0; i < stable.size(); ++i) {
    EXPECT_EQ(sketch.Estimate(stable[i]), before[i]) << i;
  }
}

TEST(CountSketchTest, DisabledDefaultEstimatesZero) {
  CountSketch sketch;
  EXPECT_FALSE(sketch.enabled());
  sketch.Add(0x1000, +1);  // no-op, must not crash
  EXPECT_EQ(sketch.Estimate(0x1000), 0u);
  EXPECT_EQ(sketch.bytes(), 0u);
}

// ---------------------------------------------------------------------------
// SampleWindow: sketch mode vs the exact-mode oracle.
// ---------------------------------------------------------------------------

class SketchWindowTest : public ::testing::Test {
 protected:
  SketchWindowTest() : topo_(Topology::Tiny(256 * kMiB)), phys_(topo_), as_(phys_, topo_, thp_) {
    VmaOptions opts;
    opts.thp_eligible = false;
    region_ = as_.MmapAnon(8 * kMiB, opts);
    for (Addr offset = 0; offset < 8 * kMiB; offset += kBytes4K) {
      as_.Touch(region_ + offset, static_cast<int>((offset >> kShift4K) % 2));
    }
  }

  IbsSample Sample(Addr va, int core, int req_node, bool dram = true) {
    IbsSample s;
    s.va = va;
    s.core = static_cast<std::uint16_t>(core);
    s.req_node = static_cast<std::uint8_t>(req_node);
    s.home_node = 0;
    s.dram = dram;
    return s;
  }

  std::vector<IbsSample> RandomEpoch(Rng& rng, int count) {
    std::vector<IbsSample> samples;
    samples.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
      samples.push_back(Sample(region_ + rng.Uniform(8 * kMiB),
                               static_cast<int>(rng.Uniform(4)),
                               static_cast<int>(rng.Uniform(2)), rng.Uniform(4) != 0));
    }
    return samples;
  }

  static void ExpectEqualAggregates(const PageAggMap& got, const PageAggMap& want) {
    ASSERT_EQ(got.size(), want.size());
    for (const auto& [base, agg] : want) {
      const PageAgg* found = got.Find(base);
      ASSERT_NE(found, nullptr) << "missing page " << std::hex << base;
      EXPECT_EQ(found->total, agg.total) << std::hex << base;
      EXPECT_EQ(found->dram, agg.dram) << std::hex << base;
      EXPECT_EQ(found->core_mask, agg.core_mask) << std::hex << base;
      EXPECT_EQ(found->req_node_counts, agg.req_node_counts) << std::hex << base;
    }
  }

  Topology topo_;
  PhysicalMemory phys_;
  ThpState thp_;
  AddressSpace as_;
  Addr region_ = 0;
};

// The pinned identity contract: at the default admission threshold of 1,
// sketch mode reproduces exact mode bit for bit under random churn across
// the window boundary — and its filter and sketch are never populated,
// which is why even absurd sketch knobs (second pass: an 8-slot filter)
// cannot break the identity.
TEST_F(SketchWindowTest, ThresholdOneIsBitIdenticalToExactUnderChurn) {
  ProfileSketchConfig tiny;
  tiny.filter_capacity = 8;
  tiny.sketch_width = 16;
  for (const ProfileSketchConfig& knobs : {ProfileSketchConfig{}, tiny}) {
    SampleWindow exact(/*max_epochs=*/4);
    SampleWindow sketch(/*max_epochs=*/4, ProfileMode::kSketch, knobs);
    Rng rng(4242);
    for (int epoch = 0; epoch < 24; ++epoch) {
      std::vector<IbsSample> samples = RandomEpoch(rng, 200);
      exact.PushEpoch(samples);
      sketch.PushEpoch(std::move(samples));
      ASSERT_EQ(sketch.distinct_pages(), exact.distinct_pages()) << "epoch " << epoch;
      ExpectEqualAggregates(sketch.FoldToMapping(as_), exact.FoldToMapping(as_));
      EXPECT_EQ(sketch.MajorityReqNodeIn(region_, 8 * kMiB),
                exact.MajorityReqNodeIn(region_, 8 * kMiB));
      EXPECT_EQ(sketch.PieceLocalityPctIn(region_, kBytes2M),
                exact.PieceLocalityPctIn(region_, kBytes2M));
      EXPECT_EQ(sketch.filter_occupancy(), 0u);
      EXPECT_EQ(sketch.admission_misses(), 0u);
      // Pages whose last sample left the window are reported for pruning;
      // anything reported must genuinely be gone from the aggregate.
      for (const Addr retired : sketch.retired_pages()) {
        EXPECT_FALSE(sketch.HasSamplesIn(retired, kBytes4K)) << std::hex << retired;
      }
    }
  }
}

// Above threshold 1 the fold is a *subset* of exact mode's — unadmitted
// pages are missing by design — but every admitted page's aggregate must be
// integer-exact (the reconstruction-scan guarantee), and the filter only
// holds live unadmitted samples, so occupancy is bounded by the window's
// sample budget no matter how long the run is.
TEST_F(SketchWindowTest, AdmittedAggregatesAreExactAtHigherThresholds) {
  ProfileSketchConfig knobs;
  knobs.admit_threshold = 3;
  SampleWindow exact(/*max_epochs=*/6);
  SampleWindow sketch(/*max_epochs=*/6, ProfileMode::kSketch, knobs);
  Rng rng(9001);
  const std::size_t samples_per_epoch = 150;
  for (int epoch = 0; epoch < 40; ++epoch) {
    std::vector<IbsSample> samples = RandomEpoch(rng, static_cast<int>(samples_per_epoch));
    exact.PushEpoch(samples);
    sketch.PushEpoch(std::move(samples));

    const PageAggMap exact_fold = exact.FoldToMapping(as_);
    const PageAggMap sketch_fold = sketch.FoldToMapping(as_);
    ASSERT_LE(sketch_fold.size(), exact_fold.size()) << "epoch " << epoch;
    for (const auto& [base, agg] : sketch_fold) {
      const PageAgg* want = exact_fold.Find(base);
      ASSERT_NE(want, nullptr) << std::hex << base;
      EXPECT_EQ(agg.total, want->total) << std::hex << base;
      EXPECT_EQ(agg.dram, want->dram) << std::hex << base;
      EXPECT_EQ(agg.core_mask, want->core_mask) << std::hex << base;
      EXPECT_EQ(agg.req_node_counts, want->req_node_counts) << std::hex << base;
    }
    // Live unadmitted samples can never exceed the window's sample budget.
    EXPECT_LE(sketch.filter_occupancy(), 6 * samples_per_epoch);
    EXPECT_EQ(sketch.admission_misses(), 0u);
  }
}

// Graceful degradation: a filter sized for a tiny fraction of the sampled
// set must keep working — misses are counted (the exposed counter the
// divergence regression pins), admissions heal by scanning the raw window
// (so a page that does admit is still integer-exact), and nothing crashes
// under the retirement stream's over-delivery.
TEST_F(SketchWindowTest, UndersizedFilterDegradesGracefullyWithCountedMisses) {
  ProfileSketchConfig knobs;
  knobs.admit_threshold = 3;
  // A filter sized for a dozen live samples against ~500 in flight; the
  // sketch stays at its default width so estimates remain honest (a
  // saturated sketch would admit everything and never touch the filter).
  knobs.filter_capacity = 16;
  SampleWindow exact(/*max_epochs=*/4);
  SampleWindow sketch(/*max_epochs=*/4, ProfileMode::kSketch, knobs);
  Rng rng(1212);
  const Addr hot = region_;  // one page sampled every epoch from every core
  for (int epoch = 0; epoch < 30; ++epoch) {
    std::vector<IbsSample> samples = RandomEpoch(rng, 120);
    for (int core = 0; core < 4; ++core) {
      samples.push_back(Sample(hot, core, core % 2));
    }
    exact.PushEpoch(samples);
    sketch.PushEpoch(std::move(samples));
    ASSERT_LE(sketch.filter_occupancy(), 16u);
  }
  EXPECT_GT(sketch.admission_misses(), 0u);
  // The hot page crossed the threshold in epoch 0 and must carry the exact
  // aggregate despite the filter thrash around it.
  const PageAggMap exact_fold = exact.FoldToMapping(as_);
  const PageAggMap sketch_fold = sketch.FoldToMapping(as_);
  const PageAgg* want = exact_fold.Find(hot);
  const PageAgg* got = sketch_fold.Find(hot);
  ASSERT_NE(want, nullptr);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->total, want->total);
  EXPECT_EQ(got->dram, want->dram);
  EXPECT_EQ(got->core_mask, want->core_mask);
  EXPECT_EQ(got->req_node_counts, want->req_node_counts);
}

// Bounded state on a sparse footprint: a stream of mostly-fresh pages (the
// TB-scale-footprint stand-in) with one hot page. Exact mode's aggregate
// grows with every page the window has seen; sketch mode's stays pinned to
// the admitted set plus the fixed filter/sketch budget.
TEST_F(SketchWindowTest, SparseStreamStateIsBoundedByAdmissions) {
  ProfileSketchConfig knobs;
  knobs.admit_threshold = 2;
  knobs.filter_capacity = 4096;
  SampleWindow exact(/*max_epochs=*/8);
  SampleWindow sketch(/*max_epochs=*/8, ProfileMode::kSketch, knobs);
  Rng rng(5150);
  Addr fresh = region_;
  const Addr hot = region_ + 8 * kMiB - kBytes4K;
  for (int epoch = 0; epoch < 32; ++epoch) {
    std::vector<IbsSample> samples;
    // 60 never-repeated cold pages per epoch...
    for (int i = 0; i < 60 && fresh < hot; ++i, fresh += kBytes4K) {
      samples.push_back(Sample(fresh, static_cast<int>(rng.Uniform(4)), 0));
    }
    // ...and a hot page sampled twice (crosses the threshold immediately).
    samples.push_back(Sample(hot, 0, 0));
    samples.push_back(Sample(hot, 1, 1));
    exact.PushEpoch(samples);
    sketch.PushEpoch(std::move(samples));
  }
  // Exact tracks every cold page of the sliding window (~8 x 60); sketch
  // tracks only the hot page exactly, cold samples live in the filter.
  EXPECT_GT(exact.distinct_pages(), 400u);
  EXPECT_LE(sketch.distinct_pages(), 4u);
  EXPECT_LE(sketch.filter_occupancy(), 8u * 61u);
  EXPECT_EQ(sketch.admission_misses(), 0u);
  const PageAggMap sketch_fold = sketch.FoldToMapping(as_);
  const PageAggMap exact_fold = exact.FoldToMapping(as_);
  const PageAgg* got = sketch_fold.Find(hot);
  const PageAgg* want = exact_fold.Find(hot);
  ASSERT_NE(got, nullptr);
  ASSERT_NE(want, nullptr);
  EXPECT_EQ(got->total, want->total);
  EXPECT_EQ(got->req_node_counts, want->req_node_counts);
}

// One-page-at-a-time admission: the filter/sketch/threshold pipeline of
// SampleWindow's sketch mode, except that every admission scans the raw
// window on the spot instead of sharing one scan at the end of the push.
// Holds only the 4KB aggregates, and counts retirements that had to clamp.
class EagerAdmissionOracle {
 public:
  EagerAdmissionOracle(std::size_t max_epochs, const ProfileSketchConfig& knobs)
      : max_epochs_(max_epochs),
        threshold_(knobs.admit_threshold),
        filter_(static_cast<std::size_t>(knobs.filter_capacity)),
        sketch_(knobs.sketch_rows, knobs.sketch_width),
        presketch_(knobs.sketch_rows, knobs.sketch_width) {}

  void Push(const std::vector<IbsSample>& samples) {
    presketch_.Reset();
    for (const IbsSample& sample : samples) {
      presketch_.Add(Page(sample), +1);
    }
    for (std::size_t i = 0; i < samples.size(); ++i) {
      Insert(samples, i);
    }
    epochs_.push_back(samples);
    if (epochs_.size() > max_epochs_) {
      for (const IbsSample& sample : epochs_.front()) {
        Retire(sample);
      }
      epochs_.pop_front();
    }
  }

  const std::map<Addr, PageAgg>& pages() const { return pages_; }
  std::uint64_t clamped() const { return clamped_; }

 private:
  static Addr Page(const IbsSample& sample) { return AlignDown(sample.va, kBytes4K); }
  static std::uint64_t CoreKey(const IbsSample& sample) {
    return Page(sample) | static_cast<std::uint64_t>(sample.core % 64);
  }

  void Add(const IbsSample& sample) {
    PageAgg& agg = pages_[Page(sample)];
    agg.total += 1;
    agg.dram += sample.dram ? 1u : 0u;
    agg.req_node_counts[sample.req_node] += 1;
    if (cores_[CoreKey(sample)]++ == 0) {
      agg.core_mask |= 1ull << (sample.core % 64);
    }
  }

  void Insert(const std::vector<IbsSample>& epoch, std::size_t index) {
    const IbsSample& sample = epoch[index];
    const Addr page = Page(sample);
    if (pages_.count(page) != 0) {
      Add(sample);
      return;
    }
    if (sketch_.Estimate(page) + presketch_.Estimate(page) >= threshold_) {
      std::int32_t purged = 0;
      while (filter_.Erase(page)) {
        ++purged;
      }
      if (purged > 0) {
        sketch_.Add(page, -purged);
      }
      if (purged > 0 || missed_ > 0) {
        for (const auto& prior : epochs_) {
          for (const IbsSample& other : prior) {
            if (Page(other) == page) {
              Add(other);
            }
          }
        }
        for (std::size_t i = 0; i < index; ++i) {
          if (Page(epoch[i]) == page) {
            Add(epoch[i]);
          }
        }
      }
      Add(sample);
      return;
    }
    if (filter_.Insert(page)) {
      sketch_.Add(page, +1);
    } else {
      ++missed_;
    }
  }

  void Retire(const IbsSample& sample) {
    const Addr page = Page(sample);
    const auto it = pages_.find(page);
    if (it == pages_.end()) {
      if (filter_.Erase(page)) {
        sketch_.Add(page, -1);
      } else if (missed_ > 0) {
        --missed_;
      }
      return;
    }
    PageAgg& agg = it->second;
    bool clamped = false;
    const auto take = [&clamped](auto& field) {
      if (field > 0) {
        --field;
      } else {
        clamped = true;
      }
    };
    take(agg.total);
    if (sample.dram) {
      take(agg.dram);
    }
    take(agg.req_node_counts[sample.req_node]);
    const auto core = cores_.find(CoreKey(sample));
    if (core == cores_.end()) {
      clamped = true;
    } else if (--core->second == 0) {
      cores_.erase(core);
      agg.core_mask &= ~(1ull << (sample.core % 64));
    }
    clamped_ += clamped ? 1 : 0;
    if (agg.total == 0) {
      pages_.erase(it);
    }
  }

  std::size_t max_epochs_;
  std::uint64_t threshold_;
  CuckooFilter filter_;
  CountSketch sketch_;
  CountSketch presketch_;
  std::deque<std::vector<IbsSample>> epochs_;
  std::map<Addr, PageAgg> pages_;
  std::map<std::uint64_t, std::uint32_t> cores_;
  std::uint64_t missed_ = 0;
  std::uint64_t clamped_ = 0;
};

// The fold's delta journal and the batched admission scan under the
// harshest sketch setting: T=4 with a filter far too small. A scripted
// prelude drives the rare paths: page b shares page a's fingerprint, so b's
// purge takes a's filter occurrence and a then admits without a scan and
// retires more samples than it holds (the clamping path); a is erased with
// counts left over while another piece keeps its 2MB mapping alive, and is
// re-admitted over a stale core count that later runs out while a's core
// bit was never set. The thrash that follows leaves samples untracked (the
// missed-live path). A window folded every epoch (journal replays) must end
// equal to an identical window folded once at the end (a full fold), and
// every epoch it must equal admitting pages one at a time.
TEST_F(SketchWindowTest, JournaledFoldAndBatchedAdmissionMatchEagerUnderThrash) {
  ProfileSketchConfig knobs;
  knobs.admit_threshold = 4;
  knobs.filter_capacity = 16;
  VmaOptions opts;
  opts.explicit_page = PageSize::k2M;
  const Addr alias_region = as_.MmapAnon(2 * kBytes1G, opts);
  const Addr a = alias_region;
  Addr b = 0;
  CuckooFilter probe(static_cast<std::size_t>(knobs.filter_capacity));
  probe.Insert(a);
  for (Addr candidate = a + kBytes2M; candidate < a + 2 * kBytes1G; candidate += kBytes4K) {
    if (probe.Contains(candidate)) {
      b = candidate;
      break;
    }
  }
  ASSERT_NE(b, 0u) << "no fingerprint alias of page a in range";
  as_.Touch(a, 0);
  as_.Touch(b, 1);

  SampleWindow every(/*max_epochs=*/4, ProfileMode::kSketch, knobs);
  SampleWindow once(/*max_epochs=*/4, ProfileMode::kSketch, knobs);
  EagerAdmissionOracle eager(/*max_epochs=*/4, knobs);
  const auto repeat = [](const IbsSample& sample, int times) {
    return std::vector<IbsSample>(static_cast<std::size_t>(times), sample);
  };
  const auto concat = [](std::vector<IbsSample> head, const std::vector<IbsSample>& tail) {
    head.insert(head.end(), tail.begin(), tail.end());
    return head;
  };
  // Epoch e retires when epoch e + 4 is pushed.
  const std::vector<std::vector<IbsSample>> prelude = {
      {Sample(a, /*core=*/3, /*req_node=*/1, /*dram=*/true)},  // 0: parked
      repeat(Sample(b, 0, 0), 4),                   // 1: b admits; its purge takes a's slot
      repeat(Sample(a, 0, 0, /*dram=*/false), 4),   // 2: a admits without a scan
      repeat(Sample(a + kBytes4K, 1, 1), 4),        // 3: a second piece of a's 2MB page
      {},                                           // 4: epoch 0's a retires: clamps
      {},                                           // 5
      {},  // 6: a erased with a req count and core bit 0 left (stale core count 1)
      {Sample(a, 0, 0, /*dram=*/false)},            // 7: parked
      concat(concat(repeat(Sample(b, 0, 0), 4),     // 8: b's purge takes it again;
                    repeat(Sample(a, 0, 0, false), 4)),  // a re-admits, bit 0 unset,
             repeat(Sample(a, 1, 1, false), 2)),   // and core 1 keeps it alive
      {},
      {},
      {},  // 11: epoch 7's a retires while admitted
      {},  // 12: core 0's count reaches 0 with the bit unset; then a erased again
  };
  Rng rng(777);
  const int kEpochs = 48;
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    std::vector<IbsSample> samples;
    if (static_cast<std::size_t>(epoch) < prelude.size()) {
      samples = prelude[static_cast<std::size_t>(epoch)];
    } else {
      // A small hot set keeps admissions coming; the wide random tail
      // keeps the filter thrashing.
      samples = RandomEpoch(rng, 120);
      for (int i = 0; i < 40; ++i) {
        samples.push_back(Sample(region_ + rng.Uniform(24) * kBytes4K,
                                 static_cast<int>(rng.Uniform(4)),
                                 static_cast<int>(rng.Uniform(2)), rng.Uniform(3) != 0));
      }
    }
    every.PushEpoch(samples);
    once.PushEpoch(samples);
    eager.Push(samples);

    // The oracle's 4KB aggregates, folded to their mappings.
    PageAggMap want;
    for (const auto& [base, agg] : eager.pages()) {
      const auto mapping = as_.Translate(base);
      ASSERT_TRUE(mapping.has_value());
      PageAgg& out = want[mapping->page_base];
      out.total += agg.total;
      out.dram += agg.dram;
      out.core_mask |= agg.core_mask;
      for (std::size_t n = 0; n < out.req_node_counts.size(); ++n) {
        out.req_node_counts[n] += agg.req_node_counts[n];
      }
    }
    SCOPED_TRACE(epoch);
    ExpectEqualAggregates(every.FoldToMapping(as_), want);
  }
  ExpectEqualAggregates(every.FoldToMapping(as_), once.FoldToMapping(as_));
  // Both degraded paths ran, and the per-epoch folds replayed the journal.
  EXPECT_GT(eager.clamped(), 0u);
  EXPECT_GT(every.admission_misses(), 0u);
  EXPECT_EQ(once.full_folds(), 1u);
  EXPECT_EQ(every.full_folds(), 1u);
}

// ---------------------------------------------------------------------------
// End-to-end divergence regression on the synthetic sparse workload.
// ---------------------------------------------------------------------------

// A deliberately undersized filter on the sparse-footprint stressor: the
// run must complete (no assert/UB under the sanitizer jobs), expose its
// realized admission-miss rate through the RunResult counter, and still
// reach the same placement decisions — every unadmittable page is strictly
// local and below Carrefour's per-page floor, so dropping it is invisible
// (the argument DESIGN.md Section 11 makes for the profile-sweep bench).
TEST(SparseFootprintDivergenceTest, UndersizedFilterDegradesGracefully) {
  const Topology topo = Topology::Tiny(256 * kMiB);
  WorkloadSpec spec = MakeWorkloadSpec(BenchmarkId::kSparseFootprint, topo);
  spec.steady_accesses_per_thread = 16'000;
  SimConfig sim;
  sim.accesses_per_thread_per_epoch = 1024;
  sim.max_epochs = 48;  // setup first-touches ~8K pages/thread before steady
  sim.ibs_interval = 32;

  Simulation exact(topo, spec, MakePolicyConfig(PolicyKind::kCarrefour2M), sim);
  const RunResult exact_result = exact.Run();
  ASSERT_TRUE(exact_result.completed);
  EXPECT_EQ(exact_result.profile_admission_misses, 0u);

  SimConfig sketch_sim = sim;
  sketch_sim.profile_mode = ProfileMode::kSketch;
  sketch_sim.profile_sketch.admit_threshold = 2;
  sketch_sim.profile_sketch.filter_capacity = 64;
  sketch_sim.profile_sketch.sketch_width = 64;
  Simulation sketch(topo, spec, MakePolicyConfig(PolicyKind::kCarrefour2M), sketch_sim);
  const RunResult sketch_result = sketch.Run();

  ASSERT_TRUE(sketch_result.completed);
  EXPECT_GT(sketch_result.profile_admission_misses, 0u);
  EXPECT_EQ(sketch_result.total_migrations, exact_result.total_migrations);
  EXPECT_EQ(sketch_result.total_splits, exact_result.total_splits);
  EXPECT_EQ(sketch_result.total_promotions, exact_result.total_promotions);
  EXPECT_EQ(sketch_result.measured_cycles, exact_result.measured_cycles);
  EXPECT_LT(sketch_result.profile_peak_entries, exact_result.profile_peak_entries);
}

}  // namespace
}  // namespace numalp
