#include "src/metrics/sample_window.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <utility>
#include <vector>

namespace numalp {

SampleWindow::SampleWindow(std::size_t max_epochs, bool reference, ProfileMode mode,
                           const ProfileSketchConfig& sketch)
    : max_epochs_(max_epochs),
      reference_(reference),
      mode_(reference ? ProfileMode::kExact : mode) {
  assert(max_epochs_ > 0);
  if (mode_ == ProfileMode::kSketch) {
    admit_threshold_ = sketch.admit_threshold;
    filter_ = CuckooFilter(static_cast<std::size_t>(sketch.filter_capacity));
    sketch_ = CountSketch(sketch.sketch_rows, sketch.sketch_width);
    scratch_presketch_ = CountSketch(sketch.sketch_rows, sketch.sketch_width);
    pending_bits_.assign(kPendingBitWords, 0);
  }
}

void SampleWindow::Apply(const IbsSample& sample, int direction) {
  const Addr base = AlignDown(sample.va, kBytes4K);
  const auto core = static_cast<std::uint8_t>(sample.core % 64);
  const std::int8_t dram = sample.dram ? 1 : 0;
  if (direction > 0) {
    const auto [agg, inserted] = window_4k_.FindOrInsert(base);
    if (inserted) {
      inserted_keys_.push_back(base);
    }
    agg->total += 1;
    agg->dram += static_cast<std::uint64_t>(dram);
    agg->req_node_counts[sample.req_node] += 1;
    std::uint32_t& core_count = core_counts_[CoreCountKey(base, sample.core)];
    Delta::Core core_op = Delta::Core::kNone;
    if (core_count++ == 0) {
      agg->core_mask |= 1ull << core;
      core_op = Delta::Core::kSet;
    }
    if (journal_valid_) {
      journal_.push_back({base, 1, dram, 1, sample.req_node, core, core_op});
    }
    return;
  }
  PageAgg* agg = window_4k_.Find(base);
  assert(agg != nullptr && agg->total > 0);
  agg->total -= 1;
  agg->dram -= static_cast<std::uint64_t>(dram);
  agg->req_node_counts[sample.req_node] -= 1;
  const std::uint64_t core_key = CoreCountKey(base, sample.core);
  std::uint32_t* core_count = core_counts_.Find(core_key);
  assert(core_count != nullptr && *core_count > 0);
  Delta::Core core_op = Delta::Core::kNone;
  if (--*core_count == 0) {
    core_counts_.Erase(core_key);
    agg->core_mask &= ~(1ull << core);
    core_op = Delta::Core::kCleared;
  }
  if (journal_valid_) {
    journal_.push_back({base, -1, static_cast<std::int8_t>(-dram), -1, sample.req_node, core,
                        core_op});
  }
  if (agg->total == 0) {
    assert(agg->core_mask == 0);
    NoteErased(base, *agg);
    window_4k_.Erase(base);
  }
}

void SampleWindow::ApplySketched(const IbsSample& sample, std::size_t index,
                                 const CountSketch& presketch) {
  const Addr base = AlignDown(sample.va, kBytes4K);
  if (window_4k_.Find(base) != nullptr) {
    Apply(sample, +1);
    return;
  }
  // Admission estimate: live tracked samples from prior epochs plus *all* of
  // this epoch's samples for the page (the presketch makes admission eager —
  // a page destined to cross the threshold this epoch is admitted at its
  // first sample, so its epoch-end aggregate equals exact mode's). Both
  // sketches only ever overestimate, which admits early — toward exact
  // behavior, never away from it.
  if (sketch_.Estimate(base) + presketch.Estimate(base) >= admit_threshold_) {
    AdmitPage(base, index);
    Apply(sample, +1);
    return;
  }
  if (filter_.Insert(base)) {
    sketch_.Add(base, +1);
  } else {
    // Filter full: the sample stays live but untracked. Count it — the
    // divergence regression asserts this counter — and remember that
    // admissions can no longer trust the filter to witness emptiness.
    ++admission_misses_;
    ++missed_live_;
  }
}

void SampleWindow::AdmitPage(Addr base, std::size_t prefix) {
  std::int32_t purged = 0;
  while (filter_.Erase(base)) {
    ++purged;
  }
  if (purged > 0) {
    sketch_.Add(base, -purged);
  }
  // Reconstruction is needed unless provably nothing is live for this page:
  // the purge found no filter occurrences and no sample anywhere went
  // untracked. At admit_threshold 1 this always holds (pages admit on their
  // very first sample), which keeps the identity path O(1) per sample.
  if (purged == 0 && missed_live_ == 0) {
    return;
  }
  pending_admissions_[base] = static_cast<std::uint32_t>(prefix);
  const std::uint64_t page = base >> kShift4K;
  pending_bits_[(page >> 6) % pending_bits_.size()] |= 1ull << (page & 63);
}

void SampleWindow::ReconstructAdmitted(std::span<const IbsSample> epoch) {
  // The scan re-applies with the same commutative integer ops incremental
  // maintenance uses, so each rebuilt aggregate is bit-equal to what exact
  // mode holds — and it heals samples the full filter failed to track. A
  // page's samples from its admitting one onward were applied as they came;
  // only the earlier ones are added here. Nearly every scanned sample
  // belongs to another page; the bitmap rejects those with one load.
  const auto pending = [this](const IbsSample& sample) {
    const std::uint64_t page = sample.va >> kShift4K;
    return ((pending_bits_[(page >> 6) % pending_bits_.size()] >> (page & 63)) & 1) != 0;
  };
  for (const auto& epoch_samples : epochs_) {
    for (const IbsSample& sample : epoch_samples) {
      if (pending(sample) && pending_admissions_.Contains(AlignDown(sample.va, kBytes4K))) {
        Apply(sample, +1);
      }
    }
  }
  for (std::size_t i = 0; i < epoch.size(); ++i) {
    if (!pending(epoch[i])) {
      continue;
    }
    const std::uint32_t* prefix = pending_admissions_.Find(AlignDown(epoch[i].va, kBytes4K));
    if (prefix != nullptr && i < *prefix) {
      Apply(epoch[i], +1);
    }
  }
  pending_admissions_.clear();
  std::fill(pending_bits_.begin(), pending_bits_.end(), 0);
}

void SampleWindow::RetireSketched(const IbsSample& sample) {
  const Addr base = AlignDown(sample.va, kBytes4K);
  PageAgg* agg = window_4k_.Find(base);
  if (agg == nullptr) {
    // Retiring a sample of a never-admitted page: return its slot. A failed
    // erase means the occurrence was lost — either this sample missed the
    // full filter, or fingerprint aliasing let another page's purge take it
    // — so settle the miss debt instead.
    if (filter_.Erase(base)) {
      sketch_.Add(base, -1);
    } else if (missed_live_ > 0) {
      --missed_live_;
    }
    return;
  }
  // Admitted page: Apply(sample, -1) with saturation in place of the exact
  // mode's asserts. Under filter exhaustion a page admits with whatever
  // samples the scan could see, and the retirement stream may then
  // over-deliver; decrements must clamp, not wrap. The journal records the
  // clamped change actually made.
  Delta delta{base, 0, 0, 0, sample.req_node, static_cast<std::uint8_t>(sample.core % 64),
              Delta::Core::kNone};
  if (agg->total > 0) {
    agg->total -= 1;
    delta.total = -1;
  }
  if (sample.dram && agg->dram > 0) {
    agg->dram -= 1;
    delta.dram = -1;
  }
  if (agg->req_node_counts[sample.req_node] > 0) {
    agg->req_node_counts[sample.req_node] -= 1;
    delta.req = -1;
  }
  const std::uint64_t core_key = CoreCountKey(base, sample.core);
  if (std::uint32_t* core_count = core_counts_.Find(core_key)) {
    // A key re-admitted after a clamped erase can hold a count for a bit
    // its fresh aggregate never set; only a real clear is journaled.
    if (--*core_count == 0) {
      core_counts_.Erase(core_key);
      if ((agg->core_mask & (1ull << delta.core)) != 0) {
        agg->core_mask &= ~(1ull << delta.core);
        delta.core_op = Delta::Core::kCleared;
      }
    }
  }
  if (journal_valid_) {
    journal_.push_back(delta);
  }
  if (agg->total == 0) {
    NoteErased(base, *agg);
    window_4k_.Erase(base);
    retired_pages_.push_back(base);
  }
}

void SampleWindow::NoteErased(Addr base, const PageAgg& remainder) {
  erased_keys_.push_back(base);
  if (!journal_valid_) {
    return;
  }
  // Exact mode erases at all-zero counts; sketch mode's clamped retirement
  // can erase a key that still holds dram/requester/sharer counts, which
  // the fold must drop along with it.
  const bool any_req = std::any_of(remainder.req_node_counts.begin(),
                                   remainder.req_node_counts.end(),
                                   [](std::uint32_t count) { return count != 0; });
  if (remainder.dram != 0 || remainder.core_mask != 0 || any_req) {
    dropped_.emplace_back(base, remainder);
  }
}

void SampleWindow::Clear() {
  epochs_.clear();
  window_4k_.clear();
  core_counts_.clear();
  ref_window_4k_.clear();
  ref_4k_valid_ = false;
  sorted_keys_.clear();
  inserted_keys_.clear();
  erased_keys_.clear();
  journal_.clear();
  dropped_.clear();
  journal_valid_ = false;
  orphans_.clear();
  folded_.clear();
  mapping_core_refs_.clear();
  filter_.Clear();
  sketch_.Reset();
  pending_admissions_.clear();
  retired_pages_.clear();
  missed_live_ = 0;
}

void SampleWindow::PushEpoch(std::vector<IbsSample> samples, const CountSketch* presketch) {
  ref_4k_valid_ = false;
  retired_pages_.clear();
  if (!reference_) {
    if (mode_ == ProfileMode::kSketch) {
      const CountSketch* pre = presketch;
      if (pre == nullptr) {
        scratch_presketch_.Reset();
        for (const IbsSample& sample : samples) {
          scratch_presketch_.Add(AlignDown(sample.va, kBytes4K), +1);
        }
        pre = &scratch_presketch_;
      }
      for (std::size_t i = 0; i < samples.size(); ++i) {
        ApplySketched(samples[i], i, *pre);
      }
      // Before the oldest epoch retires: eager reconstruction would have
      // counted its samples, and the retirement below subtracts them.
      if (!pending_admissions_.empty()) {
        ReconstructAdmitted(samples);
      }
    } else {
      for (const IbsSample& sample : samples) {
        Apply(sample, +1);
      }
    }
  }
  epochs_.push_back(std::move(samples));
  if (epochs_.size() > max_epochs_) {
    if (!reference_) {
      for (const IbsSample& sample : epochs_.front()) {
        if (mode_ == ProfileMode::kSketch) {
          RetireSketched(sample);
        } else {
          Apply(sample, -1);
        }
      }
    }
    epochs_.pop_front();
  }
  peak_4k_entries_ = std::max(peak_4k_entries_, window_4k_.size());
  peak_core_entries_ = std::max(peak_core_entries_, core_counts_.size());
  if (reference_) {
    return;
  }
  // Bound the fold's change logs between folds. A journal longer than the
  // window costs more to replay than a full fold does, so it is dropped for
  // one (short journals are kept whatever the window: both are cheap then).
  // The key index is only read by full folds, which merge it first; merging
  // here as well once the pending key changes outnumber the index bounds
  // them while keeping the O(index) merge amortized O(1) per change.
  peak_journal_bytes_ =
      std::max(peak_journal_bytes_, journal_.size() * sizeof(Delta) +
                                        dropped_.size() * sizeof(std::pair<Addr, PageAgg>));
  peak_index_bytes_ = std::max(peak_index_bytes_, (sorted_keys_.size() + inserted_keys_.size() +
                                                   erased_keys_.size()) * sizeof(Addr));
  if (journal_.size() + dropped_.size() > std::max(window_4k_.size(), kJournalFloor)) {
    journal_.clear();
    dropped_.clear();
    journal_valid_ = false;
  }
  if (inserted_keys_.size() + erased_keys_.size() > sorted_keys_.size()) {
    MergeIndex();
  }
}

void SampleWindow::MergeIndex() {
  if (!erased_keys_.empty()) {
    std::sort(erased_keys_.begin(), erased_keys_.end());
    auto erased = erased_keys_.begin();
    auto out = sorted_keys_.begin();
    for (const Addr key : sorted_keys_) {
      while (erased != erased_keys_.end() && *erased < key) {
        ++erased;
      }
      if (erased == erased_keys_.end() || *erased != key) {
        *out++ = key;
      }
    }
    sorted_keys_.erase(out, sorted_keys_.end());
    erased_keys_.clear();
  }
  if (!inserted_keys_.empty()) {
    // Every key in the index now is live, and a live key enters
    // inserted_keys_ only while absent from it — so the two are disjoint
    // once repeats and since-erased keys are dropped.
    std::sort(inserted_keys_.begin(), inserted_keys_.end());
    inserted_keys_.erase(std::unique(inserted_keys_.begin(), inserted_keys_.end()),
                         inserted_keys_.end());
    std::erase_if(inserted_keys_, [this](Addr key) { return !window_4k_.Contains(key); });
    std::size_t have = sorted_keys_.size();
    std::size_t add = inserted_keys_.size();
    sorted_keys_.resize(have + add);
    for (std::size_t at = have + add; add > 0;) {
      if (have > 0 && sorted_keys_[have - 1] > inserted_keys_[add - 1]) {
        sorted_keys_[--at] = sorted_keys_[--have];
      } else {
        sorted_keys_[--at] = inserted_keys_[--add];
      }
    }
    inserted_keys_.clear();
  }
}

namespace {

// Storage cost of one flat-map entry: the dense item plus one index slot.
constexpr std::size_t kAggEntryBytes =
    sizeof(FlatMap<Addr, PageAgg>::Item) + sizeof(std::uint32_t);
constexpr std::size_t kCountEntryBytes =
    sizeof(FlatMap<std::uint64_t, std::uint32_t>::Item) + sizeof(std::uint32_t);

void AddCounts(PageAgg& out, const PageAgg& agg) {
  out.total += agg.total;
  out.dram += agg.dram;
  out.core_mask |= agg.core_mask;
  for (int n = 0; n < kMaxNodes; ++n) {
    out.req_node_counts[static_cast<std::size_t>(n)] +=
        agg.req_node_counts[static_cast<std::size_t>(n)];
  }
}

PageAgg& MappingEntry(PageAggMap& folded, const TranslateResult& mapping) {
  PageAgg& out = folded[mapping.page_base];
  out.size = mapping.size;
  out.home_node = mapping.node;
  return out;
}

}  // namespace

void SampleWindow::ShareCore(PageAgg& out, Addr page, int core) {
  ++mapping_core_refs_[CoreCountKey(page, core)];
  out.core_mask |= 1ull << core;
}

void SampleWindow::UnshareCore(PageAgg& out, Addr page, int core) {
  const std::uint64_t key = CoreCountKey(page, core);
  std::uint32_t* refs = mapping_core_refs_.Find(key);
  assert(refs != nullptr && *refs > 0);
  if (--*refs == 0) {
    mapping_core_refs_.Erase(key);
    out.core_mask &= ~(1ull << core);
  }
}

const PageAggMap& SampleWindow::FoldToMapping(const AddressSpace& address_space) {
  if (reference_) {
    // The seed engine's computation, verbatim: concatenate every epoch and
    // aggregate from scratch (the wall-clock and bit-identity baseline).
    std::vector<IbsSample> samples;
    for (const auto& epoch_samples : epochs_) {
      samples.insert(samples.end(), epoch_samples.begin(), epoch_samples.end());
    }
    folded_ = AggregateSamples(samples, address_space, AggGranularity::kMapping);
    return folded_;
  }
  if (journal_valid_ && folded_space_ == &address_space &&
      folded_generation_ == address_space.generation()) {
    ApplyJournal(address_space);
  } else {
    FullFold(address_space);
    ++full_folds_;
  }
  journal_.clear();
  dropped_.clear();
  journal_valid_ = true;
  folded_space_ = &address_space;
  folded_generation_ = address_space.generation();
  peak_fold_bytes_ = std::max(peak_fold_bytes_, folded_.size() * kAggEntryBytes +
                                                    mapping_core_refs_.size() * kCountEntryBytes);
  return folded_;
}

void SampleWindow::FullFold(const AddressSpace& address_space) {
  MergeIndex();
  const std::size_t previous = folded_.size();
  folded_.clear();
  folded_.reserve(previous);
  mapping_core_refs_.clear();
  orphans_.clear();
  // Ascending keys visit each mapping's pieces as one contiguous run, so a
  // run needs one translation and one map entry, and its per-core piece
  // counts are totalled locally and stored once.
  PageAgg* out = nullptr;
  Addr run_base = 0;
  std::uint64_t run_bytes = 0;
  std::array<std::uint32_t, 64> sharers{};
  const auto end_run = [&] {
    for (int core = 0; core < 64; ++core) {
      if (sharers[static_cast<std::size_t>(core)] != 0) {
        mapping_core_refs_[CoreCountKey(run_base, core)] += sharers[static_cast<std::size_t>(core)];
        sharers[static_cast<std::size_t>(core)] = 0;
      }
    }
  };
  for (const Addr base : sorted_keys_) {
    if (out == nullptr || base - run_base >= run_bytes) {
      const auto mapping = address_space.Translate(base);
      if (!mapping.has_value()) {
        // Unmapped since sampling: reference drops it too — until a fault
        // maps it again.
        orphans_.push_back(base);
        continue;
      }
      end_run();
      run_base = mapping->page_base;
      run_bytes = BytesOf(mapping->size);
      out = &MappingEntry(folded_, *mapping);
    }
    const PageAgg& agg = *window_4k_.Find(base);
    AddCounts(*out, agg);
    for (std::uint64_t mask = agg.core_mask; mask != 0; mask &= mask - 1) {
      ++sharers[static_cast<std::size_t>(std::countr_zero(mask))];
    }
  }
  end_run();
}

void SampleWindow::ApplyJournal(const AddressSpace& address_space) {
  // The generation is unchanged since the last fold, so every key that
  // translated then lands in the same mapping now and its journaled deltas
  // apply as they are. The last fold's orphans are the exception: one that
  // a fault has since mapped enters with its whole current aggregate, and
  // its journal entries (already inside that aggregate) are skipped.
  AddressSpace::TranslationCache cache;
  std::vector<Addr> orphans;
  for (const Addr base : orphans_) {
    const PageAgg* agg = window_4k_.Find(base);
    if (agg == nullptr) {
      continue;
    }
    const auto mapping = address_space.Translate(base, cache);
    if (!mapping.has_value()) {
      orphans.push_back(base);
      continue;
    }
    PageAgg& out = MappingEntry(folded_, *mapping);
    AddCounts(out, *agg);
    for (std::uint64_t mask = agg->core_mask; mask != 0; mask &= mask - 1) {
      ShareCore(out, mapping->page_base, std::countr_zero(mask));
    }
  }
  const auto was_orphan = [this](Addr base) {
    return !orphans_.empty() && std::binary_search(orphans_.begin(), orphans_.end(), base);
  };
  // Mappings whose total fell to 0 on the way; erased below if still 0.
  std::vector<Addr> emptied;
  for (const Delta& delta : journal_) {
    if (was_orphan(delta.base)) {
      continue;
    }
    const auto mapping = address_space.Translate(delta.base, cache);
    if (!mapping.has_value()) {
      if (window_4k_.Contains(delta.base)) {
        orphans.push_back(delta.base);
      }
      continue;
    }
    PageAgg& out = MappingEntry(folded_, *mapping);
    out.total += static_cast<std::uint64_t>(static_cast<std::int64_t>(delta.total));
    out.dram += static_cast<std::uint64_t>(static_cast<std::int64_t>(delta.dram));
    out.req_node_counts[delta.req_node] += static_cast<std::uint32_t>(delta.req);
    if (delta.core_op == Delta::Core::kSet) {
      ShareCore(out, mapping->page_base, delta.core);
    } else if (delta.core_op == Delta::Core::kCleared) {
      UnshareCore(out, mapping->page_base, delta.core);
    }
    if (out.total == 0) {
      emptied.push_back(mapping->page_base);
    }
  }
  for (const auto& [base, remainder] : dropped_) {
    if (was_orphan(base)) {
      continue;
    }
    const auto mapping = address_space.Translate(base, cache);
    if (!mapping.has_value()) {
      continue;
    }
    PageAgg& out = MappingEntry(folded_, *mapping);
    out.dram -= remainder.dram;
    for (int n = 0; n < kMaxNodes; ++n) {
      out.req_node_counts[static_cast<std::size_t>(n)] -=
          remainder.req_node_counts[static_cast<std::size_t>(n)];
    }
    for (std::uint64_t mask = remainder.core_mask; mask != 0; mask &= mask - 1) {
      UnshareCore(out, mapping->page_base, std::countr_zero(mask));
    }
  }
  // Every live 4KB key holds at least one sample, so a mapping at total 0
  // has no live keys left (and no sharers): a full fold would not produce
  // it. The journal is chronological, so a mapping that ends at 0 reached 0
  // at its last decrement.
  for (const Addr page : emptied) {
    if (const PageAgg* out = folded_.Find(page); out != nullptr && out->total == 0) {
      folded_.Erase(page);
    }
  }
  std::sort(orphans.begin(), orphans.end());
  orphans.erase(std::unique(orphans.begin(), orphans.end()), orphans.end());
  orphans_ = std::move(orphans);
}

const FlatMap<Addr, PageAgg>& SampleWindow::Map4K() const {
  if (!reference_) {
    return window_4k_;
  }
  if (!ref_4k_valid_) {
    // Rebuild from the raw epochs: the same integer sums Apply maintains
    // incrementally (a full rebuild ORs core bits directly — no retirement
    // bookkeeping needed — and produces the identical mask).
    ref_window_4k_.clear();
    for (const auto& epoch_samples : epochs_) {
      for (const IbsSample& sample : epoch_samples) {
        PageAgg& agg = ref_window_4k_[AlignDown(sample.va, kBytes4K)];
        agg.total += 1;
        agg.dram += sample.dram ? 1u : 0u;
        agg.req_node_counts[sample.req_node] += 1;
        agg.core_mask |= 1ull << (sample.core % 64);
      }
    }
    ref_4k_valid_ = true;
  }
  return ref_window_4k_;
}

namespace {

// Invokes fn(agg) for every sampled 4KB piece in [base, base + bytes).
// Narrow ranges (a 4KB or 2MB piece) probe per page; ranges wider than the
// window's population (a 1GB candidate over a sparse window) iterate the
// sampled pieces instead, so the cost is O(min(range pages, sampled
// pieces)). The consumers below compute commutative integer sums or
// existence, so the visit order difference cannot change their results.
template <typename Fn>
void ForEach4KIn(const FlatMap<Addr, PageAgg>& map, Addr base, std::uint64_t bytes, Fn&& fn) {
  if (bytes / kBytes4K > map.size()) {
    for (const auto& [page, agg] : map) {
      if (page >= base && page - base < bytes) {
        fn(agg);
      }
    }
    return;
  }
  for (Addr p = base; p < base + bytes; p += kBytes4K) {
    if (const PageAgg* agg = map.Find(p)) {
      fn(*agg);
    }
  }
}

}  // namespace

std::optional<int> SampleWindow::MajorityReqNodeIn(Addr base, std::uint64_t bytes,
                                                   std::uint64_t min_samples) const {
  std::array<std::uint64_t, kMaxNodes> counts{};
  std::uint64_t total = 0;
  ForEach4KIn(Map4K(), base, bytes, [&](const PageAgg& agg) {
    total += agg.total;
    for (int n = 0; n < kMaxNodes; ++n) {
      counts[static_cast<std::size_t>(n)] += agg.req_node_counts[static_cast<std::size_t>(n)];
    }
  });
  if (total < min_samples || total == 0) {
    return std::nullopt;
  }
  int best = 0;
  for (int n = 1; n < kMaxNodes; ++n) {
    if (counts[static_cast<std::size_t>(n)] > counts[static_cast<std::size_t>(best)]) {
      best = n;
    }
  }
  return best;
}

double SampleWindow::PieceLocalityPctIn(Addr base, std::uint64_t bytes) const {
  std::uint64_t majority = 0;
  std::uint64_t total = 0;
  ForEach4KIn(Map4K(), base, bytes, [&](const PageAgg& agg) {
    std::uint32_t piece_majority = 0;
    std::uint64_t piece_total = 0;
    for (int n = 0; n < kMaxNodes; ++n) {
      const std::uint32_t count = agg.req_node_counts[static_cast<std::size_t>(n)];
      piece_majority = std::max(piece_majority, count);
      piece_total += count;
    }
    majority += piece_majority;
    total += piece_total;
  });
  if (total == 0) {
    return -1.0;
  }
  return 100.0 * static_cast<double>(majority) / static_cast<double>(total);
}

bool SampleWindow::HasSamplesIn(Addr base, std::uint64_t bytes) const {
  bool any = false;
  ForEach4KIn(Map4K(), base, bytes, [&](const PageAgg& agg) {
    any = any || agg.total > 0;
  });
  return any;
}

std::size_t SampleWindow::peak_state_bytes() const {
  // Every aggregate and count entry is charged at its flat-map storage cost
  // — the same layout in both modes, so the exact-vs-sketch ratio is apples
  // to apples — and the fold's index, journal and persistent map at theirs.
  return peak_4k_entries_ * kAggEntryBytes + peak_core_entries_ * kCountEntryBytes +
         peak_index_bytes_ + peak_journal_bytes_ + peak_fold_bytes_ + filter_.bytes() +
         sketch_.bytes() + pending_bits_.size() * sizeof(std::uint64_t);
}

std::span<const IbsSample> SampleWindow::latest_samples() const {
  if (epochs_.empty()) {
    return {};
  }
  return std::span<const IbsSample>(epochs_.back());
}

}  // namespace numalp
