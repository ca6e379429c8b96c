// Test-side model of the sample window: the seed's full re-aggregation,
// kept as the oracle for src/metrics/sample_window.h. The model holds only
// the raw per-epoch sample lists; every fold concatenates the window and
// aggregates it from scratch against the current address space, and every
// 4KB range query rebuilds the 4KB aggregate from the raw epochs. The
// production window's incremental aggregate, delta journal and sorted key
// index must reproduce these answers exactly, whatever the mapping churn.
#ifndef NUMALP_TESTS_ORACLE_REAGGREGATING_WINDOW_H_
#define NUMALP_TESTS_ORACLE_REAGGREGATING_WINDOW_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/flat_map.h"
#include "src/hw/ibs.h"
#include "src/metrics/numa_metrics.h"
#include "src/vm/address_space.h"

namespace numalp {

class ReaggregatingWindow {
 public:
  explicit ReaggregatingWindow(std::size_t max_epochs) : max_epochs_(max_epochs) {}

  // Appends one epoch, then drops the oldest once more than `max_epochs`
  // are held.
  void PushEpoch(std::vector<IbsSample> samples) {
    epochs_.push_back(std::move(samples));
    if (epochs_.size() > max_epochs_) {
      epochs_.pop_front();
    }
  }

  std::size_t epochs() const { return epochs_.size(); }

  PageAggMap FoldToMapping(const AddressSpace& address_space) const {
    std::vector<IbsSample> samples;
    for (const auto& epoch_samples : epochs_) {
      samples.insert(samples.end(), epoch_samples.begin(), epoch_samples.end());
    }
    return AggregateSamples(samples, address_space, AggGranularity::kMapping);
  }

  // The window's samples summed per 4KB page (home_node/size unset).
  FlatMap<Addr, PageAgg> Map4K() const {
    FlatMap<Addr, PageAgg> map;
    for (const auto& epoch_samples : epochs_) {
      for (const IbsSample& sample : epoch_samples) {
        PageAgg& agg = map[AlignDown(sample.va, kBytes4K)];
        agg.total += 1;
        agg.dram += sample.dram ? 1u : 0u;
        agg.req_node_counts[sample.req_node] += 1;
        agg.core_mask |= 1ull << (sample.core % 64);
      }
    }
    return map;
  }

  // Per-node sample counts over the 4KB pages in [base, base + bytes), and
  // their total.
  std::pair<std::array<std::uint64_t, kMaxNodes>, std::uint64_t> RangeCounts(
      Addr base, std::uint64_t bytes) const {
    std::array<std::uint64_t, kMaxNodes> counts{};
    std::uint64_t total = 0;
    for (const auto& [page, agg] : Map4K()) {
      if (page >= base && page - base < bytes) {
        total += agg.total;
        for (int n = 0; n < kMaxNodes; ++n) {
          counts[static_cast<std::size_t>(n)] += agg.req_node_counts[static_cast<std::size_t>(n)];
        }
      }
    }
    return {counts, total};
  }

  std::optional<int> MajorityReqNodeIn(Addr base, std::uint64_t bytes,
                                       std::uint64_t min_samples = 1) const {
    const auto [counts, total] = RangeCounts(base, bytes);
    if (total < min_samples || total == 0) {
      return std::nullopt;
    }
    // Lowest node wins ties.
    return static_cast<int>(std::max_element(counts.begin(), counts.end()) - counts.begin());
  }

  bool HasSamplesIn(Addr base, std::uint64_t bytes) const {
    return RangeCounts(base, bytes).second > 0;
  }

 private:
  std::size_t max_epochs_;
  std::deque<std::vector<IbsSample>> epochs_;
};

}  // namespace numalp

#endif  // NUMALP_TESTS_ORACLE_REAGGREGATING_WINDOW_H_
