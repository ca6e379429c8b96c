// The paper's NUMA measurement vocabulary, computed from hardware counters
// and IBS samples:
//   LAR        local access ratio: % of DRAM accesses serviced by the
//              requesting core's node (Section 2.2).
//   Imbalance  stddev of per-controller request rates, % of mean.
//   PAMUP      % of (DRAM-sampled) accesses going to the most-used page.
//   NHP        number of hot pages: pages with > 6% of total accesses
//              (Section 3.1, footnote 3).
//   PSP        % of accesses to pages touched by >= 2 threads.
//   plus the conservative component's inputs: fraction of L2 misses caused
//   by page-table walks, and the max per-core share of time spent in the
//   page-fault handler.
#ifndef NUMALP_SRC_METRICS_NUMA_METRICS_H_
#define NUMALP_SRC_METRICS_NUMA_METRICS_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "src/common/flat_map.h"
#include "src/common/units.h"
#include "src/hw/counters.h"
#include "src/hw/ibs.h"
#include "src/vm/address_space.h"

namespace numalp {

inline constexpr int kMaxNodes = 16;
inline constexpr double kHotPageSharePct = 6.0;

// Granularity at which samples are folded into pages.
enum class AggGranularity {
  kMapping,  // the page size actually backing the address (what the OS sees)
  k4K,       // force 4KB pages (the "what if we split" view)
  k2M,       // force 2MB windows
};

struct PageAgg {
  std::array<std::uint32_t, kMaxNodes> req_node_counts{};
  std::uint64_t total = 0;
  std::uint64_t dram = 0;
  std::uint64_t core_mask = 0;  // bitmask of cores that touched the page
  int home_node = -1;           // current physical placement (-1 if unmapped)
  PageSize size = PageSize::k4K;

  int DistinctNodes() const;
  // Node issuing most sampled accesses to this page.
  int MajorityReqNode() const;
  // Share of the sampled accesses issued by the majority node, in percent
  // (100 when the page has no samples).
  double MajorityReqSharePct() const;
  bool SingleNode() const { return DistinctNodes() == 1; }
  int SharerCount() const;
};

// Flat open-addressing map (src/common/flat_map.h): contiguous storage, no
// per-node allocation. Iteration order is deterministic but unspecified;
// decision code that consumes RNG or budgets while iterating must use
// ForEachPageSorted for the canonical ascending-address order (DESIGN.md
// Section 7), so results do not depend on map internals.
using PageAggMap = FlatMap<Addr, PageAgg>;

// Invokes fn(Addr, const PageAgg&) for every page in ascending address
// order. This is the iteration contract for every order-sensitive consumer
// (Carrefour planning, Carrefour-LP split selection): two maps with equal
// contents always produce the same visit sequence, whatever the insertion
// or erase history that built them. Skips the sort when the map's dense
// storage is already ascending (as a full window fold leaves it; the
// journaled updates in between append and swap-erase, so then it sorts).
template <typename Fn>
void ForEachPageSorted(const PageAggMap& pages, Fn&& fn) {
  const auto ascending = [](const PageAggMap::Item& a, const PageAggMap::Item& b) {
    return a.first < b.first;
  };
  if (std::is_sorted(pages.begin(), pages.end(), ascending)) {
    for (const auto& item : pages) {
      fn(item.first, item.second);
    }
    return;
  }
  std::vector<const PageAggMap::Item*> order;
  order.reserve(pages.size());
  for (const auto& item : pages) {
    order.push_back(&item);
  }
  std::sort(order.begin(), order.end(),
            [](const PageAggMap::Item* a, const PageAggMap::Item* b) {
              return a->first < b->first;
            });
  for (const PageAggMap::Item* item : order) {
    fn(item->first, item->second);
  }
}

// Folds samples into per-page aggregates at the requested granularity.
// Samples for unmapped addresses are dropped.
PageAggMap AggregateSamples(std::span<const IbsSample> samples,
                            const AddressSpace& address_space, AggGranularity granularity);

struct NumaMetrics {
  double lar_pct = 0.0;
  double imbalance_pct = 0.0;
  double pamup_pct = 0.0;
  int nhp = 0;
  double psp_pct = 0.0;
  double walk_l2_miss_frac = 0.0;     // of all L2 misses
  double max_fault_time_share = 0.0;  // max over cores of fault cycles / wall
};

// LAR from counters (exact) plus sample-derived page metrics at the current
// mapping granularity. `epoch_wall` is the wall time the fault share is
// computed against.
NumaMetrics ComputeNumaMetrics(const EpochCounters& counters, const PageAggMap& pages,
                               Cycles epoch_wall);

// Individual helpers (used by tests and the estimators).
double LarPct(const EpochCounters& counters);
double ControllerImbalancePct(const EpochCounters& counters);
double WalkL2MissFraction(const EpochCounters& counters);
double MaxFaultTimeShare(const EpochCounters& counters, Cycles epoch_wall);
double PamupPct(const PageAggMap& pages);
int CountHotPages(const PageAggMap& pages, double threshold_pct = kHotPageSharePct);
double PspPct(const PageAggMap& pages);

}  // namespace numalp

#endif  // NUMALP_SRC_METRICS_NUMA_METRICS_H_
