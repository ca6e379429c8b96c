// Test-side model of the TLB: the seed's scalar algorithms, kept verbatim
// as the oracle for src/hw/tlb.h. A probe scans every way of the set for a
// matching tag; every touch stamps the way with a per-TLB tick, and a
// full-set install evicts the way with the oldest stamp (the first empty way
// wins while one exists). The production TLB replaces both with per-set
// summary words (SWAR signatures, rank LRU, occupancy mask) and must stay
// lookup-, eviction- and occupancy-identical to this model under any
// operation stream.
#ifndef NUMALP_TESTS_ORACLE_SCALAR_TLB_H_
#define NUMALP_TESTS_ORACLE_SCALAR_TLB_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/units.h"
#include "src/hw/tlb.h"

namespace numalp {

class ScalarTlb {
 public:
  explicit ScalarTlb(const TlbConfig& config) {
    l1_4k_.Init(config.l1_4k_sets, config.l1_4k_ways);
    l1_2m_.Init(config.l1_2m_sets, config.l1_2m_ways);
    l1_1g_.Init(config.l1_1g_sets, config.l1_1g_ways);
    l2_.Init(config.l2_sets, config.l2_ways);
  }

  TlbLookup Lookup(Addr va) {
    ++lookups_;
    ++tick_;
    const std::uint64_t vpn4k = va >> kShift4K;
    const std::uint64_t vpn2m = va >> kShift2M;
    const std::uint64_t vpn1g = va >> kShift1G;

    if (l1_4k_.live != 0) {
      if (std::size_t at = l1_4k_.Find(vpn4k, l1_4k_.SetIndex(vpn4k)); at != kNoEntry) {
        Payload& p = l1_4k_.payloads[at];
        l1_4k_.last_used[at] = tick_;
        return TlbLookup{TlbHitLevel::kL1, p.pfn, static_cast<int>(p.node), PageSize::k4K};
      }
    }
    if (l1_2m_.live != 0) {
      if (std::size_t at = l1_2m_.Find(vpn2m, l1_2m_.SetIndex(vpn2m)); at != kNoEntry) {
        Payload& p = l1_2m_.payloads[at];
        l1_2m_.last_used[at] = tick_;
        return TlbLookup{TlbHitLevel::kL1, p.pfn, static_cast<int>(p.node), PageSize::k2M};
      }
    }
    if (l1_1g_.live != 0) {
      if (std::size_t at = l1_1g_.Find(vpn1g, l1_1g_.SetIndex(vpn1g)); at != kNoEntry) {
        Payload& p = l1_1g_.payloads[at];
        l1_1g_.last_used[at] = tick_;
        return TlbLookup{TlbHitLevel::kL1, p.pfn, static_cast<int>(p.node), PageSize::k1G};
      }
    }
    // Unified L2: tags disambiguate page size.
    const std::uint64_t l2_tag_4k = (vpn4k << 1) | 0;
    const std::uint64_t l2_tag_2m = (vpn2m << 1) | 1;
    if (l2_.live_parity[0] != 0) {
      if (std::size_t at = l2_.Find(l2_tag_4k, l2_.SetIndex(vpn4k)); at != kNoEntry) {
        Payload& p = l2_.payloads[at];
        l2_.last_used[at] = tick_;
        l1_4k_.Install(vpn4k, l1_4k_.SetIndex(vpn4k), p.pfn, static_cast<int>(p.node), tick_);
        return TlbLookup{TlbHitLevel::kL2, p.pfn, static_cast<int>(p.node), PageSize::k4K};
      }
    }
    if (l2_.live_parity[1] != 0) {
      if (std::size_t at = l2_.Find(l2_tag_2m, l2_.SetIndex(vpn2m)); at != kNoEntry) {
        Payload& p = l2_.payloads[at];
        l2_.last_used[at] = tick_;
        l1_2m_.Install(vpn2m, l1_2m_.SetIndex(vpn2m), p.pfn, static_cast<int>(p.node), tick_);
        return TlbLookup{TlbHitLevel::kL2, p.pfn, static_cast<int>(p.node), PageSize::k2M};
      }
    }
    return TlbLookup{};
  }

  void Insert(Addr va, PageSize size, Pfn pfn, int node) {
    ++tick_;
    switch (size) {
      case PageSize::k4K: {
        const std::uint64_t vpn = va >> kShift4K;
        l1_4k_.Install(vpn, l1_4k_.SetIndex(vpn), pfn, node, tick_);
        l2_.Install((vpn << 1) | 0, l2_.SetIndex(vpn), pfn, node, tick_);
        break;
      }
      case PageSize::k2M: {
        const std::uint64_t vpn = va >> kShift2M;
        l1_2m_.Install(vpn, l1_2m_.SetIndex(vpn), pfn, node, tick_);
        l2_.Install((vpn << 1) | 1, l2_.SetIndex(vpn), pfn, node, tick_);
        break;
      }
      case PageSize::k1G: {
        const std::uint64_t vpn = va >> kShift1G;
        l1_1g_.Install(vpn, l1_1g_.SetIndex(vpn), pfn, node, tick_);
        break;
      }
    }
  }

  void InvalidatePage(Addr page_base, PageSize size) {
    const auto clear = [](Array& array, std::uint64_t tag, std::uint64_t set_index) {
      const std::size_t at = array.Find(tag, set_index);
      if (at == kNoEntry) {
        return;
      }
      array.Drop(at);
    };
    switch (size) {
      case PageSize::k4K: {
        const std::uint64_t vpn = page_base >> kShift4K;
        clear(l1_4k_, vpn, l1_4k_.SetIndex(vpn));
        clear(l2_, (vpn << 1) | 0, l2_.SetIndex(vpn));
        break;
      }
      case PageSize::k2M: {
        const std::uint64_t vpn = page_base >> kShift2M;
        clear(l1_2m_, vpn, l1_2m_.SetIndex(vpn));
        clear(l2_, (vpn << 1) | 1, l2_.SetIndex(vpn));
        break;
      }
      case PageSize::k1G: {
        const std::uint64_t vpn = page_base >> kShift1G;
        clear(l1_1g_, vpn, l1_1g_.SetIndex(vpn));
        break;
      }
    }
  }

  // Drops every translation whose page overlaps [base, base + bytes): a
  // scan of every entry of every array.
  void InvalidateRange(Addr base, std::uint64_t bytes) {
    const Addr end = base + bytes;
    const auto overlaps = [&](Addr va, int va_shift) {
      return va < end && va + (1ull << va_shift) > base;
    };
    const auto sweep = [&](Array& array, int va_shift) {
      for (std::size_t at = 0; at < array.tags.size(); ++at) {
        const std::uint64_t tag = array.tags[at];
        if (tag != kInvalidTag && overlaps(tag << va_shift, va_shift)) {
          array.Drop(at);
        }
      }
    };
    sweep(l1_4k_, kShift4K);
    sweep(l1_2m_, kShift2M);
    sweep(l1_1g_, kShift1G);
    for (std::size_t at = 0; at < l2_.tags.size(); ++at) {
      const std::uint64_t tag = l2_.tags[at];
      const int va_shift = (tag & 1) != 0 ? kShift2M : kShift4K;
      if (tag != kInvalidTag && overlaps((tag >> 1) << va_shift, va_shift)) {
        l2_.Drop(at);
      }
    }
  }

  void FlushAll() {
    l1_4k_.Flush();
    l1_2m_.Flush();
    l1_1g_.Flush();
    l2_.Flush();
  }

  std::uint64_t lookups() const { return lookups_; }

  TlbOccupancy DebugOccupancy() const {
    return TlbOccupancy{l1_4k_.live, l1_2m_.live, l1_1g_.live, l2_.live_parity[0],
                        l2_.live_parity[1]};
  }

 private:
  static constexpr std::uint64_t kInvalidTag = ~0ull;
  static constexpr std::size_t kNoEntry = ~static_cast<std::size_t>(0);

  struct Payload {
    Pfn pfn = 0;
    std::uint32_t node = 0;
  };

  struct Array {
    int sets = 0;
    int ways = 0;
    std::vector<std::uint64_t> tags;  // sets * ways, kInvalidTag = empty
    std::vector<Payload> payloads;
    std::vector<std::uint64_t> last_used;  // LRU timestamps
    std::uint64_t live = 0;
    std::uint64_t live_parity[2] = {0, 0};

    void Init(int s, int w) {
      sets = s;
      ways = w;
      const std::size_t n = static_cast<std::size_t>(s) * static_cast<std::size_t>(w);
      tags.assign(n, kInvalidTag);
      payloads.assign(n, Payload{});
      last_used.assign(n, 0);
    }

    std::uint64_t SetIndex(std::uint64_t value) const {
      return value % static_cast<std::uint64_t>(sets);
    }

    // Index of `tag` within the set, or kNoEntry (first matching way).
    std::size_t Find(std::uint64_t tag, std::uint64_t set_index) const {
      const std::size_t base = set_index * static_cast<std::size_t>(ways);
      for (int w = 0; w < ways; ++w) {
        if (tags[base + static_cast<std::size_t>(w)] == tag) {
          return base + static_cast<std::size_t>(w);
        }
      }
      return kNoEntry;
    }

    void Install(std::uint64_t tag, std::uint64_t set_index, Pfn pfn, int node,
                 std::uint64_t tick) {
      const std::size_t base = set_index * static_cast<std::size_t>(ways);
      std::size_t victim = base;
      for (int w = 0; w < ways; ++w) {
        const std::size_t at = base + static_cast<std::size_t>(w);
        if (tags[at] == kInvalidTag) {
          victim = at;
          break;
        }
        if (last_used[at] < last_used[victim]) {
          victim = at;
        }
      }
      if (tags[victim] == kInvalidTag) {
        ++live;
      } else {
        --live_parity[tags[victim] & 1];
      }
      ++live_parity[tag & 1];
      tags[victim] = tag;
      payloads[victim].pfn = pfn;
      payloads[victim].node = static_cast<std::uint32_t>(node);
      last_used[victim] = tick;
    }

    void Drop(std::size_t at) {
      --live;
      --live_parity[tags[at] & 1];
      tags[at] = kInvalidTag;
    }

    void Flush() {
      for (auto& tag : tags) {
        tag = kInvalidTag;
      }
      live = 0;
      live_parity[0] = live_parity[1] = 0;
    }
  };

  Array l1_4k_;
  Array l1_2m_;
  Array l1_1g_;
  Array l2_;  // tag includes the page size
  std::uint64_t tick_ = 0;
  std::uint64_t lookups_ = 0;
};

}  // namespace numalp

#endif  // NUMALP_TESTS_ORACLE_SCALAR_TLB_H_
