// Test-side model of the access generator: the seed's one-call-per-access
// algorithm, kept verbatim as the oracle for Workload's run-batched
// generator. Every steady-state access draws its region from the share CDF,
// then its page by the region's pattern, then the intra-page offset and the
// write flag, one call at a time; barrier spins draw one offset per call.
// The model drives a Workload's own state (regions, per-thread RNG streams,
// setup queues and cursors) through that class's test-only friend
// declaration, so a model and a production Workload built from the same
// spec and seed must emit byte-identical access streams.
#ifndef NUMALP_TESTS_ORACLE_PER_CALL_GENERATOR_H_
#define NUMALP_TESTS_ORACLE_PER_CALL_GENERATOR_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/workloads/workload.h"

namespace numalp {

class PerCallGenerator {
 public:
  // `workload` supplies the generator state; drive it only through this
  // model from here on.
  explicit PerCallGenerator(Workload& workload) : w_(workload) {}

  void BeginEpoch() { w_.BeginEpoch(); }
  bool SetupDone() const { return w_.SetupDone(); }

  void FillBatch(int thread, std::size_t n, std::vector<WorkloadAccess>& out) {
    out.clear();
    Workload::ThreadRt& state = w_.threads_[static_cast<std::size_t>(thread)];
    std::size_t produced = 0;
    while (state.setup_cursor < state.setup.size() && produced < n) {
      const auto [region_index, page] = state.setup[state.setup_cursor++];
      const Workload::RegionRt& region = w_.regions_[region_index];
      WorkloadAccess access;
      access.va = w_.PageVa(region, page, state.rng);
      access.region = static_cast<std::uint8_t>(region_index);
      access.write = true;
      out.push_back(access);
      ++produced;
      if (state.setup_cursor == state.setup.size()) {
        --w_.setup_remaining_threads_;
      }
    }
    if (w_.barrier_this_epoch_) {
      const Addr spin_page = w_.scratch_base_ + static_cast<std::uint64_t>(thread) * kBytes4K;
      while (produced < n) {
        WorkloadAccess access;
        access.va = spin_page + state.rng.Uniform(kBytes4K / 64) * 64;
        access.region = static_cast<std::uint8_t>(w_.scratch_region_);
        access.write = false;
        out.push_back(access);
        ++produced;
      }
      return;
    }
    for (; produced < n; ++produced) {
      out.push_back(SteadyAccess(thread));
      ++state.steady_issued;
    }
  }

 private:
  WorkloadAccess SteadyAccess(int thread) {
    Workload::ThreadRt& state = w_.threads_[static_cast<std::size_t>(thread)];
    Rng& rng = state.rng;
    // Region by access share.
    const double u = rng.NextDouble();
    std::size_t region_index = 0;
    while (region_index + 1 < w_.share_cdf_.size() && w_.share_cdf_[region_index] <= u) {
      ++region_index;
    }
    const Workload::RegionRt& region = w_.regions_[region_index];
    const RegionSpec& rspec = *region.spec;

    std::uint64_t page = 0;
    if (rspec.incremental) {
      std::uint64_t& cursor = state.alloc_cursor[region_index];
      const std::uint64_t slice_lo =
          static_cast<std::uint64_t>(thread) * region.slice_pages;
      const bool can_grow = cursor < region.slice_pages;
      const bool fresh = can_grow && (cursor == 0 || rng.Bernoulli(rspec.fresh_fraction));
      if (fresh) {
        page = slice_lo + cursor;
        ++cursor;
      } else {
        page = slice_lo + rng.Uniform(std::max<std::uint64_t>(1, cursor));
      }
    } else {
      switch (rspec.pattern) {
        case PatternKind::kUniform:
          page = rng.Uniform(region.pages);
          break;
        case PatternKind::kZipf: {
          const std::uint64_t rank = region.zipf->Sample(rng);
          if (region.zipf_stride != 0) {
            const std::uint64_t blocks =
                static_cast<std::uint64_t>(rspec.zipf_block_shuffle);
            page = (rank % blocks) * region.zipf_stride + rank / blocks;
            if (page >= region.pages) {
              page = rank;  // tail ranks past the blocked area map identically
            }
          } else {
            // Identity rank -> page: hot pages cluster at the region start,
            // the way early-allocated hot objects cluster in heaps.
            page = rank;
          }
          break;
        }
        case PatternKind::kHotChunks: {
          const std::uint64_t chunk = rng.Uniform(static_cast<std::uint64_t>(region.chunks));
          page = chunk * region.stride_pages + rng.Uniform(region.chunk_pages);
          break;
        }
        case PatternKind::kPartitioned: {
          std::uint64_t slice = static_cast<std::uint64_t>(thread);
          if (!rng.Bernoulli(rspec.local_fraction)) {
            // Boundary sharing with a neighbouring thread's slice.
            const int neighbor = rng.Bernoulli(0.5) ? thread + 1 : thread + w_.num_threads_ - 1;
            slice = static_cast<std::uint64_t>(neighbor % w_.num_threads_);
          }
          page = slice * region.slice_pages + rng.Uniform(std::max<std::uint64_t>(1, region.slice_pages));
          break;
        }
        case PatternKind::kSequential: {
          std::uint64_t& cursor = state.seq_cursor[region_index];
          const std::uint64_t slice_lo =
              static_cast<std::uint64_t>(thread) * region.slice_pages;
          page = slice_lo + cursor;
          // A stream touches ~16 cache lines per page before moving on, so the
          // page advances once per ~16 modelled accesses (TLB-realistic).
          if (rng.Bernoulli(1.0 / 16)) {
            cursor = (cursor + 1) % std::max<std::uint64_t>(1, region.slice_pages);
          }
          break;
        }
      }
    }
    WorkloadAccess access;
    access.va = w_.PageVa(region, page, rng);
    access.region = static_cast<std::uint8_t>(region_index);
    access.write = rng.Bernoulli(w_.spec_.write_fraction);
    return access;
  }

  Workload& w_;
};

}  // namespace numalp

#endif  // NUMALP_TESTS_ORACLE_PER_CALL_GENERATOR_H_
