// Declarative workload model.
//
// The paper attributes every observed effect to measurable properties of the
// benchmarks' memory streams: footprint (TLB pressure), allocation intensity
// (page-fault cost), per-thread partitioning (first-touch locality and
// page-level false sharing), hot chunks coalescing into few large pages (the
// hot-page effect), and popularity skew clustered at low addresses (THP
// imbalance). A WorkloadSpec expresses a benchmark as a set of regions with
// those properties; suite.cc instantiates the paper's 20 benchmarks.
#ifndef NUMALP_SRC_WORKLOADS_SPEC_H_
#define NUMALP_SRC_WORKLOADS_SPEC_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/units.h"
#include "src/topo/topology.h"
#include "src/vm/address_space.h"

namespace numalp {

enum class PatternKind : std::uint8_t {
  kUniform,     // uniform random over the region (graph traversal, bucket sort)
  kZipf,        // Zipf-popular pages clustered at the region start (heaps,
                // hash tables: hot objects are allocated early and adjacent)
  kHotChunks,   // all threads hammer a small set of fixed-address chunks
                // (reduction vectors, communication buffers) — the paper's
                // hot-page generator once chunks coalesce into one large page
  kPartitioned, // each thread owns a contiguous slice, with boundary sharing
  kSequential,  // each thread streams through its slice in order
};

// Which thread performs the first touch of each page during the setup phase.
enum class SetupOwner : std::uint8_t {
  kRoundRobinPage,  // parallel init loop: page p touched by thread p % T
  kPartitionOwner,  // each thread initializes its own slice
  kChunkOwner,      // chunk c initialized by thread c % T
  kThreadZero,      // master-thread initialization (the classic NUMA trap)
};

struct RegionSpec {
  std::string name;
  std::uint64_t bytes = 0;
  // Fraction of steady-state accesses that target this region.
  double access_share = 0.0;
  PatternKind pattern = PatternKind::kUniform;
  double zipf_s = 0.8;  // kZipf skew
  // kZipf layout: 0 = hot ranks cluster at the region start (early-allocated
  // hot objects, maximal THP coarsening). B > 0 = block-interleaved layout:
  // rank r lands on page (r % B) * (pages / B) + r / B, spreading the hot
  // head over B spaced pages — hot *pages* still coalesce into hot 2MB
  // windows under THP, but no single window dominates (heaps and vertex
  // arrays whose hot objects are scattered by the allocator).
  int zipf_block_shuffle = 0;
  double local_fraction = 0.9;  // kPartitioned: P(access own slice)
  std::uint64_t chunk_bytes = 16 * kKiB;    // kHotChunks geometry
  std::uint64_t chunk_stride = 256 * kKiB;  // chunk c starts at c * stride
  int num_chunks = 0;                       // 0 -> one per thread
  // Probability that a DRAM request (cache miss) results from an access to
  // this region; abstracts the cache hierarchy per region (documented in
  // DESIGN.md Section 3).
  double dram_intensity = 0.5;
  // Memory-level parallelism: how many translations the core overlaps when
  // accessing this region. Exposed page-walk cost divides by this —
  // independent scatters (bucket sort, blocked GEMM) hide walks almost
  // entirely; pointer chasing (graphs, Java heaps) exposes them.
  double mlp = 1.0;
  SetupOwner setup_owner = SetupOwner::kRoundRobinPage;
  bool thp_eligible = true;  // false for file-backed mappings (THP skips them)
  std::optional<PageSize> explicit_page;  // libhugetlbfs-style 2MB/1GB backing
  // Allocation-intensive region: pages are first touched gradually during the
  // steady state (per-thread arenas), not in the setup phase.
  bool incremental = false;
  double fresh_fraction = 0.5;  // incremental: P(access touches a fresh page)
};

struct WorkloadSpec {
  std::string name;
  // Steady-state work budget per thread; the run ends when every thread has
  // issued this many steady accesses (setup touches are extra).
  std::uint64_t steady_accesses_per_thread = 120'000;
  double write_fraction = 0.3;
  std::vector<RegionSpec> regions;
  // Trace replay: when set, the simulation ignores `regions` and replays the
  // recorded stream via TraceWorkload (DESIGN.md §14). `name` carries the
  // recorded workload name so replayed rows keep the original coordinates.
  std::string trace_file;
  // Trace capture: when set, the simulation records its access stream (at the
  // serial batch-commit points) into this file via TraceWriter.
  std::string capture_file;

  // Sum of access shares (regions are normalized against this).
  double TotalShare() const;
};

// The paper's benchmark suite (Section 2.1): NAS, Metis MapReduce, SSCA v2.2,
// SPECjbb, plus streamcluster for the 1GB-page study (Section 4.4).
enum class BenchmarkId {
  kBT_B,
  kCG_D,
  kDC_A,
  kEP_C,
  kFT_C,
  kIS_D,
  kLU_B,
  kMG_D,
  kSP_B,
  kUA_B,
  kUA_C,
  kWC,
  kWR,
  kKmeans,
  kMatrixMultiply,
  kPca,
  kWrmem,
  kSSCA,
  kSPECjbb,
  kStreamcluster,
  // Synthetic sparse-footprint stressor (not a paper benchmark, and not part
  // of FullSuite): a huge thread-partitioned cold region touched nearly
  // uniformly — stand-in for TB-scale footprints where exact per-4KB
  // profiling state explodes — plus a small all-thread hot-chunk set that
  // carries every actionable placement decision. Cold pages are strictly
  // local and below every Carrefour threshold, so a sketch profile that
  // drops them makes the same decisions exact mode makes while tracking an
  // order of magnitude less state (asserted by tests/sketch_filter_test.cc,
  // SparseFootprintStateReductionTest).
  kSparseFootprint,
};

std::string_view NameOf(BenchmarkId id);

// Builds the synthetic model of `id` for a machine with `topo`. Footprints
// are pre-scaled by the repository's global 1/48 memory scale (DESIGN.md).
WorkloadSpec MakeWorkloadSpec(BenchmarkId id, const Topology& topo);

// Figure 1's full suite (everything except streamcluster).
std::vector<BenchmarkId> FullSuite();
// Figures 2-4: applications whose LAR or imbalance is degraded > 15% by THP.
std::vector<BenchmarkId> AffectedSubset();
// Figure 5: the remaining applications.
std::vector<BenchmarkId> UnaffectedSubset();

}  // namespace numalp

#endif  // NUMALP_SRC_WORKLOADS_SPEC_H_
