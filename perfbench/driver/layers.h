// The traced layer replay. Layers inside Simulation::Run cannot be timed
// from outside it, so the traced mode re-drives each cell's access stream
// (same spec, same seed, so the same accesses and region events) through
// the layers' public functions in phase-separated, batch-sized passes —
// fill, page-table lookup + Touch, Translate, TLB, IBS, then the epoch-end
// policy chain — with one span per pass. The replay's placement decisions
// approximate the engine's (no cycle-accurate interleaving); what it pins
// exactly is the stream: its access, epoch and region-event counts must
// equal the cell's RunResult.
#ifndef PERFBENCH_DRIVER_LAYERS_H_
#define PERFBENCH_DRIVER_LAYERS_H_

#include <cstdint>
#include <string>

#include "perfbench/driver/spans.h"
#include "src/core/runner.h"

namespace perfbench {

// Operation counts of one replay (summed across cells by operator+=). The
// matching host times live in the span log under the layer's span name.
struct LayerCounts {
  std::uint64_t epochs = 0;
  std::uint64_t accesses = 0;
  std::uint64_t region_maps = 0;
  std::uint64_t region_unmaps = 0;
  std::uint64_t pt_lookups = 0;
  std::uint64_t touches = 0;
  std::uint64_t touch_faults = 0;
  std::uint64_t tlb_lookups = 0;
  std::uint64_t tlb_hits = 0;
  std::uint64_t tlb_inserts = 0;
  std::int64_t tlb_insert_ns = 0;  // insert-only replay into a TLB copy
  std::uint64_t ibs_samples = 0;
  std::uint64_t window_pushed_samples = 0;
  std::uint64_t folds = 0;
  std::uint64_t plans = 0;
  std::uint64_t plan_actions = 0;
  std::uint64_t lp_steps = 0;
  std::uint64_t migrations = 0;
  std::uint64_t migrate_fails = 0;
  std::uint64_t splits = 0;
  std::uint64_t split_fails = 0;
  std::uint64_t promote_passes = 0;  // epochs that scanned or re-promoted
  std::uint64_t munmap_bytes = 0;
  std::uint64_t phys_inits = 0;
  std::uint64_t buddy_allocs = 0;
  std::uint64_t buddy_alloc_fails = 0;
  std::uint64_t buddy_frees = 0;
  std::int64_t buddy_alloc_ns = 0;
  std::int64_t buddy_free_ns = 0;
  std::uint64_t encoded_accesses = 0;

  LayerCounts& operator+=(const LayerCounts& other);
};

// Replays `spec`'s stream through the layers, recording spans into `log`
// under cell id `cell`. When `capture_path` is non-empty the stream is also
// written there through TraceWriter (the trace layer's write side).
LayerCounts ReplayCell(const numalp::RunSpec& spec, int cell, const std::string& capture_path,
                       SpanLog& log);

// The trace layer's read side over `path`: header read + reader
// construction, then every epoch decoded. Returns the decoded access count.
std::uint64_t DecodeTrace(const std::string& path, SpanLog& log);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_LAYERS_H_
