#include "perfbench/driver/layers.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/carrefour/carrefour.h"
#include "src/common/count_sketch.h"
#include "src/common/rng.h"
#include "src/core/carrefour_lp.h"
#include "src/core/lar_estimator.h"
#include "src/hw/counters.h"
#include "src/hw/ibs.h"
#include "src/hw/tlb.h"
#include "src/hw/walker.h"
#include "src/mem/phys_mem.h"
#include "src/metrics/numa_metrics.h"
#include "src/metrics/sample_window.h"
#include "src/trace/trace_reader.h"
#include "src/trace/trace_writer.h"
#include "src/vm/address_space.h"
#include "src/vm/thp.h"
#include "src/workloads/trace_workload.h"
#include "src/workloads/workload.h"

namespace perfbench {

using numalp::Addr;
using numalp::PageSize;
using numalp::Pfn;

LayerCounts& LayerCounts::operator+=(const LayerCounts& o) {
  epochs += o.epochs;
  accesses += o.accesses;
  region_maps += o.region_maps;
  region_unmaps += o.region_unmaps;
  pt_lookups += o.pt_lookups;
  touches += o.touches;
  touch_faults += o.touch_faults;
  tlb_lookups += o.tlb_lookups;
  tlb_hits += o.tlb_hits;
  tlb_inserts += o.tlb_inserts;
  tlb_insert_ns += o.tlb_insert_ns;
  ibs_samples += o.ibs_samples;
  window_pushed_samples += o.window_pushed_samples;
  folds += o.folds;
  plans += o.plans;
  plan_actions += o.plan_actions;
  lp_steps += o.lp_steps;
  migrations += o.migrations;
  migrate_fails += o.migrate_fails;
  splits += o.splits;
  split_fails += o.split_fails;
  promote_passes += o.promote_passes;
  munmap_bytes += o.munmap_bytes;
  phys_inits += o.phys_inits;
  buddy_allocs += o.buddy_allocs;
  buddy_alloc_fails += o.buddy_alloc_fails;
  buddy_frees += o.buddy_frees;
  buddy_alloc_ns += o.buddy_alloc_ns;
  buddy_free_ns += o.buddy_free_ns;
  encoded_accesses += o.encoded_accesses;
  return *this;
}

namespace {

// The buddy allocator is reached only from inside AddressSpace, so its cost
// is measured on a shadow PhysicalMemory of the same topology that replays
// the frame operations the VM layer's results imply (fault allocations,
// migration copies, splits, promotions, munmap frees). Operations are
// queued during the epoch and executed at its end, each run of consecutive
// allocations or frees timed as one batch.
numalp::PhysicalMemory TimedPhysicalMemory(const numalp::Topology& topo, SpanLog& log, int cell,
                                           LayerCounts& counts) {
  Scoped span(&log, "mem.phys_init", cell);
  ++counts.phys_inits;
  return numalp::PhysicalMemory(topo);
}

class ShadowBuddy {
 public:
  ShadowBuddy(const numalp::Topology& topo, SpanLog& log, int cell, LayerCounts& counts)
      : phys_(TimedPhysicalMemory(topo, log, cell, counts)), counts_(counts) {}

  void Alloc(Addr page, int order, int node) { ops_.push_back({Op::kAlloc, page, order, node}); }
  // A large-page attempt the real allocator failed and fell back from.
  void Probe(int order, int node) { ops_.push_back({Op::kProbe, 0, order, node}); }
  void Free(Addr page) { ops_.push_back({Op::kFree, page}); }
  // Migration and promotion: allocate the new frame under `page` on exactly
  // `node`, then free the old frame — or, for a promotion (`pieces` = 512),
  // every 4KB piece of the window.
  void Move(Addr page, int order, int node, int pieces) {
    ops_.push_back({Op::kStage, page, order, node});
    ops_.push_back({Op::kCommit, page, 0, 0, pieces});
  }
  void Split(Addr page, int from_order, int to_order) {
    ops_.push_back({Op::kSplit, page, from_order, 0, 0, to_order});
  }

  void Flush() {
    std::size_t i = 0;
    while (i < ops_.size()) {
      const bool alloc = ops_[i].IsAlloc();
      const std::int64_t start = NowNs();
      std::size_t j = i;
      for (; j < ops_.size() && ops_[j].IsAlloc() == alloc; ++j) {
        Execute(ops_[j]);
      }
      (alloc ? counts_.buddy_alloc_ns : counts_.buddy_free_ns) += NowNs() - start;
      i = j;
    }
    ops_.clear();
  }

 private:
  struct Op {
    enum Kind { kAlloc, kProbe, kStage, kFree, kCommit, kSplit } kind;
    Addr page = 0;
    int order = 0;
    int node = 0;
    int pieces = 0;    // kCommit
    int to_order = 0;  // kSplit
    bool IsAlloc() const { return kind == kAlloc || kind == kProbe || kind == kStage; }
  };
  struct Frame {
    Pfn pfn;
    int order;
  };

  std::optional<Pfn> AllocFrame(const Op& op) {
    ++counts_.buddy_allocs;
    std::optional<Pfn> pfn;
    if (op.kind == Op::kStage) {
      pfn = phys_.AllocOnNode(op.order, op.node);
    } else if (auto got = phys_.Alloc(op.order, op.node)) {
      pfn = got->pfn;
    }
    if (!pfn.has_value()) {
      ++counts_.buddy_alloc_fails;
    }
    return pfn;
  }
  void FreeFrame(Addr page) {
    const auto it = frames_.find(page);
    if (it != frames_.end()) {
      phys_.Free(it->second.pfn, it->second.order);
      frames_.erase(it);
      ++counts_.buddy_frees;
    }
  }

  void Execute(const Op& op) {
    switch (op.kind) {
      case Op::kAlloc:
        if (const auto pfn = AllocFrame(op)) {
          frames_[op.page] = {*pfn, op.order};
        }
        break;
      case Op::kProbe:
        if (const auto pfn = AllocFrame(op)) {
          phys_.Free(*pfn, op.order);  // the shadow had room where the real one did not
        }
        break;
      case Op::kStage:
        if (const auto pfn = AllocFrame(op)) {
          staged_[op.page] = {*pfn, op.order};
        }
        break;
      case Op::kFree:
        FreeFrame(op.page);
        break;
      case Op::kCommit: {
        const auto it = staged_.find(op.page);
        if (it == staged_.end()) {
          break;  // the shadow allocation failed: the old frame stays
        }
        for (int p = 0; p < op.pieces; ++p) {
          FreeFrame(op.page + static_cast<Addr>(p) * numalp::kBytes4K);
        }
        frames_[op.page] = it->second;
        staged_.erase(it);
        break;
      }
      case Op::kSplit: {
        const auto it = frames_.find(op.page);
        if (it == frames_.end() || it->second.order != op.order) {
          break;
        }
        const Frame frame = it->second;
        phys_.SplitAllocated(frame.pfn, op.order, op.to_order);
        const int to_order = op.to_order;
        const std::uint64_t pieces = 1ull << (op.order - to_order);
        for (std::uint64_t p = 0; p < pieces; ++p) {
          frames_[op.page + (p << (numalp::kShift4K + to_order))] = {
              frame.pfn + (p << to_order), to_order};
        }
        break;
      }
    }
  }

  numalp::PhysicalMemory phys_;
  LayerCounts& counts_;
  std::vector<Op> ops_;
  std::unordered_map<Addr, Frame> frames_;
  std::unordered_map<Addr, Frame> staged_;
};

int CoreOfThread(const numalp::Topology& topo, int thread) {
  // The engine's round-robin pinning across CPU-bearing nodes.
  const std::vector<int>& cpu = topo.cpu_nodes();
  const int n = static_cast<int>(cpu.size());
  return topo.node(cpu[static_cast<std::size_t>(thread % n)]).first_core + thread / n;
}

}  // namespace

LayerCounts ReplayCell(const numalp::RunSpec& spec, int cell, const std::string& capture_path,
                       SpanLog& log) {
  Scoped cell_span(&log, "replay.cell", cell);
  LayerCounts counts;
  const numalp::Topology& topo = spec.topo;
  const numalp::SimConfig& sim = spec.sim;
  const numalp::PolicyConfig& policy = spec.policy;
  const int cores = topo.num_cores();
  const int nodes = topo.num_nodes();

  numalp::PhysicalMemory phys = TimedPhysicalMemory(topo, log, cell, counts);
  ShadowBuddy shadow(topo, log, cell, counts);
  numalp::ThpState thp;
  thp.alloc_enabled = policy.initial_thp_alloc;
  thp.promote_enabled = policy.initial_thp_promote;
  numalp::AddressSpace as(phys, topo, thp);

  std::unique_ptr<numalp::AccessSource> source;
  {
    Scoped span(&log, "workloads.open", cell);
    if (!spec.workload.trace_file.empty()) {
      source = std::make_unique<numalp::TraceWorkload>(spec.workload.trace_file, as, cores);
    } else {
      source = std::make_unique<numalp::Workload>(spec.workload, as, cores, sim.seed);
    }
  }
  std::unique_ptr<numalp::trace::TraceWriter> writer;
  if (!capture_path.empty()) {
    Scoped span(&log, "trace.encode", cell);
    numalp::trace::TraceHeader header;
    header.machine = topo.name();
    header.workload = spec.workload.name;
    header.seed = sim.seed;
    header.threads = static_cast<std::uint32_t>(cores);
    header.accesses_per_thread_per_epoch =
        static_cast<std::uint32_t>(sim.accesses_per_thread_per_epoch);
    for (int r = 0; r < source->num_regions(); ++r) {
      header.regions.push_back(source->region(r));
    }
    writer = std::make_unique<numalp::trace::TraceWriter>(capture_path, header);
  }

  std::vector<numalp::Tlb> tlbs(static_cast<std::size_t>(cores), numalp::Tlb(sim.tlb));
  std::vector<numalp::AddressSpace::TranslationCache> caches(static_cast<std::size_t>(cores));
  std::vector<int> core_of(static_cast<std::size_t>(cores));
  for (int t = 0; t < cores; ++t) {
    core_of[static_cast<std::size_t>(t)] = CoreOfThread(topo, t);
  }
  numalp::PageWalker walker(sim.walker);
  numalp::IbsEngine ibs(nodes, cores, sim.ibs_interval, sim.seed ^ 0x1b5u);
  numalp::EpochCounters counters(cores, nodes);
  numalp::Rng rng(sim.seed ^ 0x7777u);
  numalp::Rng policy_rng(sim.seed ^ 0x9e37u);
  numalp::Carrefour carrefour(policy.carrefour, topo.cpu_nodes(), sim.seed ^ 0xc4fu);
  std::unique_ptr<numalp::CarrefourLp> lp;
  if (policy.use_reactive || policy.use_conservative) {
    lp = std::make_unique<numalp::CarrefourLp>(policy, thp);
  }
  numalp::KhugepagedScanner khugepaged(as);
  constexpr std::size_t kWindowEpochs = 512;  // the engine's sample window
  numalp::SampleWindow window(kWindowEpochs, false, sim.profile_mode, sim.profile_sketch);
  const bool window_consumed = policy.use_carrefour || lp != nullptr;
  const bool presketch_enabled =
      window_consumed && sim.profile_mode == numalp::ProfileMode::kSketch;
  numalp::CountSketch presketch;
  if (presketch_enabled) {
    presketch = numalp::CountSketch(sim.profile_sketch.sketch_rows, sim.profile_sketch.sketch_width);
  }

  const std::size_t n = sim.accesses_per_thread_per_epoch;
  constexpr std::size_t kSlice = 32;  // the engine's round-robin slice
  std::vector<std::vector<numalp::WorkloadAccess>> batches(static_cast<std::size_t>(cores));
  std::vector<std::vector<numalp::TranslateResult>> maps(static_cast<std::size_t>(cores));
  std::vector<std::vector<std::uint8_t>> missed(static_cast<std::size_t>(cores));
  std::vector<std::pair<int, std::size_t>> faults;
  std::vector<numalp::RegionMapEvent> map_events;
  std::vector<numalp::RegionUnmapEvent> unmap_events;
  std::vector<double> region_intensity;
  bool steady_seen = false;

  // TLB shootdowns queue up and are applied once per epoch, after the
  // policy passes (nothing translates in between), so the page-operation
  // spans time the VM layer alone.
  std::vector<std::pair<Addr, std::uint64_t>> shootdowns;
  const auto migrate = [&](Addr page, int target) {
    ++counts.migrations;
    const auto moved = as.MigratePage(page, target);
    if (!moved.has_value()) {
      ++counts.migrate_fails;
      return;
    }
    shadow.Move(moved->page_base, numalp::OrderOf(moved->size), moved->to_node, 1);
    shootdowns.emplace_back(moved->page_base, numalp::BytesOf(moved->size));
  };
  const auto split = [&](Addr base, PageSize size) {
    ++counts.splits;
    if (!as.SplitLargePage(base)) {
      ++counts.split_fails;
      return false;
    }
    shadow.Split(base, numalp::OrderOf(size), size == PageSize::k1G ? 9 : 0);
    shootdowns.emplace_back(base, numalp::BytesOf(size));
    return true;
  };
  const auto note_promotion = [&](const numalp::PromotionRecord& promo) {
    shadow.Move(promo.window_base, 9, promo.node, static_cast<int>(numalp::kFramesPer2M));
    shootdowns.emplace_back(promo.window_base, numalp::kBytes2M);
  };
  const auto unmap = [&](Addr base, std::uint64_t bytes) {
    as.page_table().ForEachMappingIn(base, bytes, [&](const numalp::PageTable::Mapping& m) {
      shadow.Free(m.page_base);
    });
    Scoped span(&log, "vm.munmap", cell);
    const numalp::AddressSpace::UnmapStats stats = as.MunmapRange(base, bytes);
    counts.munmap_bytes += stats.freed_bytes;
    shootdowns.emplace_back(base, bytes);
  };

  for (int epoch = 0; epoch < sim.max_epochs; ++epoch) {
    Scoped epoch_span(&log, "replay.epoch", cell);
    ++counts.epochs;
    counters.Reset();
    const bool in_setup = !source->SetupDone();
    if (!in_setup && !steady_seen) {
      steady_seen = true;  // the engine drops the first-touch storm here
      window.Clear();
      carrefour.ForgetAll();
    }

    // 1. Fill every thread's batch.
    {
      Scoped span(&log, "workloads.fill", cell);
      source->BeginEpoch();
      source->DrainMapEvents(&map_events);
      for (int t = 0; t < cores; ++t) {
        source->FillBatch(t, n, batches[static_cast<std::size_t>(core_of[static_cast<std::size_t>(t)])]);
      }
    }
    counts.region_maps += map_events.size();
    for (int r = static_cast<int>(region_intensity.size()); r < source->num_regions(); ++r) {
      region_intensity.push_back(source->region(r).dram_intensity);
    }
    if (writer != nullptr) {
      Scoped span(&log, "trace.encode", cell);
      writer->BeginEpoch(in_setup);
      for (const auto& event : map_events) {
        writer->RegionMap(event);
      }
      for (int t = 0; t < cores; ++t) {
        writer->Batch(t, batches[static_cast<std::size_t>(core_of[static_cast<std::size_t>(t)])]);
      }
    }
    std::size_t longest = 0;
    std::uint64_t epoch_accesses = 0;
    for (const auto& batch : batches) {
      epoch_accesses += batch.size();
      longest = std::max(longest, batch.size());
    }
    counts.accesses += epoch_accesses;

    // 2. Page-table lookups in the engine's (round, thread) order, then a
    // Touch for every access that found no mapping.
    faults.clear();
    {
      Scoped span(&log, "vm.page_table.lookup", cell);
      const numalp::PageTable& table = as.page_table();
      for (std::size_t offset = 0; offset < longest; offset += kSlice) {
        for (int t = 0; t < cores; ++t) {
          const int core = core_of[static_cast<std::size_t>(t)];
          const auto& batch = batches[static_cast<std::size_t>(core)];
          const std::size_t end = std::min(offset + kSlice, batch.size());
          for (std::size_t i = offset; i < end; ++i) {
            if (!table.Lookup(batch[i].va).has_value()) {
              faults.emplace_back(core, i);
            }
          }
        }
      }
    }
    counts.pt_lookups += epoch_accesses;
    {
      Scoped span(&log, "vm.touch", cell);
      for (const auto& [core, i] : faults) {
        const std::uint64_t fallbacks = as.thp_fallback_faults();
        const numalp::TouchResult touch =
            as.Touch(batches[static_cast<std::size_t>(core)][i].va, topo.NodeOfCore(core));
        ++counts.touches;
        if (!touch.fault.has_value()) {
          continue;
        }
        ++counts.touch_faults;
        const int order = numalp::OrderOf(touch.fault->size);
        if (as.thp_fallback_faults() != fallbacks) {
          shadow.Probe(9, touch.fault->node);
        }
        shadow.Alloc(touch.mapping.page_base, order, touch.fault->node);
        numalp::CoreCounters& cc = counters.cores[static_cast<std::size_t>(core)];
        ++(touch.fault->size == PageSize::k4K   ? cc.faults_4k
           : touch.fault->size == PageSize::k2M ? cc.faults_2m
                                                : cc.faults_1g);
        cc.fault_bytes += touch.fault->bytes;
        cc.fault_cycles += sim.costs.fault_fixed +
                           static_cast<numalp::Cycles>(sim.costs.fault_zero_per_byte *
                                                       static_cast<double>(touch.fault->bytes));
      }
    }

    // 3. Translate every access through the core's translation cache.
    {
      Scoped span(&log, "vm.translate", cell);
      for (int c = 0; c < cores; ++c) {
        const auto& batch = batches[static_cast<std::size_t>(c)];
        auto& out = maps[static_cast<std::size_t>(c)];
        auto& cache = caches[static_cast<std::size_t>(c)];
        out.resize(batch.size());
        for (std::size_t i = 0; i < batch.size(); ++i) {
          out[i] = as.Translate(batch[i].va, cache).value_or(numalp::TranslateResult{});
        }
      }
    }

    // 4. TLB: lookups, with an insert on every miss. Insert cost is then
    // isolated by replaying the pass's inserts into a copy of the TLB.
    std::vector<std::vector<numalp::TranslateResult>> inserted(static_cast<std::size_t>(cores));
    {
      Scoped span(&log, "hw.tlb", cell);
      for (int c = 0; c < cores; ++c) {
        numalp::Tlb& tlb = tlbs[static_cast<std::size_t>(c)];
        const auto& batch = batches[static_cast<std::size_t>(c)];
        const auto& mapped = maps[static_cast<std::size_t>(c)];
        auto& miss = missed[static_cast<std::size_t>(c)];
        auto& ins = inserted[static_cast<std::size_t>(c)];
        miss.assign(batch.size(), 0);
        for (std::size_t i = 0; i < batch.size(); ++i) {
          const numalp::TlbLookup hit = tlb.Lookup(batch[i].va);
          if (hit.level != numalp::TlbHitLevel::kMiss) {
            miss[i] = hit.level == numalp::TlbHitLevel::kL1 ? 0 : 1;
            continue;
          }
          miss[i] = 2;
          const numalp::TranslateResult& m = mapped[i];
          tlb.Insert(m.page_base, m.size, m.pfn, m.node);
          ins.push_back(m);
        }
      }
    }
    for (int c = 0; c < cores; ++c) {
      const auto& ins = inserted[static_cast<std::size_t>(c)];
      numalp::Tlb copy = tlbs[static_cast<std::size_t>(c)];
      const std::int64_t start = NowNs();
      for (const numalp::TranslateResult& m : ins) {
        copy.Insert(m.page_base, m.size, m.pfn, m.node);
      }
      counts.tlb_insert_ns += NowNs() - start;
      counts.tlb_inserts += ins.size();
      counts.tlb_lookups += batches[static_cast<std::size_t>(c)].size();
      counts.tlb_hits += batches[static_cast<std::size_t>(c)].size() - ins.size();
    }

    // Counters the epoch-end policies read: walks, DRAM traffic per node.
    {
      Scoped span(&log, "hw.counters", cell);
      const std::uint64_t table_bytes = as.page_table().table_bytes();
      for (int c = 0; c < cores; ++c) {
        const int node = topo.NodeOfCore(c);
        numalp::CoreCounters& cc = counters.cores[static_cast<std::size_t>(c)];
        const auto& batch = batches[static_cast<std::size_t>(c)];
        const auto& mapped = maps[static_cast<std::size_t>(c)];
        auto& miss = missed[static_cast<std::size_t>(c)];
        cc.accesses += batch.size();
        cc.exec_cycles += batch.size() * sim.costs.cpu_per_access;
        for (std::size_t i = 0; i < batch.size(); ++i) {
          if (miss[i] != 0) {
            ++cc.tlb_l1_miss;
          }
          if (miss[i] == 2) {
            ++cc.tlb_walks;
            const numalp::WalkResult walk = walker.Walk(mapped[i].size, table_bytes, rng);
            cc.exec_cycles += walk.cycles;
            cc.walk_l2_miss += walk.l2_miss ? 1 : 0;
          }
          // Reuse the miss byte as the DRAM flag for the IBS pass.
          const bool dram = rng.Bernoulli(region_intensity[batch[i].region]);
          miss[i] = dram ? 1 : 0;
          if (dram) {
            const int home = mapped[i].node;
            ++counters.node_requests[static_cast<std::size_t>(home)];
            ++counters.core_node_requests[static_cast<std::size_t>(c)][static_cast<std::size_t>(home)];
            if (home == node) {
              ++cc.dram_local;
            } else {
              ++cc.dram_remote;
              ++counters.node_incoming_remote[static_cast<std::size_t>(home)];
            }
          }
        }
      }
    }

    // 5. IBS: every access passes the per-core sampling countdown.
    {
      Scoped span(&log, "hw.ibs", cell);
      for (int c = 0; c < cores; ++c) {
        const int node = topo.NodeOfCore(c);
        const auto& batch = batches[static_cast<std::size_t>(c)];
        const auto& mapped = maps[static_cast<std::size_t>(c)];
        const auto& dram = missed[static_cast<std::size_t>(c)];
        for (std::size_t i = 0; i < batch.size(); ++i) {
          if (ibs.Observe(batch[i].va, c, node, mapped[i].node, dram[i] != 0) &&
              presketch_enabled) {
            presketch.Add(numalp::AlignDown(batch[i].va, numalp::kBytes4K), +1);
          }
        }
      }
    }

    // 6. Epoch end: drain, window, policy chain, page operations, munmap.
    numalp::Cycles wall = 1;
    for (const numalp::CoreCounters& cc : counters.cores) {
      wall = std::max(wall, cc.total_cycles());
    }
    std::vector<numalp::IbsSample> fresh;
    numalp::PageAggMap fresh_pages;
    numalp::NumaMetrics metrics;
    {
      Scoped span(&log, "metrics.window.drain", cell);
      fresh = ibs.Drain();
      fresh_pages = numalp::AggregateSamples(fresh, as, numalp::AggGranularity::kMapping);
      metrics = numalp::ComputeNumaMetrics(counters, fresh_pages, wall);
    }
    counts.ibs_samples += fresh.size();
    numalp::PageAggMap pages;
    if (window_consumed) {
      {
        Scoped span(&log, "metrics.window.push", cell);
        counts.window_pushed_samples += fresh.size();
        if (presketch_enabled) {
          window.PushEpoch(std::move(fresh), &presketch);
          presketch.Reset();
        } else {
          window.PushEpoch(std::move(fresh));
        }
      }
      Scoped span(&log, "metrics.window.fold", cell);
      pages = window.FoldToMapping(as);
      ++counts.folds;
    }

    bool did_split = false;
    std::vector<Addr> repromote;
    if (lp != nullptr) {
      numalp::LpObservation observation;
      observation.walk_l2_miss_frac = metrics.walk_l2_miss_frac;
      observation.max_fault_time_share = metrics.max_fault_time_share;
      observation.lar = numalp::EstimateLar(window.latest_samples(), as, fresh_pages,
                                            topo.num_cpu_nodes());
      observation.mapping_pages = &pages;
      observation.num_nodes = topo.num_cpu_nodes();
      observation.window = &window;
      observation.costs.epoch_accesses = counters.TotalAccesses();
      observation.costs.epoch_dram_accesses = counters.TotalDram();
      observation.costs.epoch_wall = wall;
      observation.costs.walk_cycles_4k =
          walker.ExpectedWalkCycles(PageSize::k4K, as.page_table().table_bytes());
      observation.costs.remote_dram_penalty = sim.interconnect.per_hop;
      observation.costs.split_op_cycles = sim.costs.split_fixed + sim.costs.shootdown_per_op;
      observation.costs.tlb_4k_reach_pages = static_cast<std::uint64_t>(sim.tlb.l2_sets) *
                                             static_cast<std::uint64_t>(sim.tlb.l2_ways) *
                                             static_cast<std::uint64_t>(cores);
      numalp::LpDecision decision;
      {
        Scoped span(&log, "core.carrefour_lp.step", cell);
        decision = lp->Step(observation);
        ++counts.lp_steps;
      }
      // Hot pages split and interleave their pieces over the CPU nodes;
      // shared pages split and move each sampled piece to its majority node.
      const std::vector<int>& cpu = topo.cpu_nodes();
      for (const bool hot : {true, false}) {
        for (const auto& [base, size] : hot ? decision.split_hot : decision.split_shared) {
          {
            Scoped span(&log, "vm.split", cell);
            if (!split(base, size)) {
              continue;
            }
          }
          did_split = true;
          carrefour.Forget(base);
          const std::uint64_t step =
              size == PageSize::k1G ? numalp::kBytes2M : numalp::kBytes4K;
          Scoped span(&log, "vm.migrate", cell);
          for (Addr p = base; p < base + numalp::BytesOf(size); p += step) {
            const std::optional<int> target =
                hot ? cpu[static_cast<std::size_t>(policy_rng.Uniform(cpu.size()))]
                    : window.MajorityReqNodeIn(p, step, sim.costs.split_place_min_samples);
            if (target.has_value()) {
              migrate(p, *target);
            }
          }
        }
      }
      repromote = std::move(decision.repromote_windows);
    }

    if (policy.use_carrefour) {
      const std::uint64_t total = counters.TotalAccesses();
      const double dram_rate =
          total == 0 ? 0.0
                     : static_cast<double>(counters.TotalDram()) / static_cast<double>(total);
      if (carrefour.ShouldRun(metrics.lar_pct, metrics.imbalance_pct, dram_rate)) {
        if (did_split) {
          Scoped span(&log, "metrics.window.fold", cell);
          pages = window.FoldToMapping(as);
          ++counts.folds;
        }
        std::vector<numalp::CarrefourAction> plan;
        {
          Scoped span(&log, "carrefour.plan", cell);
          plan = carrefour.Plan(pages, epoch);
          ++counts.plans;
        }
        counts.plan_actions += plan.size();
        Scoped span(&log, "vm.migrate", cell);
        for (const numalp::CarrefourAction& action : plan) {
          migrate(action.page_base, action.target_node);
        }
      }
    }

    {
      Scoped span(&log, "vm.promote", cell);
      for (const Addr base : repromote) {
        const auto target = numalp::WindowPromotionTarget(as, base);
        if (!target.has_value()) {
          continue;
        }
        if (const auto promo = as.PromoteWindow(base, *target)) {
          carrefour.ForgetRange(base, numalp::kBytes2M);
          note_promotion(*promo);
        }
      }
      if (thp.promote_enabled && thp.alloc_enabled) {
        for (const numalp::PromotionRecord& promo :
             khugepaged.Scan(sim.promote_scan_windows, sim.promote_max_per_epoch)) {
          note_promotion(promo);
        }
        ++counts.promote_passes;
      } else if (!repromote.empty()) {
        ++counts.promote_passes;
      }
    }

    source->DrainUnmapEvents(&unmap_events);
    for (const auto& event : unmap_events) {
      if (writer != nullptr) {
        Scoped span(&log, "trace.encode", cell);
        writer->RegionUnmap(event);
      }
      ++counts.region_unmaps;
      unmap(event.base, event.bytes);
    }
    {
      Scoped span(&log, "hw.tlb.shootdown", cell);
      for (numalp::Tlb& tlb : tlbs) {
        for (const auto& [base, bytes] : shootdowns) {
          tlb.InvalidateRange(base, bytes);
        }
      }
      shootdowns.clear();
    }
    {
      Scoped span(&log, "mem.buddy", cell);
      shadow.Flush();
    }

    const bool done = source->Done();
    if (writer != nullptr) {
      Scoped span(&log, "trace.encode", cell);
      writer->EndEpoch(done);
    }
    if (done) {
      break;
    }
  }
  if (writer != nullptr) {
    Scoped span(&log, "trace.encode", cell);
    writer->Finish(source->Done());
    counts.encoded_accesses = counts.accesses;
  }

  // Process exit: every region still mapped goes back through munmap.
  std::vector<std::pair<Addr, std::uint64_t>> live;
  for (const numalp::Vma& vma : as.vmas()) {
    live.emplace_back(vma.base, vma.bytes);
  }
  for (const auto& [base, bytes] : live) {
    unmap(base, bytes);
  }
  {
    Scoped span(&log, "mem.buddy", cell);
    shadow.Flush();
  }
  return counts;
}

std::uint64_t DecodeTrace(const std::string& path, SpanLog& log) {
  std::optional<numalp::trace::TraceReader> reader;
  {
    Scoped span(&log, "trace.open", -1);
    (void)numalp::trace::ReadTraceHeader(path);
    reader.emplace(path);
  }
  Scoped span(&log, "trace.decode", -1);
  std::uint64_t accesses = 0;
  numalp::trace::TraceEpoch epoch;
  while (reader->NextEpoch(&epoch)) {
    for (const auto& batch : epoch.batches) {
      accesses += batch.size();
    }
  }
  return accesses;
}

}  // namespace perfbench
