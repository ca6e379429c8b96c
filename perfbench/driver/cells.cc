#include "perfbench/driver/cells.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "src/core/config.h"
#include "src/core/simulation.h"
#include "src/report/sink.h"
#include "src/trace/tracegen.h"
#include "src/workloads/spec.h"
#include "src/workloads/trace_workload.h"

namespace perfbench {

namespace {

using numalp::PolicyKind;

// The paper grid runs at the fidelity of the repository's qualitative CI
// gate (64 epochs x 2048 accesses per thread): the lowest at which every
// paper check on the Figure 2/3 columns holds.
constexpr int kGridEpochs = 64;
constexpr std::uint64_t kGridAccesses = 2048;
// One seed: the cells run one after another on one thread, and one seed's
// 64 cells already take about half a minute there. The mechanism checks
// hold at one seed on every seed tried.
constexpr int kGridSeeds = 1;
// Sketch-mode admission threshold of the sparse workload: the bounded-state
// setting (threshold 1 is bit-identical to exact mode).
constexpr std::uint64_t kSparseSketchThreshold = 4;
constexpr std::uint64_t kSparseIbsInterval = 32;

numalp::SimConfig Shrunk(numalp::SimConfig sim, bool tiny) {
  if (tiny) {
    sim.max_epochs = 3;
    sim.accesses_per_thread_per_epoch = 256;
  }
  return sim;
}

BenchCell Cell(const numalp::Topology& topo, const numalp::WorkloadSpec& spec, PolicyKind kind,
               const numalp::SimConfig& sim, int baseline, int seed_index,
               const std::string& variant = "") {
  BenchCell cell;
  cell.spec.topo = topo;
  cell.spec.workload = spec;
  cell.spec.policy = numalp::MakePolicyConfig(kind);
  cell.spec.sim = sim;
  cell.baseline = baseline;
  cell.seed_index = seed_index;
  cell.variant = variant;
  return cell;
}

// Figures 2 + 3: the THP-affected applications on both paper machines,
// each seed's Linux-4K baseline followed by THP, Carrefour-2M, Carrefour-LP.
void PaperGrid(BenchWorkload& out, std::uint64_t seed, bool tiny) {
  std::vector<numalp::BenchmarkId> apps = numalp::AffectedSubset();
  if (tiny) {
    apps.resize(2);
  }
  for (const numalp::Topology& topo : {numalp::Topology::MachineA(), numalp::Topology::MachineB()}) {
    for (const numalp::BenchmarkId app : apps) {
      const numalp::WorkloadSpec spec = numalp::MakeWorkloadSpec(app, topo);
      for (int s = 0; s < kGridSeeds; ++s) {
        numalp::SimConfig sim;
        sim.max_epochs = kGridEpochs;
        sim.accesses_per_thread_per_epoch = kGridAccesses;
        sim.seed = numalp::CellSeed(seed, s);
        sim = Shrunk(sim, tiny);
        const int baseline = static_cast<int>(out.cells.size());
        for (const PolicyKind kind : {PolicyKind::kLinux4K, PolicyKind::kThp,
                                      PolicyKind::kCarrefour2M, PolicyKind::kCarrefourLp}) {
          out.cells.push_back(Cell(topo, spec, kind, sim, baseline, s));
        }
      }
    }
  }
  if (!tiny) {
    out.gated_checks = {"baseline-improvement-zero", "thp-hurts-hot-page-cg-on-machineB",
                        "thp-helps-allocation-wrmem", "carrefour-lp-recovers-cg-on-machineB",
                        "carrefour-lp-geq-carrefour-on-hot-page-cg",
                        "thp-degrades-ua-lar-on-machineA"};
  }
}

// The full-length ckpt-churn trace for machine A, replayed under the four
// policies, plus one Carrefour-LP cell that also captures its stream.
void CkptChurnReplay(BenchWorkload& out, std::uint64_t seed, const std::string& work_dir,
                     bool tiny) {
  const numalp::Topology topo = numalp::Topology::MachineA();
  numalp::SimConfig sim;
  sim.seed = seed;
  if (tiny) {
    // The short generated trace bounds the run; an epoch cap would cut the
    // replay (and its capture) short of the recorded end.
    sim.accesses_per_thread_per_epoch = 256;
  }
  numalp::trace::TracegenOptions gen;
  gen.profile = "ckpt-churn";
  gen.topo = topo;
  gen.seed = seed;
  gen.accesses_per_thread = static_cast<std::uint32_t>(sim.accesses_per_thread_per_epoch);
  gen.epochs = tiny ? 4 : 0;  // 0 = the profile's full length
  out.trace_file = work_dir + "/ckpt-churn.trace";
  numalp::trace::GenerateTrace(gen, out.trace_file);
  out.files.push_back(out.trace_file);
  const numalp::WorkloadSpec spec = numalp::MakeTraceWorkloadSpec(out.trace_file);
  for (const PolicyKind kind : {PolicyKind::kLinux4K, PolicyKind::kThp, PolicyKind::kCarrefour2M,
                                PolicyKind::kCarrefourLp}) {
    out.cells.push_back(Cell(topo, spec, kind, sim, 0, 0));
  }
  numalp::WorkloadSpec capture = spec;
  capture.capture_file = work_dir + "/ckpt-churn.capture";
  out.files.push_back(capture.capture_file);
  out.cells.push_back(Cell(topo, capture, PolicyKind::kCarrefourLp, sim, 0, 0, "capture"));
  if (!tiny) {
    out.gated_checks = {"baseline-improvement-zero", "thp-degrades-under-mmap-churn"};
  }
}

// sparse-footprint on machine B under both Carrefours, each profiled with
// exact aggregates and with filter + sketch admission.
void SparseProfile(BenchWorkload& out, std::uint64_t seed, bool tiny) {
  const numalp::Topology topo = numalp::Topology::MachineB();
  const numalp::WorkloadSpec spec =
      numalp::MakeWorkloadSpec(numalp::BenchmarkId::kSparseFootprint, topo);
  numalp::SimConfig exact;
  exact.seed = seed;
  exact.ibs_interval = kSparseIbsInterval;
  exact = Shrunk(exact, tiny);
  numalp::SimConfig sketch = exact;
  sketch.profile_mode = numalp::ProfileMode::kSketch;
  sketch.profile_sketch.admit_threshold = kSparseSketchThreshold;
  for (const PolicyKind kind : {PolicyKind::kCarrefour2M, PolicyKind::kCarrefourLp}) {
    out.cells.push_back(Cell(topo, spec, kind, exact, -1, 0, "exact"));
    out.cells.push_back(Cell(topo, spec, kind, sketch, -1, 0, "sketch-t4"));
  }
}

std::vector<numalp::RunSpec> Specs(const BenchWorkload& workload) {
  std::vector<numalp::RunSpec> specs;
  for (const BenchCell& cell : workload.cells) {
    specs.push_back(cell.spec);
  }
  return specs;
}

// The process's thread count, field 20 of /proc/self/stat (0 if unreadable).
int ThreadCount() {
  std::ifstream in("/proc/self/stat");
  std::string stat((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  const std::size_t comm_end = stat.rfind(')');
  if (comm_end == std::string::npos) {
    return 0;
  }
  std::istringstream fields(stat.substr(comm_end + 2));  // from field 3
  std::string field;
  for (int k = 3; k <= 20 && fields >> field; ++k) {
  }
  return std::atoi(field.c_str());
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"paper-grid", "ckpt-churn-replay",
                                                 "sparse-profile"};
  return names;
}

BenchWorkload MakeBenchWorkload(const std::string& name, std::uint64_t seed,
                                const std::string& work_dir, bool tiny) {
  BenchWorkload out;
  out.name = name;
  if (name == "paper-grid") {
    PaperGrid(out, seed, tiny);
  } else if (name == "ckpt-churn-replay") {
    CkptChurnReplay(out, seed, work_dir, tiny);
  } else if (name == "sparse-profile") {
    SparseProfile(out, seed, tiny);
  } else {
    throw std::invalid_argument("unknown workload " + name);
  }
  return out;
}

// Keeps the probe's result live, so the compiler cannot drop the loop.
volatile std::uint64_t probe_sink = 0;

double ProbeSeconds() {
  constexpr int kParts = 3;
  constexpr int kIterations = 1'000'000 / kParts;
  static const std::vector<std::uint32_t> table = [] {
    std::vector<std::uint32_t> values(4096);
    for (std::size_t i = 0; i < values.size(); ++i) {
      values[i] = static_cast<std::uint32_t>(i * 2654435761U);
    }
    return values;
  }();
  // Three thirds, timed apart; the median third drops an interrupt that
  // lands in one of them.
  std::array<std::int64_t, kParts> part_ns{};
  std::uint64_t x = 88172645463325252ULL;  // xorshift64 state
  for (std::int64_t& ns : part_ns) {
    const std::int64_t start = ThreadCpuNs();
    std::uint64_t acc = 0;
    for (int i = 0; i < kIterations; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      const std::uint32_t value = table[x & (table.size() - 1)];
      if ((value & 1) != 0) {
        acc += value * 3;
      } else {
        acc ^= value >> 2;
      }
    }
    ns = ThreadCpuNs() - start;
    probe_sink = acc;
  }
  std::sort(part_ns.begin(), part_ns.end());
  return static_cast<double>(part_ns[kParts / 2] * kParts) / 1e9;
}

SerialPass RunSerial(const BenchWorkload& workload) {
  numalp::ExperimentRunner runner(1);
  SerialPass out;
  out.cell_cpu_s.resize(workload.cells.size());
  out.probe_s.resize(workload.cells.size());
  double probe_before = ProbeSeconds();
  std::int64_t last = ThreadCpuNs();
  runner.set_observer([&](std::size_t index, const numalp::RunSpec&, const numalp::RunResult&) {
    out.cell_cpu_s[index] = static_cast<double>(ThreadCpuNs() - last) / 1e9;
    const double probe_after = ProbeSeconds();
    out.probe_s[index] = (probe_before + probe_after) / 2.0;
    probe_before = probe_after;
    last = ThreadCpuNs();
  });
  out.results = runner.Run(Specs(workload));
  return out;
}

RunnerResult RunWithRunner(const BenchWorkload& workload, int jobs, bool watch_workers) {
  const std::vector<numalp::RunSpec> specs = Specs(workload);
  const numalp::ExperimentRunner runner(jobs);
  RunnerResult out;
  out.workers = std::max(1, std::min<int>(runner.jobs(), static_cast<int>(specs.size())));

  // The sampler: once the pool's threads are all up, the first drop in the
  // thread count is the first worker out of cells.
  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> first_exit_ns{0};
  std::thread sampler;
  if (watch_workers && out.workers > 1) {
    const int idle_threads = ThreadCount() + 1;  // the caller's and the sampler's
    sampler = std::thread([&]() {
      bool full = false;
      while (!stop.load(std::memory_order_relaxed)) {
        const int threads = ThreadCount();
        full = full || threads >= idle_threads + out.workers;
        if (full && threads < idle_threads + out.workers) {
          first_exit_ns = NowNs();
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  const std::int64_t cpu_start = ProcessCpuNs();
  const std::int64_t start = NowNs();
  out.results = runner.Run(specs);
  const std::int64_t end = NowNs();
  out.cpu_s = static_cast<double>(ProcessCpuNs() - cpu_start) / 1e9;
  out.wall_s = static_cast<double>(end - start) / 1e9;
  if (sampler.joinable()) {
    stop = true;
    sampler.join();
    if (first_exit_ns != 0) {
      out.tail_idle_s = static_cast<double>(end - first_exit_ns) / 1e9;
    }
  }
  return out;
}

std::vector<CellRecord> RunPass(const BenchWorkload& workload, int jobs,
                                std::vector<SpanLog>* logs) {
  std::vector<CellRecord> records(workload.cells.size());
  const int workers = std::max(1, std::min<int>(jobs, static_cast<int>(workload.cells.size())));
  std::atomic<std::size_t> next{0};
  const auto worker = [&](int w) {
    SpanLog* log = logs != nullptr ? &(*logs)[static_cast<std::size_t>(w)] : nullptr;
    for (std::size_t i = next++; i < workload.cells.size(); i = next++) {
      const numalp::RunSpec& spec = workload.cells[i].spec;
      CellRecord& record = records[i];
      const int cell = static_cast<int>(i);
      Scoped cell_span(log, "core.cell", cell);
      try {
        std::unique_ptr<numalp::Simulation> simulation;
        {
          Scoped span(log, "core.simulation.ctor", cell);
          simulation = std::make_unique<numalp::Simulation>(spec.topo, spec.workload,
                                                            spec.policy, spec.sim);
        }
        const std::int64_t cpu_start = ThreadCpuNs();
        {
          Scoped span(log, "core.simulation.run", cell);
          record.result = simulation->Run();
        }
        record.run_cpu_s = static_cast<double>(ThreadCpuNs() - cpu_start) / 1e9;
      } catch (const std::exception& e) {
        record.result = numalp::RunResult{};
        record.result.workload = spec.workload.name;
        record.result.machine = spec.topo.name();
        record.result.policy = spec.policy.kind;
        record.result.status = std::string("failed: ") + e.what();
      }
    }
  };
  std::vector<std::thread> threads;
  for (int w = 1; w < workers; ++w) {
    threads.emplace_back(worker, w);
  }
  worker(0);
  for (std::thread& thread : threads) {
    thread.join();
  }
  return records;
}

double SetupSeconds(const BenchWorkload& workload) {
  double total = 0.0;
  for (const BenchCell& cell : workload.cells) {
    const std::int64_t start = ThreadCpuNs();
    numalp::Simulation simulation(cell.spec.topo, cell.spec.workload, cell.spec.policy,
                                  cell.spec.sim);
    total += static_cast<double>(ThreadCpuNs() - start) / 1e9;
  }
  return total;
}

std::vector<numalp::report::ResultRow> MakeRows(const BenchWorkload& workload,
                                                const std::vector<numalp::RunResult>& results,
                                                std::vector<std::string>* jsonl,
                                                SpanLog* log) {
  std::vector<numalp::report::ResultRow> rows;
  std::ostringstream out;
  numalp::report::JsonlSink sink(out);
  jsonl->clear();
  for (std::size_t i = 0; i < workload.cells.size(); ++i) {
    const BenchCell& cell = workload.cells[i];
    const int id = static_cast<int>(i);
    {
      Scoped span(log, "report.row", id);
      rows.push_back(numalp::report::MakeResultRow(
          workload.name, cell.spec, results[i],
          cell.baseline >= 0 ? &results[static_cast<std::size_t>(cell.baseline)] : nullptr,
          cell.seed_index, cell.spec.sim.clock_ghz, cell.variant));
    }
    {
      Scoped span(log, "report.sink", id);
      sink.Write(rows.back());
    }
    jsonl->push_back(out.str());
    out.str("");
  }
  return rows;
}

}  // namespace perfbench
