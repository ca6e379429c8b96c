// Shared scaffolding for the figure/table benches. Every bench declares its
// sweep (an ExperimentGrid, several grids, or a flat RunSpec list) and its
// ToolInfo, then hands both to a report::GridReport: the whole sweep runs on
// one ExperimentRunner thread pool (--jobs / NUMALP_JOBS; results identical
// at any value, DESIGN.md Section 5) and every cell is emitted as a typed
// ResultRow through the configured sinks (--format stdout, --out-dir files;
// DESIGN.md Section 6). Command-line handling is the uniform parser in
// src/report/options.h — the one flag added here is --perf FILE, which
// appends a wall-clock record (host seconds + simulated accesses/sec) for
// the sweep to FILE, the raw material of BENCH_perf.json trend tracking.
#ifndef NUMALP_BENCH_BENCH_UTIL_H_
#define NUMALP_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/core/runner.h"
#include "src/report/collector.h"
#include "src/report/options.h"

namespace numalp_bench {

inline std::uint64_t TotalAccesses(const numalp::GridResults& results) {
  std::uint64_t accesses = 0;
  for (int m = 0; m < results.num_machines(); ++m) {
    for (int w = 0; w < results.num_workloads(); ++w) {
      for (int s = 0; s < results.num_seeds(); ++s) {
        accesses += results.Baseline(m, w, s).totals.accesses;
        for (int p = 0; p < results.num_policies(); ++p) {
          accesses += results.At(m, w, p, s).totals.accesses;
        }
      }
    }
  }
  return accesses;
}

// Appends one JSONL wall-clock record for a finished sweep. Failure to open
// the file is reported but does not fail the bench (perf capture is a
// side channel, never the product).
inline void AppendPerfRecord(const std::string& path, const numalp::report::ToolInfo& info,
                             const numalp::report::Options& options, double seconds,
                             std::uint64_t accesses) {
  std::ofstream out(path, std::ios::app);
  if (!out) {
    std::fprintf(stderr, "%s: cannot open --perf file %s\n", info.name, path.c_str());
    return;
  }
  out.precision(17);
  out << "{\"bench\":\"" << info.bench_id << "\",\"wall_seconds\":" << seconds
      << ",\"accesses\":" << accesses << ",\"accesses_per_sec\":"
      << (seconds > 0 ? static_cast<double>(accesses) / seconds : 0.0)
      << ",\"epochs\":" << options.sim.max_epochs
      << ",\"accesses_per_thread\":" << options.sim.accesses_per_thread_per_epoch << "}\n";
}

// The standard figure bench: one (machines x workloads x policies x seeds)
// grid, every cell (baselines included) written through the sinks. This is
// the whole main() of fig1-fig5, table2 and the overhead assessment.
inline int RunFigureBench(int argc, char** argv, const numalp::report::ToolInfo& info,
                          const std::vector<numalp::Topology>& machines,
                          const std::vector<numalp::BenchmarkId>& workloads,
                          const std::vector<numalp::PolicyKind>& policies, int seeds) {
  std::string perf_path;
  const numalp::report::Options options = numalp::report::ParseToolArgs(
      argc, argv, info,
      {{"--perf", true, [&](const char* v) { perf_path = v; return true; }}});
  numalp::ExperimentGrid grid;
  grid.machines = machines;
  grid.workloads = workloads;
  grid.policies = policies;
  grid.num_seeds = seeds;
  grid.sim = options.sim;
  numalp::report::GridReport report(options, info);
  const auto start = std::chrono::steady_clock::now();
  const numalp::GridResults results = report.Run(grid);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  if (!perf_path.empty()) {
    AppendPerfRecord(perf_path, info, options, seconds, TotalAccesses(results));
  }
  return 0;
}

// Variant for tables that mix (machine, workload) pairs: one grid per
// machine, executed together on one shared pool via RunGrids.
inline int RunFigureBench(int argc, char** argv, const numalp::report::ToolInfo& info,
                          std::vector<numalp::ExperimentGrid> grids) {
  std::string perf_path;
  const numalp::report::Options options = numalp::report::ParseToolArgs(
      argc, argv, info,
      {{"--perf", true, [&](const char* v) { perf_path = v; return true; }}});
  for (numalp::ExperimentGrid& grid : grids) {
    grid.sim = options.sim;
  }
  numalp::report::GridReport report(options, info);
  const auto start = std::chrono::steady_clock::now();
  const std::vector<numalp::GridResults> results = report.Run(grids);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  if (!perf_path.empty()) {
    std::uint64_t accesses = 0;
    for (const numalp::GridResults& grid_results : results) {
      accesses += TotalAccesses(grid_results);
    }
    AppendPerfRecord(perf_path, info, options, seconds, accesses);
  }
  return 0;
}

}  // namespace numalp_bench

#endif  // NUMALP_BENCH_BENCH_UTIL_H_
