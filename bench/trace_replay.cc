// Trace-replay sweep (DESIGN.md Section 14): the embedded tracegen profiles
// (BERT/ResNet-50/LAMMPS/NAMD phase mixes plus the ckpt-churn checkpoint
// storm) are synthesized per seed and replayed on machine A under Linux-4K,
// THP, always-2M Carrefour-2M and Carrefour-LP. The replayed mmap/munmap
// churn flows through AddressSpace::MunmapRange into the buddy allocator, so
// fragmentation here is organic — no fault injection — and the committed
// expectation (`thp-degrades-under-mmap-churn`) asserts that always-2M loses
// measurably to Carrefour-LP on ckpt-churn because its 2MB faults and
// migrations start failing for real.
//
// Traces are generated into --trace-dir (default: the system temp dir) at
// bench startup; only the summary (BENCH_trace.json shape) is committed —
// the binary traces are reproducible from (profile, machine, seed).
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "src/common/parse.h"
#include "src/core/config.h"
#include "src/core/runner.h"
#include "src/report/collector.h"
#include "src/report/options.h"
#include "src/topo/topology.h"
#include "src/trace/trace_reader.h"
#include "src/trace/tracegen.h"
#include "src/workloads/spec.h"
#include "src/workloads/trace_workload.h"

int main(int argc, char** argv) {
  const numalp::report::ToolInfo info = {
      "trace_replay", "trace",
      "Trace replay: tracegen profiles x 4 policies x seeds on machine A, "
      "with mmap churn fragmenting the buddy allocator organically",
      "  --trace-dir DIR        where generated traces are written (default: "
      "system temp dir)\n"
      "  --trace-epochs N       steady epochs per generated trace (0 = each "
      "profile's default;\n"
      "                         smoke runs shrink this and the phase schedule "
      "compresses)\n"};

  std::string trace_dir =
      (std::filesystem::temp_directory_path() / "numalp_traces").string();
  int trace_epochs = 0;
  const std::vector<numalp::report::ExtraFlag> extras = {
      {"--trace-dir", true,
       [&trace_dir](const char* value) {
         trace_dir = value;
         return !trace_dir.empty();
       }},
      {"--trace-epochs", true,
       [&trace_epochs](const char* value) {
         const auto parsed =
             numalp::ParseNumber(value, 0, std::numeric_limits<int>::max());
         trace_epochs = parsed.value_or(0);
         return parsed.has_value();
       }},
  };
  const numalp::report::Options options =
      numalp::report::ParseToolArgs(argc, argv, info, extras);
  const numalp::Topology topo = numalp::Topology::MachineA();
  constexpr int kSeeds = 3;

  std::error_code ec;
  std::filesystem::create_directories(trace_dir, ec);
  if (ec) {
    std::fprintf(stderr, "trace_replay: cannot create %s: %s\n", trace_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }

  // Generate every (profile, seed) trace up front; replay cells read the
  // headers when the grid is built. The generator shares the sweep's access
  // geometry so replayed epochs are exactly full.
  std::vector<std::string> trace_paths;  // profile-major, seed-minor
  for (const std::string& profile : numalp::trace::TracegenProfiles()) {
    for (int s = 0; s < kSeeds; ++s) {
      numalp::trace::TracegenOptions gen;
      gen.profile = profile;
      gen.topo = topo;
      gen.seed = options.sim.seed + static_cast<std::uint64_t>(s);
      gen.accesses_per_thread =
          static_cast<std::uint32_t>(options.sim.accesses_per_thread_per_epoch);
      gen.epochs = trace_epochs;
      const std::string path = (std::filesystem::path(trace_dir) /
                                ("trace_" + profile + "_s" + std::to_string(s) + ".bin"))
                                   .string();
      numalp::trace::GenerateTrace(gen, path);
      trace_paths.push_back(path);
    }
  }

  const std::vector<numalp::PolicyKind> policies = {numalp::PolicyKind::kThp,
                                                    numalp::PolicyKind::kCarrefour2M,
                                                    numalp::PolicyKind::kCarrefourLp};

  // Profile-major, then seed: per (profile, seed) one Linux-4K baseline
  // followed by the policy cells that compare against it.
  std::vector<numalp::RunSpec> cells;
  std::vector<numalp::report::GridReport::CellMeta> meta;
  std::size_t trace_index = 0;
  for (const std::string& profile : numalp::trace::TracegenProfiles()) {
    (void)profile;
    for (int s = 0; s < kSeeds; ++s) {
      const std::string& path = trace_paths[trace_index++];
      numalp::RunSpec base;
      base.topo = topo;
      base.workload = numalp::MakeTraceWorkloadSpec(path);
      base.policy = numalp::MakePolicyConfig(numalp::PolicyKind::kLinux4K);
      base.sim = options.sim;
      base.sim.seed = options.sim.seed + static_cast<std::uint64_t>(s);
      const int baseline = static_cast<int>(cells.size());
      cells.push_back(base);
      meta.push_back({"", -1, s});
      for (const numalp::PolicyKind kind : policies) {
        numalp::RunSpec cell = base;
        cell.policy = numalp::MakePolicyConfig(kind);
        cells.push_back(cell);
        meta.push_back({"", baseline, s});
      }
    }
  }

  numalp::report::GridReport report(options, info);
  report.RunCells(cells, meta);
  return 0;
}
