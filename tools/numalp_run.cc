// numalp_run — command-line driver for single experiments.
//
//   numalp_run --workload CG.D --machine B --policy carrefour-lp
//              [--seed N] [--epochs N] [--ibs-interval N] [--per-epoch]
//              [--capture-trace FILE] [standard flags: --format --out-dir
//              --jobs --accesses]
//
// Emits the run and its same-seed Linux-4K baseline as ResultRows (both
// execute concurrently on the ExperimentRunner), and with --per-epoch also
// prints the full epoch trace including the reactive component's LAR
// estimates (md mode only — csv/jsonl stdout stays machine-parseable).
//
// Trace capture/replay (DESIGN.md Section 14): --capture-trace records the
// measured cell's access stream; --workload trace:FILE replays a recording
// (the batch geometry comes from the trace header, and --machine must match
// the recorded machine). A replayed cell's ResultRow is byte-identical to
// the captured cell's.
//
// Exit status: 0 when every row's status is "ok"; 1 when any row failed or
// hit its deadline (the rows are still emitted); 2 on unusable input — bad
// flags, or a trace whose header cannot be read.
#include <cstdint>
#include <cstdio>
#include <exception>
#include <limits>
#include <string>
#include <vector>

#include "src/common/parse.h"
#include "src/core/config.h"
#include "src/core/runner.h"
#include "src/core/simulation.h"
#include "src/report/collector.h"
#include "src/report/options.h"
#include "src/topo/topology.h"
#include "src/trace/trace_reader.h"
#include "src/workloads/spec.h"
#include "src/workloads/trace_workload.h"

int main(int argc, char** argv) {
  const numalp::report::ToolInfo info = {
      "numalp_run", "run", "one experiment against its Linux-4K baseline",
      "  --workload NAME        paper suite (BT.B CG.D ... SPECjbb) + streamcluster"
      " sparse-footprint,\n"
      "                         or trace:FILE to replay a recorded trace"
      " (default CG.D)\n"
      "  --machine A|B          machine preset (default B)\n"
      "  --policy P             linux-4k thp carrefour-2m reactive conservative"
      " carrefour-lp (default carrefour-lp)\n"
      "  --ibs-interval N       one IBS sample per N accesses per core\n"
      "  --per-epoch            print the epoch trace (md mode only)\n"
      "  --capture-trace FILE   record the measured cell's access stream into"
      " FILE\n"};

  numalp::BenchmarkId bench = numalp::BenchmarkId::kCG_D;
  numalp::Topology topo = numalp::Topology::MachineB();
  numalp::PolicyKind policy = numalp::PolicyKind::kCarrefourLp;
  std::uint64_t ibs_interval = 0;
  bool per_epoch = false;
  std::string trace_file;
  std::string capture_file;
  const std::vector<numalp::report::ExtraFlag> extras = {
      numalp::report::WorkloadFlag(&bench, &trace_file),
      numalp::report::MachineFlag(&topo),
      numalp::report::PolicyFlag(&policy),
      {"--ibs-interval", true,
       [&ibs_interval](const char* value) {
         const auto parsed = numalp::ParseNumber(
             value, std::uint64_t{1}, std::numeric_limits<std::uint64_t>::max());
         ibs_interval = parsed.value_or(0);
         return parsed.has_value();
       }},
      {"--per-epoch", false,
       [&per_epoch](const char*) {
         per_epoch = true;
         return true;
       }},
      {"--capture-trace", true,
       [&capture_file](const char* value) {
         capture_file = value;
         return !capture_file.empty();
       }},
  };
  numalp::report::Options options = numalp::report::ParseToolArgs(argc, argv, info, extras);
  if (ibs_interval > 0) {
    options.sim.ibs_interval = ibs_interval;
  }

  numalp::WorkloadSpec workload;
  if (!trace_file.empty()) {
    numalp::trace::TraceHeader header;
    try {
      header = numalp::trace::ReadTraceHeader(trace_file);
      workload = numalp::MakeTraceWorkloadSpec(trace_file);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "numalp_run: %s\n", error.what());
      return 2;
    }
    if (header.machine != topo.name()) {
      std::fprintf(stderr, "trace %s was recorded on %s; pass --machine %s\n",
                   trace_file.c_str(), header.machine.c_str(), header.machine.c_str());
      return 2;
    }
    // The trace dictates the batch geometry: replay must fill epochs exactly
    // as the recorded run did for the byte-identity contract to hold.
    options.sim.accesses_per_thread_per_epoch = header.accesses_per_thread_per_epoch;
  } else {
    workload = numalp::MakeWorkloadSpec(bench, topo);
  }

  std::vector<numalp::RunSpec> cells(1);
  cells[0].topo = topo;
  cells[0].workload = workload;
  cells[0].policy = numalp::MakePolicyConfig(numalp::PolicyKind::kLinux4K);
  cells[0].sim = options.sim;
  std::vector<numalp::report::GridReport::CellMeta> meta = {{"", -1, 0}};
  if (policy != numalp::PolicyKind::kLinux4K) {
    cells.push_back(cells[0]);
    cells[1].policy = numalp::MakePolicyConfig(policy);
    meta.push_back({"", /*baseline=*/0, 0});
  }
  // Capture records the measured cell (the last one): the replayable
  // artifact of interest is the stream the policy under study saw.
  if (!capture_file.empty()) {
    cells.back().workload.capture_file = capture_file;
  }

  numalp::report::GridReport report(options, info);
  const std::vector<numalp::RunResult> results = report.RunCells(cells, meta);
  report.Finish();

  if (per_epoch && options.human()) {
    const numalp::RunResult& run = results.back();
    std::printf("\n%3s %6s %6s %6s %6s %5s %5s %6s %6s %6s %5s\n", "ep", "wall-M", "LAR%",
                "imbal", "fault%", "migr", "split", "estC", "estCF", "estSP", "thp");
    for (const auto& e : run.history) {
      std::printf("%3d %6.2f %6.1f %6.1f %6.2f %5llu %5llu %6.1f %6.1f %6.1f %5s\n", e.epoch,
                  static_cast<double>(e.wall) / 1e6, e.metrics.lar_pct,
                  e.metrics.imbalance_pct, 100.0 * e.metrics.max_fault_time_share,
                  static_cast<unsigned long long>(e.migrations),
                  static_cast<unsigned long long>(e.splits), e.est_current_lar,
                  e.est_carrefour_lar, e.est_split_lar, e.thp_alloc_enabled ? "on" : "off");
    }
  }
  for (const numalp::RunResult& run : results) {
    if (run.status != "ok") {
      return 1;
    }
  }
  return 0;
}
