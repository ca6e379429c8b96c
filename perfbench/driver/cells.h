// The benchmark's workloads as cell lists, the ways they run (through the
// product's ExperimentRunner on a pool or on one timed worker, and through a
// pool of the benchmark's own that times each cell), the host-speed probe,
// and the JSONL rows the correctness gates compare.
#ifndef PERFBENCH_DRIVER_CELLS_H_
#define PERFBENCH_DRIVER_CELLS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/driver/spans.h"
#include "src/core/runner.h"
#include "src/report/result_row.h"

namespace perfbench {

struct BenchCell {
  numalp::RunSpec spec;
  int baseline = -1;  // index of the same-seed Linux-4K cell, -1 for none
  int seed_index = 0;
  std::string variant;
};

struct BenchWorkload {
  std::string name;
  std::vector<BenchCell> cells;
  // Trace files the workload reads or writes (removed when the run ends).
  std::vector<std::string> files;
  // The replayed trace, when the workload has one (the trace layer's read
  // side is measured over it); empty for the generator workloads.
  std::string trace_file;
  // Paper checks that must PASS at every seed: the wide-margin mechanism
  // checks. The tolerance-band checks (a few points between two policies)
  // gate only at the default seed, where the repository pins the rows; a
  // one-seed draw elsewhere can move a column by more than its band.
  std::vector<std::string> gated_checks;
};

const std::vector<std::string>& WorkloadNames();

// Builds `name` for `seed`. Generated inputs go to `work_dir`. `tiny`
// shrinks every cell to a few short epochs (the self-test size).
BenchWorkload MakeBenchWorkload(const std::string& name, std::uint64_t seed,
                                const std::string& work_dir, bool tiny);

struct CellRecord {
  numalp::RunResult result;
  double run_cpu_s = 0.0;  // the worker thread's CPU seconds in Run()
};

struct RunnerResult {
  std::vector<numalp::RunResult> results;  // by cell index
  double wall_s = 0.0;
  double cpu_s = 0.0;  // the whole process's CPU seconds over the pass
  int workers = 0;
  // Seconds from the first pool worker running out of cells to the end of
  // the pass; measured only with `watch_workers`, 0 otherwise.
  double tail_idle_s = 0.0;
};

// Runs every cell once through ExperimentRunner::Run on `jobs` workers,
// cells handed over in index order as the product's benches do. The runner
// keeps no timing of its own, so with `watch_workers` a sampler thread polls
// the process's thread count to see when the first pool worker exits; the
// end-to-end passes run without it.
RunnerResult RunWithRunner(const BenchWorkload& workload, int jobs, bool watch_workers);

// The host-speed probe: a fixed piece of integer and branch work on an
// L1-resident table, like the simulator's hot loops, timed in the calling
// thread's CPU seconds. A shared host's speed drifts by tens of percent
// over minutes (clock, co-tenants on the same cores); the probe slows with
// it, but no change to the simulator moves it.
double ProbeSeconds();

// The probe's CPU seconds on the reference host (4-vCPU Intel Xeon, GCC
// 12.2 at -O3) when it is not slowed. A time t measured beside a probe
// time p is reported as t * kProbeReferenceS / p: reference-speed seconds.
inline constexpr double kProbeReferenceS = 6.2e-3;

struct SerialPass {
  std::vector<numalp::RunResult> results;  // by cell index
  // The calling thread's CPU seconds per cell: constructor, Run() and the
  // runner's own handling of the cell.
  std::vector<double> cell_cpu_s;
  // Per cell, the mean of the probe runs just before and just after it.
  std::vector<double> probe_s;
};

// Runs every cell once through ExperimentRunner::Run with one worker. One
// worker runs the cells in index order on the calling thread and reports
// each to the completion observer as it finishes, so the observer reads
// that thread's CPU clock between cells, and runs the probe there, outside
// the cells' times.
SerialPass RunSerial(const BenchWorkload& workload);

// Runs every cell once on the benchmark's own pool of `jobs` threads, in
// index order, timing each cell: a Simulation is constructed, run (the
// cell's cost is the CPU time of Run()), destroyed. A cell that throws
// records a "failed: ..." status, as ExperimentRunner does. With `logs` (one per
// worker) each cell gets core.cell / ctor / run spans.
std::vector<CellRecord> RunPass(const BenchWorkload& workload, int jobs,
                                std::vector<SpanLog>* logs);

// Σ Simulation constructor CPU seconds over every cell, constructed
// serially on the calling thread.
double SetupSeconds(const BenchWorkload& workload);

// One ResultRow per cell, in cell order; `jsonl` receives the JsonlSink
// bytes, one line per row. With `log`, each row gets report.row (build) and
// report.sink (write) spans.
std::vector<numalp::report::ResultRow> MakeRows(const BenchWorkload& workload,
                                                const std::vector<numalp::RunResult>& results,
                                                std::vector<std::string>* jsonl,
                                                SpanLog* log);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_CELLS_H_
