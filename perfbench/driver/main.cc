// perfbench_driver: runs one benchmark workload and prints one JSON object.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --work-dir DIR [--rows-out FILE]
//                    [--spans-out FILE] [--tiny]
//
// --trace 0 measures the end-to-end metrics. Rounds repeat while another
// fits in S seconds (at least one); each round runs every cell once through the
// product's ExperimentRunner with one worker, on the calling thread, whose
// CPU time is read between cells; every time is scaled to reference speed
// by the host-speed probe (cells.h).
// --trace 1 runs the cells once through ExperimentRunner (the reference
// rows and the runner metrics), once untraced and once traced through the
// timing pool (the tracing overhead), then the layer replay of every cell;
// it reports the per-layer metrics and dumps every span as Chrome
// trace-event JSON to --spans-out.
//
// Correctness gates (any failure marks the affected cells failed and makes
// "correct" false): every cell's status is "ok"; every pass reproduces the
// first pass's JSONL rows byte for byte (traced and untraced alike);
// the workload's gated paper checks pass, and at the default seed no
// applicable paper check fails; the replay's access, epoch and region-event
// counts equal each cell's RunResult. The row-digest gate lives in run.py.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/driver/cells.h"
#include "perfbench/driver/layers.h"
#include "perfbench/driver/spans.h"
#include "src/core/runner.h"
#include "src/report/aggregate.h"
#include "src/report/checks.h"
#include "src/report/result_row.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
  std::string rows_out;
  std::string spans_out;
  bool tiny = false;
};

// The seed the repository's rows are pinned at (run.py's DEFAULT_SEED).
// There every applicable paper check must hold, not only the gated ones.
constexpr std::uint64_t kDefaultSeed = 42;

// One window of set-up measurement: at least this many repetitions, and at
// least this long.
constexpr int kSetupWindowReps = 3;
constexpr std::int64_t kSetupWindowNs = 300'000'000;

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args->tiny = true;
      continue;
    }
    if (i + 1 >= argc) {
      return false;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--rows-out") {
      args->rows_out = value;
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && !args->work_dir.empty();
}

// Linear interpolation between order statistics (q in [0, 1]).
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// CPU seconds measured beside a probe run of `probe_s`, at reference speed.
double ReferenceSeconds(double cpu_s, double probe_s) {
  return cpu_s * Ratio(kProbeReferenceS, probe_s);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Collects gate failures and the set of failed cells.
struct Gates {
  std::vector<std::string> errors;
  std::set<std::size_t> failed_cells;
  bool all_failed = false;

  void FailCell(std::size_t cell, const std::string& why) {
    failed_cells.insert(cell);
    errors.push_back("cell " + std::to_string(cell) + ": " + why);
  }
  void FailAll(const std::string& why) {
    all_failed = true;
    errors.push_back(why);
  }
  void Merge(const Gates& other) {
    errors.insert(errors.end(), other.errors.begin(), other.errors.end());
    failed_cells.insert(other.failed_cells.begin(), other.failed_cells.end());
    all_failed = all_failed || other.all_failed;
  }
};

void CheckStatuses(const std::vector<numalp::RunResult>& results, Gates& gates) {
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results[i].status != "ok") {
      gates.FailCell(i, "status " + results[i].status);
    }
  }
}

void CompareRows(const std::vector<std::string>& expected, const std::vector<std::string>& got,
                 const char* what, Gates& gates) {
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (i >= got.size() || got[i] != expected[i]) {
      gates.FailCell(i, std::string(what) + " row differs");
    }
  }
}

// The workload's gated checks must pass; at the default seed, no applicable
// check may fail either. A tiny run is not gated: a few-epoch run produces
// meaningless percentages by design.
void CheckPaper(const BenchWorkload& workload, const std::vector<numalp::report::ResultRow>& rows,
                const Args& args, Gates& gates, std::vector<numalp::report::CheckResult>* out) {
  *out = numalp::report::EvaluatePaperChecks(rows);
  if (args.tiny) {
    return;
  }
  for (const numalp::report::CheckResult& check : *out) {
    const bool gated = std::find(workload.gated_checks.begin(), workload.gated_checks.end(),
                                 check.name) != workload.gated_checks.end();
    if (gated ? check.status != numalp::report::CheckStatus::kPass
              : args.seed == kDefaultSeed && check.status == numalp::report::CheckStatus::kFail) {
      gates.FailAll("paper check " + check.name + " did not pass: " + check.detail);
    }
  }
}

// A cell that replays a trace and captures its stream must write the very
// bytes it read: the trace layer's write side round-trips its read side.
void CheckCaptures(const BenchWorkload& workload, Gates& gates) {
  const auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  };
  for (std::size_t i = 0; i < workload.cells.size(); ++i) {
    const numalp::WorkloadSpec& spec = workload.cells[i].spec.workload;
    if (!spec.capture_file.empty() && !spec.trace_file.empty() &&
        slurp(spec.capture_file) != slurp(spec.trace_file)) {
      gates.FailCell(i, "captured stream differs from the replayed trace");
    }
  }
}

void WriteRows(const std::string& path, const std::vector<std::string>& jsonl) {
  if (path.empty()) {
    return;
  }
  std::ofstream out(path, std::ios::binary);
  for (const std::string& line : jsonl) {
    out << line;
  }
}

std::vector<numalp::RunResult> Results(const std::vector<CellRecord>& records) {
  std::vector<numalp::RunResult> results;
  for (const CellRecord& record : records) {
    results.push_back(record.result);
  }
  return results;
}

// --trace 0: rounds of every cell through a one-worker ExperimentRunner;
// the end-to-end metrics.
std::vector<Metric> MeasureEndToEnd(const Args& args, const BenchWorkload& workload,
                                    Gates& gates, std::size_t* attempted, std::size_t* failed,
                                    std::size_t* passes, double* probe_s,
                                    std::vector<numalp::report::CheckResult>* checks) {
  // Set-up: every cell's Simulation constructed serially, in short windows
  // before each round and after the last one. The host's speed wanders
  // within a run, so spreading the repetitions over the run steadies their
  // median more than one long window would. The first construction warms
  // the allocator up and is not counted.
  (void)SetupSeconds(workload);
  std::vector<double> setups;
  std::vector<double> probes;
  const auto setup_window = [&]() {
    const std::int64_t window_start = NowNs();
    double probe_before = ProbeSeconds();
    for (int reps = 0; reps < kSetupWindowReps || NowNs() - window_start < kSetupWindowNs;
         ++reps) {
      const double seconds = SetupSeconds(workload);
      const double probe_after = ProbeSeconds();
      setups.push_back(ReferenceSeconds(seconds, (probe_before + probe_after) / 2.0));
      probes.push_back(probe_after);
      probe_before = probe_after;
    }
  };

  const std::size_t cells = workload.cells.size();
  std::vector<std::string> first_rows;
  std::vector<std::vector<double>> cell_seconds(cells);
  std::uint64_t accesses = 0;
  std::size_t runs = 0;
  std::size_t failed_runs = 0;
  const std::int64_t start = NowNs();
  for (int round = 0;; ++round) {
    const std::int64_t round_start = NowNs();
    setup_window();
    const SerialPass pass = RunSerial(workload);
    Gates round_gates;
    CheckStatuses(pass.results, round_gates);
    std::vector<std::string> jsonl;
    const auto rows = MakeRows(workload, pass.results, &jsonl, nullptr);
    if (round == 0) {
      first_rows = jsonl;
      WriteRows(args.rows_out, jsonl);
      CheckPaper(workload, rows, args, round_gates, checks);
      CheckCaptures(workload, round_gates);
      for (const numalp::RunResult& result : pass.results) {
        accesses += result.totals.accesses;
      }
    } else {
      CompareRows(first_rows, jsonl, "repeated-round", round_gates);
    }
    for (std::size_t i = 0; i < cells; ++i) {
      cell_seconds[i].push_back(ReferenceSeconds(pass.cell_cpu_s[i], pass.probe_s[i]));
    }
    probes.insert(probes.end(), pass.probe_s.begin(), pass.probe_s.end());
    runs += cells;
    failed_runs += round_gates.all_failed ? cells : round_gates.failed_cells.size();
    gates.Merge(round_gates);
    // No round starts that would end past S seconds, judged by this one's
    // length: a paper-grid round takes about half a minute.
    const std::int64_t now = NowNs();
    if (static_cast<double>(now - start + (now - round_start)) / 1e9 > args.seconds) {
      break;
    }
  }
  setup_window();
  *attempted = runs;
  *failed = failed_runs;
  *passes = runs / cells;
  *probe_s = Quantile(probes, 0.5);
  // Every time is at reference speed (ReferenceSeconds), which takes out
  // most of the host's drift. A cell's cost is its median over the rounds;
  // the quantiles are over cells.
  std::vector<double> per_cell;
  double total_s = 0.0;
  for (const std::vector<double>& samples : cell_seconds) {
    per_cell.push_back(Quantile(samples, 0.5));
    total_s += per_cell.back();
  }
  return {
      {"sim_maccesses_per_s", Ratio(static_cast<double>(accesses), total_s) / 1e6, "Macc/s"},
      {"cell_s_p50", Quantile(per_cell, 0.5), "s"},
      {"cell_s_p90", Quantile(per_cell, 0.9), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"setup_s", Quantile(setups, 0.5), "s"},
      {"ok_cell_pct", 100.0 * (1.0 - Ratio(static_cast<double>(failed_runs),
                                           static_cast<double>(runs))),
       "%"},
  };
}

// --trace 1: a runner pass, an untraced and a traced timing pass, the layer
// replay; the per-layer metrics.
std::vector<Metric> MeasureLayers(const Args& args, const BenchWorkload& workload, int jobs,
                                  Gates& gates, std::size_t* attempted, std::size_t* failed,
                                  std::size_t* passes,
                                  std::vector<numalp::report::CheckResult>* checks) {
  const std::size_t cells = workload.cells.size();
  // The reference: the product's runner over the cells, watched for the
  // runner metrics.
  const RunnerResult runner = RunWithRunner(workload, jobs, true);
  CheckStatuses(runner.results, gates);
  std::vector<std::string> reference_rows;
  MakeRows(workload, runner.results, &reference_rows, nullptr);
  WriteRows(args.rows_out, reference_rows);

  // The tracing overhead: the timing pool untraced and traced, untraced
  // first at even seeds and second at odd ones, so that warm-up lands on
  // both sides. The
  // traced pass records cell, constructor and run spans per worker; row,
  // sink and checks spans go on the calling thread.
  std::vector<SpanLog> logs;
  for (int w = 0; w < jobs; ++w) {
    logs.emplace_back(w);
  }
  double traced_cpu_s = 0.0;
  double untraced_cpu_s = 0.0;
  std::vector<CellRecord> traced;
  for (const bool with_spans : {args.seed % 2 != 0, args.seed % 2 == 0}) {
    const std::int64_t cpu_start = ProcessCpuNs();
    std::vector<CellRecord> pass = RunPass(workload, jobs, with_spans ? &logs : nullptr);
    (with_spans ? traced_cpu_s : untraced_cpu_s) =
        static_cast<double>(ProcessCpuNs() - cpu_start) / 1e9;
    const std::vector<numalp::RunResult> results = Results(pass);
    CheckStatuses(results, gates);
    if (with_spans) {
      traced = std::move(pass);
    } else {
      std::vector<std::string> untraced_rows;
      MakeRows(workload, results, &untraced_rows, nullptr);
      CompareRows(reference_rows, untraced_rows, "untraced", gates);
    }
  }
  std::vector<std::string> traced_rows;
  const auto rows = MakeRows(workload, Results(traced), &traced_rows, &logs[0]);
  CompareRows(reference_rows, traced_rows, "traced", gates);
  CheckCaptures(workload, gates);
  {
    Scoped span(&logs[0], "report.checks", -1);
    (void)numalp::report::Aggregate(rows);
    CheckPaper(workload, rows, args, gates, checks);
  }

  // The layer replay of every cell, on the same worker count.
  std::vector<SpanLog> replay_logs;
  for (int w = 0; w < jobs; ++w) {
    replay_logs.emplace_back(jobs + w);
  }
  std::vector<LayerCounts> per_cell(cells);
  // The trace layer's write side runs on the capture cell when the workload
  // has one, otherwise on cell 0's stream (then decoded back below).
  std::size_t capture_cell = 0;
  for (std::size_t i = 0; i < cells; ++i) {
    if (!workload.cells[i].spec.workload.capture_file.empty()) {
      capture_cell = i;
    }
  }
  const std::string stream_path = args.work_dir + "/replay-stream.trace";
  std::vector<std::string> replay_errors(cells);  // by cell; written by one worker each
  {
    std::atomic<std::size_t> next{0};
    const auto worker = [&](int w) {
      for (std::size_t i = next++; i < cells; i = next++) {
        try {
          per_cell[i] = ReplayCell(workload.cells[i].spec, static_cast<int>(i),
                                   i == capture_cell ? stream_path : std::string(),
                                   replay_logs[static_cast<std::size_t>(w)]);
        } catch (const std::exception& e) {
          replay_errors[i] = e.what();
        }
      }
    };
    std::vector<std::thread> threads;
    for (int w = 1; w < jobs; ++w) {
      threads.emplace_back(worker, w);
    }
    worker(0);
    for (std::thread& thread : threads) {
      thread.join();
    }
  }
  LayerCounts counts;
  for (std::size_t i = 0; i < cells; ++i) {
    if (!replay_errors[i].empty()) {
      gates.FailCell(i, "replay failed: " + replay_errors[i]);
      continue;
    }
    const LayerCounts& got = per_cell[i];
    const numalp::RunResult& result = runner.results[i];
    if (got.accesses != result.totals.accesses || got.region_maps != result.region_maps ||
        got.region_unmaps != result.region_unmaps ||
        got.epochs != static_cast<std::uint64_t>(result.epochs)) {
      gates.FailCell(i, "replay counts (accesses " + std::to_string(got.accesses) + ", epochs " +
                            std::to_string(got.epochs) + ", maps " +
                            std::to_string(got.region_maps) + ", unmaps " +
                            std::to_string(got.region_unmaps) + ") differ from the RunResult");
    }
    counts += got;
  }
  const std::string decoded_path = workload.trace_file.empty() ? stream_path : workload.trace_file;
  std::uint64_t decoded = 0;
  double trace_bytes = 0.0;
  try {
    decoded = DecodeTrace(decoded_path, replay_logs[0]);
    trace_bytes = static_cast<double>(std::filesystem::file_size(decoded_path));
  } catch (const std::exception& e) {
    gates.FailAll(std::string("trace read-back failed: ") + e.what());
  }
  if (workload.trace_file.empty() && decoded != per_cell[capture_cell].accesses) {
    gates.FailCell(capture_cell, "captured stream decodes to a different access count");
  }
  std::filesystem::remove(stream_path);

  std::vector<const SpanLog*> all;
  for (const SpanLog& log : logs) {
    all.push_back(&log);
  }
  for (const SpanLog& log : replay_logs) {
    all.push_back(&log);
  }
  const std::map<std::string, SpanTotals> spans = Summarize(all);
  const auto ns = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : static_cast<double>(it->second.total_ns);
  };
  if (!args.spans_out.empty() &&
      !WriteChromeTrace(args.spans_out, all, "perfbench " + workload.name)) {
    gates.FailAll("cannot write " + args.spans_out);
  }

  std::uint64_t peak_entries = 0;
  std::uint64_t state_bytes = 0;
  for (const numalp::RunResult& result : runner.results) {
    peak_entries = std::max(peak_entries, result.profile_peak_entries);
    state_bytes = std::max(state_bytes, result.profile_state_bytes);
  }
  *attempted = cells;
  *failed = gates.all_failed ? cells : gates.failed_cells.size();
  *passes = 3;
  const double acc = static_cast<double>(counts.accesses);
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  return {
      {"workloads.fill_ns_per_access", Ratio(ns("workloads.fill"), acc), "ns"},
      {"workloads.accesses", acc, "count"},
      {"trace.decode_ns_per_access", Ratio(ns("trace.decode"), d(decoded)), "ns"},
      {"trace.encode_ns_per_access", Ratio(ns("trace.encode"), d(counts.encoded_accesses)), "ns"},
      {"trace.open_ms", ns("trace.open") / 1e6, "ms"},
      {"trace.bytes_per_access", Ratio(trace_bytes, d(decoded)), "B"},
      {"vm.touch_ns", Ratio(ns("vm.touch"), d(counts.touches)), "ns"},
      {"vm.touch_faults", d(counts.touch_faults), "count"},
      {"vm.translate_ns_per_access", Ratio(ns("vm.translate"), acc), "ns"},
      {"vm.page_table.lookup_ns", Ratio(ns("vm.page_table.lookup"), d(counts.pt_lookups)), "ns"},
      {"vm.munmap_ms", ns("vm.munmap") / 1e6, "ms"},
      {"vm.munmap_bytes", d(counts.munmap_bytes), "B"},
      {"vm.migrate_ns", Ratio(ns("vm.migrate"), d(counts.migrations)), "ns"},
      {"vm.migrate_fail_pct", 100.0 * Ratio(d(counts.migrate_fails), d(counts.migrations)), "%"},
      {"vm.split_ns", Ratio(ns("vm.split"), d(counts.splits)), "ns"},
      {"vm.split_fail_pct", 100.0 * Ratio(d(counts.split_fails), d(counts.splits)), "%"},
      {"vm.promote_ns", Ratio(ns("vm.promote"), d(counts.promote_passes)), "ns"},
      {"mem.buddy.alloc_ns", Ratio(d(counts.buddy_alloc_ns), d(counts.buddy_allocs)), "ns"},
      {"mem.buddy.free_ns", Ratio(d(counts.buddy_free_ns), d(counts.buddy_frees)), "ns"},
      {"mem.buddy.ops", d(counts.buddy_allocs + counts.buddy_frees), "count"},
      {"mem.buddy.alloc_fail_pct",
       100.0 * Ratio(d(counts.buddy_alloc_fails), d(counts.buddy_allocs)), "%"},
      {"mem.phys_init_ms", Ratio(ns("mem.phys_init"), d(counts.phys_inits)) / 1e6, "ms"},
      {"hw.tlb.lookup_ns",
       Ratio(ns("hw.tlb") - static_cast<double>(counts.tlb_insert_ns), d(counts.tlb_lookups)),
       "ns"},
      {"hw.tlb.insert_ns", Ratio(static_cast<double>(counts.tlb_insert_ns), d(counts.tlb_inserts)),
       "ns"},
      {"hw.tlb.hit_pct", 100.0 * Ratio(d(counts.tlb_hits), d(counts.tlb_lookups)), "%"},
      {"hw.tlb.lookups", d(counts.tlb_lookups), "count"},
      {"hw.ibs.observe_ns_per_access", Ratio(ns("hw.ibs"), acc), "ns"},
      {"hw.ibs.samples", d(counts.ibs_samples), "count"},
      {"metrics.window.push_ns_per_sample",
       Ratio(ns("metrics.window.push"), d(counts.window_pushed_samples)), "ns"},
      {"metrics.window.fold_ms_per_epoch", Ratio(ns("metrics.window.fold"), d(counts.folds)) / 1e6,
       "ms"},
      {"metrics.window.peak_entries", d(peak_entries), "count"},
      {"metrics.window.state_mb", d(state_bytes) / (1024.0 * 1024.0), "MB"},
      {"carrefour.plan_us_per_epoch", Ratio(ns("carrefour.plan"), d(counts.plans)) / 1e3, "us"},
      {"carrefour.actions", d(counts.plan_actions), "count"},
      {"core.carrefour_lp.step_us_per_epoch",
       Ratio(ns("core.carrefour_lp.step"), d(counts.lp_steps)) / 1e3, "us"},
      {"core.simulation.ctor_ms", Ratio(ns("core.simulation.ctor"), d(cells)) / 1e6, "ms"},
      {"core.runner.busy_pct", 100.0 * Ratio(runner.cpu_s, runner.workers * runner.wall_s), "%"},
      {"core.runner.tail_idle_s", runner.tail_idle_s, "s"},
      {"report.row_us", Ratio(ns("report.row") + ns("report.sink"), d(cells)) / 1e3, "us"},
      {"report.checks_ms", ns("report.checks") / 1e6, "ms"},
      {"tracing_overhead_pct", 100.0 * (Ratio(traced_cpu_s, untraced_cpu_s) - 1.0), "%"},
  };
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload NAME --seed N --seconds S --trace 0|1 "
                 "--work-dir DIR [--rows-out FILE] [--spans-out FILE] [--tiny]\n");
    return 2;
  }
  // Runner workers: one for the end-to-end rounds, so that the one busy
  // thread is timed rather than the host's scheduler; in trace mode one per
  // core, at most four, so the runner pool is watched at work.
  const int jobs =
      args.trace ? std::max(1, std::min(4, static_cast<int>(std::thread::hardware_concurrency())))
                 : 1;
  std::filesystem::create_directories(args.work_dir);
  const std::int64_t start = NowNs();
  const BenchWorkload workload = MakeBenchWorkload(args.workload, args.seed, args.work_dir, args.tiny);
  const double inputs_s = static_cast<double>(NowNs() - start) / 1e9;

  Gates gates;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t passes = 0;
  double probe_s = 0.0;  // the host-speed probe's median, end-to-end mode only
  std::vector<numalp::report::CheckResult> checks;
  const std::vector<Metric> metrics =
      args.trace
          ? MeasureLayers(args, workload, jobs, gates, &attempted, &failed, &passes, &checks)
          : MeasureEndToEnd(args, workload, gates, &attempted, &failed, &passes, &probe_s,
                            &checks);
  for (const std::string& file : workload.files) {
    std::filesystem::remove(file);
  }

  std::printf("{\"correct\":%s,\"attempted\":%zu,\"failed\":%zu,\"workers\":%d,\"cells\":%zu,"
              "\"passes\":%zu,\"probe_s\":%.9f,"
              "\"inputs_s\":%.6f,\"build\":{\"compiler\":\"%s\",\"build_type\":\"%s\","
              "\"flags\":\"%s\"},\"errors\":[",
              gates.errors.empty() ? "true" : "false", attempted, failed, jobs,
              workload.cells.size(), passes, probe_s, inputs_s, numalp::report::JsonEscape(PERFBENCH_COMPILER).c_str(),
              numalp::report::JsonEscape(PERFBENCH_BUILD_TYPE).c_str(), numalp::report::JsonEscape(PERFBENCH_CXX_FLAGS).c_str());
  for (std::size_t i = 0; i < gates.errors.size(); ++i) {
    std::printf("%s\"%s\"", i ? "," : "", numalp::report::JsonEscape(gates.errors[i]).c_str());
  }
  std::printf("],\"checks\":{");
  for (std::size_t i = 0; i < checks.size(); ++i) {
    const char* status = checks[i].status == numalp::report::CheckStatus::kPass   ? "PASS"
                         : checks[i].status == numalp::report::CheckStatus::kFail ? "FAIL"
                                                                                   : "SKIP";
    std::printf("%s\"%s\":\"%s\"", i ? "," : "", numalp::report::JsonEscape(checks[i].name).c_str(), status);
  }
  std::printf("},\"metrics\":{");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", i ? "," : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return gates.errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 3;
  }
}
