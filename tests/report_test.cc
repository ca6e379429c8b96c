// Results-pipeline regression tests (DESIGN.md Section 6): the schema is
// the single source of truth (serialize -> parse -> serialize is the
// identity), CSV/JSONL output matches golden strings, GridReport output is
// byte-identical across jobs values, aggregation reproduces the seed-mean
// arithmetic, summaries round-trip and reject malformed input, and the
// qualitative paper checks pass/fail/skip correctly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <random>
#include <sstream>

#include "src/core/config.h"
#include "src/core/runner.h"
#include "src/report/aggregate.h"
#include "src/report/checks.h"
#include "src/report/collector.h"
#include "src/report/result_row.h"
#include "src/report/sink.h"
#include "src/topo/topology.h"
#include "src/workloads/spec.h"
#include "tests/mutation.h"

namespace numalp::report {
namespace {

// A fully-populated row with awkward values: negative improvement, a
// non-round double, a comma in a string field.
ResultRow GoldenRow() {
  ResultRow row;
  row.bench = "fig1";
  row.machine = "machineB";
  row.workload = "CG.D";
  row.policy = "THP";
  row.variant = "a,b";
  row.seed_index = 2;
  row.seed = 42 + 2 * 7919;
  row.completed = true;
  row.epochs = 17;
  row.total_cycles = 123456789;
  row.measured_cycles = 100000000;
  row.runtime_ms = 61.728394500000001;
  row.improvement_pct = -43.25;
  row.lar_pct = 36.5;
  row.imbalance_pct = 59.0;
  row.pamup_pct = 8.125;
  row.nhp = 3;
  row.psp_pct = 34.0;
  row.walk_l2_miss_pct = 0.1;
  row.steady_fault_share_pct = 1.5;
  row.max_fault_ms = 2.75;
  row.thp_coverage_pct = 99.5;
  row.migrations = 1048;
  row.splits = 4;
  row.promotions = 1;
  row.overhead_pct = 0.79;
  row.est_carrefour_lar_pct = 96.9;
  row.est_split_lar_pct = 100.0;
  row.status = "ok";
  row.fault_alloc_failures = 7;
  row.fault_migration_failures = 5;
  row.fault_split_failures = 1;
  row.fault_truncated_plans = 2;
  row.fault_pressure_epochs = 3;
  row.fault_promote_backoffs = 4;
  row.fault_retried_migrations = 6;
  row.fault_abandoned_pages = 1;
  row.thp_fallback_faults = 9;
  row.frag_index_pct = 37.5;
  row.buddy_largest_free_order = 18;
  row.buddy_free_2m_blocks = 12;
  row.buddy_alloc_failures = 11;
  row.trace_source = "CG.D@machineB#15880";
  row.region_maps = 5;
  row.region_unmaps = 2;
  row.unmapped_bytes = 8388608;
  return row;
}

std::string Serialize(const ResultRow& row) {
  std::string out;
  for (const ResultField& field : ResultSchema()) {
    out += FieldToString(row, field);
    out += '\x1f';
  }
  return out;
}

TEST(ResultSchemaTest, NamesAreUniqueAndTyped) {
  const auto& schema = ResultSchema();
  EXPECT_EQ(schema.size(), 46u);
  for (std::size_t a = 0; a < schema.size(); ++a) {
    for (std::size_t b = a + 1; b < schema.size(); ++b) {
      EXPECT_STRNE(schema[a].name, schema[b].name);
    }
    // Exactly one member pointer set, matching the declared type.
    const ResultField& f = schema[a];
    const int set = (f.s != nullptr) + (f.b != nullptr) + (f.i != nullptr) +
                    (f.u != nullptr) + (f.d != nullptr);
    EXPECT_EQ(set, 1) << f.name;
  }
}

TEST(ResultSchemaTest, FieldStringsRoundTrip) {
  const ResultRow row = GoldenRow();
  ResultRow parsed;
  for (const ResultField& field : ResultSchema()) {
    ASSERT_TRUE(FieldFromString(parsed, field, FieldToString(row, field))) << field.name;
  }
  EXPECT_EQ(Serialize(row), Serialize(parsed));
}

TEST(ResultSchemaTest, DoubleSerializationIsShortestRoundTrip) {
  // Canonical doubles must parse back to the exact same bits.
  const ResultField* dbl_field = nullptr;
  for (const ResultField& candidate : ResultSchema()) {
    if (std::string(candidate.name) == "est_split_lar_pct") {
      dbl_field = &candidate;
    }
  }
  ASSERT_NE(dbl_field, nullptr);
  for (double value : {-43.25, 61.728394500000001, 0.1, 1e-12, 1.0 / 3.0}) {
    ResultRow row;
    const ResultField& field = *dbl_field;
    row.*(field.d) = value;
    ResultRow parsed;
    ASSERT_TRUE(FieldFromString(parsed, field, FieldToString(row, field)));
    EXPECT_EQ(parsed.*(field.d), value);
  }
}

TEST(CsvSinkTest, GoldenOutput) {
  std::ostringstream out;
  CsvSink sink(out);
  sink.Write(GoldenRow());
  sink.Finish();
  EXPECT_EQ(
      out.str(),
      "bench,machine,workload,policy,variant,seed_index,seed,completed,epochs,"
      "total_cycles,measured_cycles,runtime_ms,improvement_pct,lar_pct,imbalance_pct,"
      "pamup_pct,nhp,psp_pct,walk_l2_miss_pct,steady_fault_share_pct,max_fault_ms,"
      "thp_coverage_pct,migrations,splits,promotions,overhead_pct,"
      "est_carrefour_lar_pct,est_split_lar_pct,status,fault_alloc_failures,"
      "fault_migration_failures,fault_split_failures,fault_truncated_plans,"
      "fault_pressure_epochs,fault_promote_backoffs,fault_retried_migrations,"
      "fault_abandoned_pages,thp_fallback_faults,frag_index_pct,"
      "buddy_largest_free_order,buddy_free_2m_blocks,buddy_alloc_failures,"
      "trace_source,region_maps,region_unmaps,unmapped_bytes\n"
      "fig1,machineB,CG.D,THP,\"a,b\",2,15880,true,17,123456789,100000000,"
      "61.7283945,-43.25,36.5,59,8.125,3,34,0.1,1.5,2.75,99.5,1048,4,1,0.79,96.9,100,"
      "ok,7,5,1,2,3,4,6,1,9,37.5,18,12,11,CG.D@machineB#15880,5,2,8388608\n");
}

TEST(JsonlSinkTest, GoldenOutputAndRoundTrip) {
  std::ostringstream out;
  JsonlSink sink(out);
  const ResultRow row = GoldenRow();
  sink.Write(row);
  sink.Finish();
  const std::string line = out.str();
  EXPECT_EQ(line.substr(0, 58),
            "{\"bench\":\"fig1\",\"machine\":\"machineB\",\"workload\":\"CG.D\",\"po");
  EXPECT_EQ(line.back(), '\n');

  ResultRow parsed;
  std::string error;
  ASSERT_TRUE(ParseJsonlLine(line.substr(0, line.size() - 1), &parsed, &error)) << error;
  EXPECT_EQ(Serialize(row), Serialize(parsed));

  // Serialize the parsed row again: byte-identical (canonical form).
  std::ostringstream again;
  JsonlSink sink2(again);
  sink2.Write(parsed);
  EXPECT_EQ(line, again.str());
}

TEST(JsonlParseTest, IgnoresUnknownKeysAndReportsMalformed) {
  ResultRow row;
  std::string error;
  EXPECT_TRUE(ParseJsonlLine(R"({"bench":"x","not_a_field":7,"epochs":3})", &row, &error));
  EXPECT_EQ(row.bench, "x");
  EXPECT_EQ(row.epochs, 3);
  EXPECT_FALSE(ParseJsonlLine(R"({"epochs":"three"})", &row, &error));
  EXPECT_FALSE(ParseJsonlLine("epochs: 3", &row, &error));
}

TEST(MarkdownSinkTest, AlignsColumns) {
  std::ostringstream out;
  MarkdownSink sink(out);
  sink.Write(GoldenRow());
  sink.Finish();
  const std::string text = out.str();
  EXPECT_NE(text.find("| bench |"), std::string::npos);
  EXPECT_NE(text.find("| fig1  |"), std::string::npos);
  EXPECT_NE(text.find("-43.25"), std::string::npos);  // human double formatting
}

SimConfig TinySim() {
  SimConfig sim;
  sim.max_epochs = 4;
  sim.accesses_per_thread_per_epoch = 512;
  return sim;
}

std::string RunGridThroughReport(int jobs) {
  auto out = std::make_unique<std::ostringstream>();
  std::ostringstream& stream = *out;
  ExperimentGrid grid;
  grid.machines = {Topology::Tiny()};
  grid.workloads = {BenchmarkId::kCG_D, BenchmarkId::kWC};
  grid.policies = {PolicyKind::kLinux4K, PolicyKind::kThp, PolicyKind::kCarrefourLp};
  grid.num_seeds = 2;
  grid.sim = TinySim();
  GridReport report(std::make_unique<JsonlSink>(stream), "test", jobs);
  report.Run(grid);
  report.Finish();
  return stream.str();
}

// The acceptance-criteria regression: sink output is byte-identical at any
// jobs value, because the runner reports cells in index order.
TEST(GridReportTest, OutputIsByteIdenticalAcrossJobCounts) {
  const std::string serial = RunGridThroughReport(1);
  const std::string parallel = RunGridThroughReport(8);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

TEST(GridReportTest, RowsCarryCoordinatesAndBaselineImprovement) {
  std::ostringstream stream;
  ExperimentGrid grid;
  grid.machines = {Topology::Tiny()};
  grid.workloads = {BenchmarkId::kWC};
  grid.policies = {PolicyKind::kThp};
  grid.num_seeds = 2;
  grid.sim = TinySim();
  {
    GridReport report(std::make_unique<JsonlSink>(stream), "test", 4);
    report.Run(grid);
  }
  std::istringstream lines(stream.str());
  std::string line;
  std::vector<ResultRow> rows;
  while (std::getline(lines, line)) {
    ResultRow row;
    std::string error;
    ASSERT_TRUE(ParseJsonlLine(line, &row, &error)) << error;
    rows.push_back(row);
  }
  // Per seed: the Linux-4K baseline, then the THP cell.
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].policy, "Linux-4K");
  EXPECT_EQ(rows[0].improvement_pct, 0.0);
  EXPECT_EQ(rows[0].seed_index, 0);
  EXPECT_EQ(rows[1].policy, "THP");
  EXPECT_EQ(rows[1].seed_index, 0);
  EXPECT_EQ(rows[2].seed_index, 1);
  EXPECT_EQ(rows[2].seed, CellSeed(grid.sim.seed, 1));
  EXPECT_EQ(rows[3].policy, "THP");
  EXPECT_EQ(rows[3].bench, "test");
  EXPECT_EQ(rows[3].workload, "WC");

  // The THP improvement matches ImprovementPct against the grid baseline.
  const GridResults results = RunGrid(grid, ExperimentRunner(1));
  EXPECT_EQ(rows[1].improvement_pct,
            ImprovementPct(results.Baseline(0, 0, 0), results.At(0, 0, 0, 0)));
}

TEST(GridReportTest, RunCellsUsesMetaBaselineAndVariant) {
  std::ostringstream stream;
  const Topology topo = Topology::Tiny();
  std::vector<RunSpec> cells(2);
  cells[0].topo = topo;
  cells[0].workload = MakeWorkloadSpec(BenchmarkId::kWC, topo);
  cells[0].policy = MakePolicyConfig(PolicyKind::kLinux4K);
  cells[0].sim = TinySim();
  cells[1] = cells[0];
  cells[1].policy = MakePolicyConfig(PolicyKind::kThp);
  {
    GridReport report(std::make_unique<JsonlSink>(stream), "test", 2);
    report.RunCells(cells, {{"sweep=a", -1, 0}, {"sweep=a", 0, 0}});
  }
  std::istringstream lines(stream.str());
  std::string line;
  std::vector<ResultRow> rows;
  while (std::getline(lines, line)) {
    ResultRow row;
    std::string error;
    ASSERT_TRUE(ParseJsonlLine(line, &row, &error)) << error;
    rows.push_back(row);
  }
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].variant, "sweep=a");
  EXPECT_EQ(rows[0].improvement_pct, 0.0);
  EXPECT_EQ(rows[1].variant, "sweep=a");
  EXPECT_NE(rows[1].improvement_pct, 0.0);
}

ResultRow Row(const std::string& machine, const std::string& workload,
              const std::string& policy, double improvement, double lar = 50.0,
              const std::string& variant = "") {
  ResultRow row;
  row.bench = "fig";
  row.machine = machine;
  row.workload = workload;
  row.policy = policy;
  row.variant = variant;
  row.improvement_pct = improvement;
  row.lar_pct = lar;
  return row;
}

TEST(AggregateTest, MeansMinMaxOverSeeds) {
  const std::vector<ResultRow> rows = {Row("machineB", "CG.D", "THP", -40.0),
                                       Row("machineB", "CG.D", "THP", -46.0),
                                       Row("machineB", "CG.D", "Linux-4K", 0.0)};
  const std::vector<AggregateRow> aggregates = Aggregate(rows);
  ASSERT_EQ(aggregates.size(), 2u);
  EXPECT_EQ(aggregates[0].policy, "THP");  // first appearance order
  EXPECT_EQ(aggregates[0].runs, 2);
  EXPECT_EQ(aggregates[0].mean_improvement_pct, (-40.0 + -46.0) * (1.0 / 2));
  EXPECT_EQ(aggregates[0].min_improvement_pct, -46.0);
  EXPECT_EQ(aggregates[0].max_improvement_pct, -40.0);
}

// Seed means are the ordered row sum times the reciprocal of the run count
// (not a division), bit for bit — the arithmetic every committed summary
// was written with. Checked on the rows of a real 3-seed grid.
TEST(AggregateTest, MeansAreOrderedSumTimesReciprocal) {
  std::ostringstream stream;
  ExperimentGrid grid;
  grid.machines = {Topology::Tiny()};
  grid.workloads = {BenchmarkId::kCG_D};
  grid.policies = {PolicyKind::kLinux4K, PolicyKind::kThp};
  grid.num_seeds = 3;
  grid.sim = TinySim();
  {
    GridReport report(std::make_unique<JsonlSink>(stream), "test", 4);
    report.Run(grid);
  }
  std::vector<ResultRow> rows;
  std::istringstream lines(stream.str());
  for (std::string line; std::getline(lines, line);) {
    std::string error;
    ASSERT_TRUE(ParseJsonlLine(line, &rows.emplace_back(), &error)) << error;
  }
  const std::vector<AggregateRow> aggregates = Aggregate(rows);
  ASSERT_EQ(aggregates.size(), 2u);
  const AggregateRow& baseline = aggregates[0];
  const AggregateRow& thp = aggregates[1];
  ASSERT_EQ(thp.policy, "THP");
  ASSERT_EQ(thp.runs, 3);
  EXPECT_EQ(baseline.mean_improvement_pct, 0.0);  // each baseline against itself

  double improvement = 0.0, lar = 0.0, nhp = 0.0, migrations = 0.0, low = 1e300, high = -1e300;
  for (const ResultRow& row : rows) {
    if (row.policy != "THP") {
      continue;
    }
    improvement += row.improvement_pct;
    lar += row.lar_pct;
    nhp += row.nhp;
    migrations += static_cast<double>(row.migrations);
    low = std::min(low, row.improvement_pct);
    high = std::max(high, row.improvement_pct);
  }
  const double inv = 1.0 / 3;
  EXPECT_EQ(thp.mean_improvement_pct, improvement * inv);
  EXPECT_EQ(thp.lar_pct, lar * inv);
  EXPECT_EQ(thp.nhp, nhp * inv);
  EXPECT_EQ(thp.migrations, migrations * inv);
  EXPECT_EQ(thp.min_improvement_pct, low);
  EXPECT_EQ(thp.max_improvement_pct, high);
  EXPECT_GT(thp.lar_pct, 0.0);

  // Values on which the shortcuts differ: 5.0 / 3 != 5.0 * (1.0 / 3), and
  // summing {1e16, 1, -1e16} in any other order keeps the 1.
  const AggregateRow mean = Aggregate({Row("m", "w", "p", 2.0, 1e16), Row("m", "w", "p", 1.0, 1.0),
                                       Row("m", "w", "p", 2.0, -1e16)})[0];
  EXPECT_EQ(mean.mean_improvement_pct, 5.0 * inv);
  EXPECT_NE(mean.mean_improvement_pct, 5.0 / 3);
  EXPECT_EQ(mean.lar_pct, 0.0);
}

TEST(AggregateTest, VariantsAreSeparateColumns) {
  const std::vector<ResultRow> rows = {Row("machineB", "CG.D", "THP", -40.0, 50.0, "x=1"),
                                       Row("machineB", "CG.D", "THP", -46.0, 50.0, "x=2")};
  EXPECT_EQ(Aggregate(rows).size(), 2u);
}

TEST(ChecksTest, PassOnPaperShapedRows) {
  std::vector<ResultRow> rows = {
      Row("machineB", "CG.D", "Linux-4K", 0.0, 40.0),
      Row("machineB", "CG.D", "THP", -43.0, 36.0),
      Row("machineB", "CG.D", "Carrefour-2M", -38.0, 38.0),
      Row("machineB", "CG.D", "Carrefour-LP", 2.0, 39.0),
      Row("machineB", "WC", "THP", 109.0),
      Row("machineA", "wrmem", "THP", 51.0),
      Row("machineB", "wrmem", "THP", 80.0),
      Row("machineA", "SSCA.20", "THP", -17.0),
      Row("machineA", "SSCA.20", "Carrefour-2M", 13.0),
      Row("machineA", "UA.B", "Linux-4K", 0.0, 90.0),
      Row("machineA", "UA.B", "THP", -25.0, 61.0),
  };
  const auto results = EvaluatePaperChecks(rows);
  EXPECT_TRUE(AllPassed(results));
  int passed = 0;
  for (const auto& result : results) {
    passed += result.status == CheckStatus::kPass ? 1 : 0;
  }
  EXPECT_EQ(passed, 9);  // every check has its columns
}

TEST(ChecksTest, LpGeqCarrefourAcrossAffectedSet) {
  // Carrefour-LP more than the tolerance band below Carrefour-2M on an
  // affected workload contradicts the paper's "never loses more than a few
  // percent" (Figure 3) and must fail.
  std::vector<ResultRow> rows = {Row("machineA", "LU.B", "Carrefour-2M", -5.0),
                                 Row("machineA", "LU.B", "Carrefour-LP", -40.0)};
  auto results = EvaluatePaperChecks(rows);
  EXPECT_FALSE(AllPassed(results));

  // Within the band: passes.
  rows = {Row("machineA", "LU.B", "Carrefour-2M", -5.0),
          Row("machineA", "LU.B", "Carrefour-LP", -8.0)};
  EXPECT_TRUE(AllPassed(EvaluatePaperChecks(rows)));

  // UA holds the same 6-point band as every other affected column (the old
  // 45-point mass-relocation carve-out is gone)...
  rows = {Row("machineB", "UA.B", "Carrefour-2M", -5.0, 25.0),
          Row("machineB", "UA.B", "Carrefour-LP", -40.0, 70.0)};
  EXPECT_FALSE(AllPassed(EvaluatePaperChecks(rows)));
  // ...and additionally must show the false-sharing recovery: inside the
  // band but with LAR below plain Carrefour's still fails.
  rows = {Row("machineB", "UA.B", "Carrefour-2M", -5.0, 25.0),
          Row("machineB", "UA.B", "Carrefour-LP", -8.0, 12.0)};
  EXPECT_FALSE(AllPassed(EvaluatePaperChecks(rows)));
  rows = {Row("machineB", "UA.B", "Carrefour-2M", -5.0, 25.0),
          Row("machineB", "UA.B", "Carrefour-LP", -8.0, 70.0)};
  EXPECT_TRUE(AllPassed(EvaluatePaperChecks(rows)));
}

TEST(ChecksTest, SummaryRoundTripEvaluatesIdentically) {
  // A written bench_summary.json parses back into groups whose pooled
  // checks agree with the row-level evaluation — the contract behind
  // `numalp_report --from-summary BENCH_fig2_fig3.json --check`.
  const std::vector<ResultRow> rows = {
      Row("machineB", "CG.D", "Linux-4K", 0.0, 40.0),
      Row("machineB", "CG.D", "THP", -43.0, 36.0),
      Row("machineB", "CG.D", "Carrefour-2M", -38.0, 38.0),
      Row("machineB", "CG.D", "Carrefour-LP", 2.0, 39.0),
      Row("machineA", "UA.B", "Linux-4K", 0.0, 90.0),
      Row("machineA", "UA.B", "THP", -25.0, 61.0),
      Row("machineA", "UA.B", "Carrefour-2M", -15.0, 34.0),
      Row("machineA", "UA.B", "Carrefour-LP", -18.0, 85.0),
      Row("machineA", "LU.B", "Carrefour-2M", -5.0, 80.0, "sweep"),  // variant: ignored
  };
  const std::vector<AggregateRow> aggregates = Aggregate(rows);
  std::ostringstream out;
  WriteSummaryJson(out, aggregates);

  std::vector<AggregateRow> parsed;
  std::string error;
  ASSERT_TRUE(ParseSummaryJson(out.str(), &parsed, &error)) << error;
  ASSERT_EQ(parsed.size(), aggregates.size());
  EXPECT_EQ(parsed[0].machine, aggregates[0].machine);
  EXPECT_EQ(parsed[0].runs, aggregates[0].runs);
  EXPECT_DOUBLE_EQ(parsed[0].mean_improvement_pct, aggregates[0].mean_improvement_pct);
  EXPECT_DOUBLE_EQ(parsed[0].lar_pct, aggregates[0].lar_pct);

  const auto from_rows = EvaluatePaperChecks(rows);
  const auto from_summary = EvaluatePaperChecks(parsed);
  ASSERT_EQ(from_rows.size(), from_summary.size());
  for (std::size_t i = 0; i < from_rows.size(); ++i) {
    EXPECT_EQ(from_rows[i].name, from_summary[i].name);
    EXPECT_EQ(static_cast<int>(from_rows[i].status),
              static_cast<int>(from_summary[i].status))
        << from_rows[i].name;
  }
  EXPECT_TRUE(AllPassed(from_summary));

  std::vector<AggregateRow> rejected;
  EXPECT_FALSE(ParseSummaryJson("{\"schema\":\"something-else\"}", &rejected, &error));
}

// Every AggregateRow field set to a value unlike its default, strings
// carrying the characters the writers escape.
AggregateRow FullAggregate() {
  AggregateRow a;
  a.bench = "fig\"1\\";
  a.machine = "machine,B";
  a.workload = "CG.D\tx";
  a.policy = "THP\nnext";
  a.variant = "ibs=1/64";
  a.runs = 7;
  a.mean_improvement_pct = -43.25;
  a.min_improvement_pct = -61.728394500000001;
  a.max_improvement_pct = 1e-12;
  a.runtime_ms = 1.0 / 3.0;
  a.lar_pct = 36.5;
  a.imbalance_pct = 59.125;
  a.pamup_pct = 8.0625;
  a.nhp = 2.5;
  a.psp_pct = 34.1;
  a.walk_l2_miss_pct = 0.1;
  a.steady_fault_share_pct = 1.5;
  a.max_fault_ms = 2.75;
  a.thp_coverage_pct = 99.5;
  a.overhead_pct = 0.79;
  a.migrations = 1048.5;
  a.splits = 4.25;
  a.promotions = 1.75;
  a.thp_fallback_faults = 9.5;
  a.buddy_alloc_failures = 11.5;
  a.frag_index_pct = 37.5;
  return a;
}

std::string SummaryText(const std::vector<AggregateRow>& aggregates) {
  std::ostringstream out;
  WriteSummaryJson(out, aggregates);
  return out.str();
}

std::string CsvText(const std::vector<AggregateRow>& aggregates) {
  std::ostringstream out;
  WriteAggregatesCsv(out, aggregates);
  return out.str();
}

TEST(SummaryJsonTest, WriteParseWriteIsByteIdenticalOverEveryField) {
  const std::vector<AggregateRow> full = {FullAggregate()};
  const std::string written = SummaryText(full);
  std::vector<AggregateRow> parsed;
  std::string error;
  ASSERT_TRUE(ParseSummaryJson(written, &parsed, &error)) << error;
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(SummaryText(parsed), written);
  // The CSV writer prints every field too: 26 columns, equal values.
  EXPECT_EQ(CsvText(parsed), CsvText(full));
  const std::string header = CsvText({});
  EXPECT_EQ(std::count(header.begin(), header.end(), ','), 25);
  EXPECT_EQ(parsed[0].policy, "THP\nnext");
  EXPECT_EQ(parsed[0].runtime_ms, 1.0 / 3.0);
}

// A malformed value is an error naming the line and the key, not a group
// read as zero runs and silently dropped from the checks.
TEST(SummaryJsonTest, RejectsMalformedValuesNamingLineAndKey) {
  const std::string written = SummaryText({FullAggregate(), FullAggregate()});
  const auto expect_rejected = [](const std::string& text, const std::string& message) {
    std::vector<AggregateRow> parsed;
    std::string error;
    EXPECT_FALSE(ParseSummaryJson(text, &parsed, &error)) << message;
    EXPECT_EQ(error, message);
  };
  const auto replace_second = [&written](const std::string& from, const std::string& to) {
    std::string text = written;
    const std::size_t at = text.find(from, text.find(from) + 1);
    return text.replace(at, from.size(), to);
  };
  expect_rejected(replace_second("\"runs\":7", "\"runs\":abc"), "line 5: bad value for \"runs\"");
  expect_rejected(replace_second("\"lar_pct\":36.5", "\"lar_pct\":41.5zz"),
                  "line 5: bad value for \"lar_pct\"");
  expect_rejected(replace_second("\"runs\":7", "\"runs\":0"), "line 5: bad value for \"runs\"");
  expect_rejected(replace_second("\"runs\":7,", ""), "line 5: missing \"runs\"");
  expect_rejected(replace_second("\"runs\":7", "\"runs\":\"7\""), "line 5: bad value for \"runs\"");
  expect_rejected(replace_second("\"policy\":\"THP\\nnext\"", "\"policy\":3"),
                  "line 5: bad value for \"policy\"");
  expect_rejected(replace_second("}", "} x"), "line 5: unexpected text after '}'");
  // Truncated at a line boundary and inside the last group.
  expect_rejected(written.substr(0, written.size() - 6), "line 5: expected the closing ] and }");
  expect_rejected(written.substr(0, written.find("\"bench\"", written.find("\"bench\"") + 1)),
                  "line 5: expected the closing ] and }");
}

// Seeded corruption of a committed summary and of a JSONL row: bit flips,
// truncations and splices, a fixed budget of each. The readers take
// untrusted files, so no mutant may crash them, and whatever they accept
// must be a fixed point: parse -> write -> parse -> write changes nothing.
TEST(ParserMutationTest, MutantsAreRejectedOrRoundTrip) {
  constexpr int kMutantsPerKind = 300;
  std::ifstream in(std::string(NUMALP_SOURCE_DIR) + "/BENCH_trace.json");
  ASSERT_TRUE(in);
  const std::string summary((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  std::ostringstream row_out;
  JsonlSink(row_out).Write(GoldenRow());
  const std::string row_line = row_out.str().substr(0, row_out.str().size() - 1);

  std::mt19937_64 rng(20140415);
  int accepted = 0;
  for (int kind = 0; kind < 3; ++kind) {
    for (int i = 0; i < kMutantsPerKind; ++i) {
      const std::string mutant = mutation::Mutate(summary, kind, rng);
      std::vector<AggregateRow> parsed;
      std::string error;
      if (!ParseSummaryJson(mutant, &parsed, &error)) {
        EXPECT_FALSE(error.empty());
        continue;
      }
      ++accepted;
      const std::string first = SummaryText(parsed);
      ASSERT_TRUE(ParseSummaryJson(first, &parsed, &error)) << error;
      ASSERT_EQ(SummaryText(parsed), first) << "kind " << kind << " mutant " << i;
    }
    for (int i = 0; i < kMutantsPerKind; ++i) {
      const std::string mutant = mutation::Mutate(row_line, kind, rng);
      ResultRow row;
      std::string error;
      if (!ParseJsonlLine(mutant, &row, &error)) {
        EXPECT_FALSE(error.empty());
        continue;
      }
      ++accepted;
      std::ostringstream first;
      JsonlSink(first).Write(row);
      ResultRow again;
      ASSERT_TRUE(ParseJsonlLine(first.str().substr(0, first.str().size() - 1), &again, &error))
          << error;
      std::ostringstream second;
      JsonlSink(second).Write(again);
      ASSERT_EQ(second.str(), first.str()) << "kind " << kind << " mutant " << i;
    }
  }
  EXPECT_GT(accepted, 0);  // some mutants (e.g. digit flips) stay well-formed
}

// A NaN mean must not PASS a check (NaN compares false, so a check phrased
// "fail when LP < C2M - 6" would pass it). The committed fig2/fig3 summary
// with the machineB LU.B Carrefour-LP mean made non-finite is rejected by
// the reader, and the same NaN handed to the checks directly FAILs the band
// check that covers the column.
TEST(ChecksTest, NonFiniteMeanFailsInsteadOfPassing) {
  std::ifstream in(std::string(NUMALP_SOURCE_DIR) + "/BENCH_fig2_fig3.json");
  ASSERT_TRUE(in);
  const std::string summary((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  const std::size_t group = summary.find(
      "\"machine\":\"machineB\",\"workload\":\"LU.B\",\"policy\":\"Carrefour-LP\"");
  ASSERT_NE(group, std::string::npos);
  const std::string key = "\"mean_improvement_pct\":";
  const std::size_t value = summary.find(key, group) + key.size();
  const std::size_t value_end = summary.find(',', value);
  const std::string line =
      "line " + std::to_string(1 + std::count(summary.begin(), summary.begin() + group, '\n'));
  for (const char* bad : {"nan", "-nan", "inf", "-inf"}) {
    std::string text = summary;
    text.replace(value, value_end - value, bad);
    std::vector<AggregateRow> parsed;
    std::string error;
    EXPECT_FALSE(ParseSummaryJson(text, &parsed, &error)) << bad;
    EXPECT_EQ(error, line + ": bad value for \"mean_improvement_pct\"") << bad;
  }

  std::vector<AggregateRow> aggregates;
  std::string error;
  ASSERT_TRUE(ParseSummaryJson(summary, &aggregates, &error)) << error;
  ASSERT_TRUE(AllPassed(EvaluatePaperChecks(aggregates)));
  for (AggregateRow& aggregate : aggregates) {
    if (aggregate.machine == "machineB" && aggregate.workload == "LU.B" &&
        aggregate.policy == "Carrefour-LP") {
      aggregate.mean_improvement_pct = std::numeric_limits<double>::quiet_NaN();
    }
  }
  const std::vector<CheckResult> results = EvaluatePaperChecks(aggregates);
  EXPECT_FALSE(AllPassed(results));
  const auto band = std::find_if(results.begin(), results.end(), [](const CheckResult& r) {
    return r.name == "carrefour-lp-geq-carrefour";
  });
  ASSERT_NE(band, results.end());
  EXPECT_EQ(band->status, CheckStatus::kFail);
  EXPECT_EQ(band->detail, "non-finite mean in machineB/LU.B/Carrefour-LP");
}

TEST(ChecksTest, FailWhenDataContradictsPaper) {
  // THP *helping* the hot-page workload CG.D on machine B contradicts
  // Figure 1.
  const std::vector<ResultRow> rows = {Row("machineB", "CG.D", "Linux-4K", 0.0),
                                       Row("machineB", "CG.D", "THP", +20.0)};
  const auto results = EvaluatePaperChecks(rows);
  EXPECT_FALSE(AllPassed(results));
}

TEST(ChecksTest, SkipWithoutRequiredColumnsAndIgnoreVariants) {
  // Variant-tagged rows model non-default setups and must not trip checks.
  const std::vector<ResultRow> rows = {
      Row("machineB", "CG.D", "Linux-4K", 0.0, 50.0, "mem8"),
      Row("machineB", "CG.D", "THP", +20.0, 50.0, "mem8")};
  const auto results = EvaluatePaperChecks(rows);
  EXPECT_TRUE(AllPassed(results));
  for (const auto& result : results) {
    EXPECT_EQ(result.status, CheckStatus::kSkip) << result.name;
  }
}

TEST(ChecksTest, BaselineMustBeZero) {
  const std::vector<ResultRow> rows = {Row("machineB", "CG.D", "Linux-4K", 1.0)};
  const auto results = EvaluatePaperChecks(rows);
  EXPECT_FALSE(AllPassed(results));
}

TEST(LoadJsonlTest, SkipsMalformedLinesWithIssues) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "numalp_report_test.jsonl").string();
  {
    std::ofstream out(path, std::ios::trunc);
    out << R"({"bench":"fig1","epochs":3})" << "\n";
    out << "not json\n";
    out << "\n";
    out << R"({"bench":"fig2","epochs":4})" << "\n";
  }
  std::vector<ParseIssue> issues;
  const std::vector<ResultRow> rows = LoadJsonlFile(path, &issues);
  std::filesystem::remove(path);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].bench, "fig1");
  EXPECT_EQ(rows[1].epochs, 4);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].line, 2);
}

}  // namespace
}  // namespace numalp::report
