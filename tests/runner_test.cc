// ExperimentRunner regression tests: the parallel grid must be a pure
// function of its declaration — identical RunResults at any jobs value, and
// grid indexing that matches standalone Simulations. (Seed means are
// report::Aggregate's, tested in report_test.)
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/config.h"
#include "src/core/runner.h"
#include "src/core/simulation.h"
#include "src/report/collector.h"
#include "src/report/sink.h"
#include "src/topo/topology.h"
#include "src/workloads/spec.h"

namespace numalp {
namespace {

SimConfig TinySim() {
  SimConfig sim;
  sim.max_epochs = 6;
  sim.accesses_per_thread_per_epoch = 1024;
  return sim;
}

// Field-by-field bit-exact comparison of the results benches consume.
void ExpectIdentical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(a.machine, b.machine);
  EXPECT_EQ(a.policy, b.policy);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.epochs, b.epochs);
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  EXPECT_EQ(a.measured_cycles, b.measured_cycles);
  EXPECT_EQ(a.total_migrations, b.total_migrations);
  EXPECT_EQ(a.total_splits, b.total_splits);
  EXPECT_EQ(a.total_promotions, b.total_promotions);
  EXPECT_EQ(a.total_policy_overhead, b.total_policy_overhead);
  EXPECT_EQ(a.final_thp_coverage, b.final_thp_coverage);
  EXPECT_EQ(a.LarPct(), b.LarPct());
  EXPECT_EQ(a.ImbalancePct(), b.ImbalancePct());
  EXPECT_EQ(a.PamupPct(), b.PamupPct());
  EXPECT_EQ(a.Nhp(), b.Nhp());
  EXPECT_EQ(a.PspPct(), b.PspPct());
  EXPECT_EQ(a.WalkL2MissFrac(), b.WalkL2MissFrac());
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].wall, b.history[i].wall);
    EXPECT_EQ(a.history[i].policy_overhead, b.history[i].policy_overhead);
    EXPECT_EQ(a.history[i].migrations, b.history[i].migrations);
    EXPECT_EQ(a.history[i].splits, b.history[i].splits);
    EXPECT_EQ(a.history[i].promotions, b.history[i].promotions);
    EXPECT_EQ(a.history[i].metrics.lar_pct, b.history[i].metrics.lar_pct);
    EXPECT_EQ(a.history[i].metrics.imbalance_pct, b.history[i].metrics.imbalance_pct);
  }
  ASSERT_EQ(a.core_totals.size(), b.core_totals.size());
  for (std::size_t i = 0; i < a.core_totals.size(); ++i) {
    EXPECT_EQ(a.core_totals[i].accesses, b.core_totals[i].accesses);
    EXPECT_EQ(a.core_totals[i].dram_local, b.core_totals[i].dram_local);
    EXPECT_EQ(a.core_totals[i].dram_remote, b.core_totals[i].dram_remote);
    EXPECT_EQ(a.core_totals[i].fault_cycles, b.core_totals[i].fault_cycles);
  }
}

ExperimentGrid TestGrid() {
  ExperimentGrid grid;
  grid.machines = {Topology::Tiny(), Topology::MachineA()};
  grid.workloads = {BenchmarkId::kCG_D, BenchmarkId::kWC};
  grid.policies = {PolicyKind::kLinux4K, PolicyKind::kThp, PolicyKind::kCarrefourLp};
  grid.num_seeds = 2;
  grid.sim = TinySim();
  return grid;
}

TEST(ExperimentRunnerTest, CellSeedMatchesHistoricalDerivation) {
  EXPECT_EQ(CellSeed(42, 0), 42u);
  EXPECT_EQ(CellSeed(42, 1), 42u + 7919u);
  EXPECT_EQ(CellSeed(42, 3), 42u + 3u * 7919u);
}

TEST(ExperimentRunnerTest, JobsDefaultsToAtLeastOne) {
  EXPECT_GE(ExperimentRunner(0).jobs(), 1);
  EXPECT_EQ(ExperimentRunner(5).jobs(), 5);
}

// The acceptance-criteria regression: a grid run with jobs=1 and jobs=8
// produces bit-identical RunResults for every cell.
TEST(ExperimentRunnerTest, GridIsDeterministicAcrossJobCounts) {
  const ExperimentGrid grid = TestGrid();
  const GridResults serial = RunGrid(grid, ExperimentRunner(1));
  const GridResults parallel = RunGrid(grid, ExperimentRunner(8));
  for (int m = 0; m < serial.num_machines(); ++m) {
    for (int w = 0; w < serial.num_workloads(); ++w) {
      for (int s = 0; s < serial.num_seeds(); ++s) {
        ExpectIdentical(serial.Baseline(m, w, s), parallel.Baseline(m, w, s));
        for (int p = 0; p < serial.num_policies(); ++p) {
          ExpectIdentical(serial.At(m, w, p, s), parallel.At(m, w, p, s));
        }
      }
    }
  }
}

// End-to-end determinism across the jobs x profile-mode matrix, at the
// artifact level: the streamed JSONL a bench would write must be
// byte-identical no matter how many grid workers ran it, and no matter whether the profiler kept exact aggregates or ran the
// sketch admission front end at its bit-identical default threshold (the
// oracle CI job diffs exactly this, at full grid scale). The grid adds UA.B
// — the false-sharing cell whose demotion/hinting path is the historically
// fragile one — on top of TestGrid's CG.D and WC.
TEST(ExperimentRunnerTest, GridJsonlIsByteIdenticalAcrossJobsAndProfileModes) {
  const auto render = [](int jobs, ProfileMode mode) {
    ExperimentGrid grid = TestGrid();
    grid.workloads.push_back(BenchmarkId::kUA_B);
    grid.sim.profile_mode = mode;
    std::ostringstream out;
    {
      report::GridReport report(std::make_unique<report::JsonlSink>(out), "runner_test", jobs);
      report.Run(grid);
    }
    return out.str();
  };
  const std::string golden = render(/*jobs=*/1, ProfileMode::kExact);
  EXPECT_FALSE(golden.empty());
  for (const int jobs : {1, 8}) {
    for (const ProfileMode mode : {ProfileMode::kExact, ProfileMode::kSketch}) {
      if (jobs == 1 && mode == ProfileMode::kExact) {
        continue;
      }
      EXPECT_EQ(render(jobs, mode), golden) << "jobs " << jobs << " profile " << NameOf(mode);
    }
  }
}

TEST(ExperimentRunnerTest, RunSpecResultsArePositional) {
  const Topology topo = Topology::Tiny();
  const WorkloadSpec spec = MakeWorkloadSpec(BenchmarkId::kWC, topo);
  std::vector<RunSpec> cells;
  for (PolicyKind kind : {PolicyKind::kLinux4K, PolicyKind::kThp, PolicyKind::kCarrefourLp}) {
    RunSpec cell;
    cell.topo = topo;
    cell.workload = spec;
    cell.policy = MakePolicyConfig(kind);
    cell.sim = TinySim();
    cells.push_back(cell);
  }
  const std::vector<RunResult> results = ExperimentRunner(4).Run(cells);
  ASSERT_EQ(results.size(), cells.size());
  EXPECT_EQ(results[0].policy, PolicyKind::kLinux4K);
  EXPECT_EQ(results[1].policy, PolicyKind::kThp);
  EXPECT_EQ(results[2].policy, PolicyKind::kCarrefourLp);
}

// Grid cells match standalone Simulations built from the same coordinates.
TEST(ExperimentRunnerTest, GridCellsMatchStandaloneSimulations) {
  ExperimentGrid grid;
  grid.machines = {Topology::Tiny()};
  grid.workloads = {BenchmarkId::kWC};
  grid.policies = {PolicyKind::kThp};
  grid.num_seeds = 2;
  grid.sim = TinySim();
  const GridResults results = RunGrid(grid, ExperimentRunner(4));

  for (int s = 0; s < 2; ++s) {
    SimConfig seeded = grid.sim;
    seeded.seed = CellSeed(grid.sim.seed, s);
    Simulation expected(grid.machines[0], MakeWorkloadSpec(BenchmarkId::kWC, grid.machines[0]),
                        MakePolicyConfig(PolicyKind::kThp), seeded);
    ExpectIdentical(results.At(0, 0, 0, s), expected.Run());
  }
}

// A requested Linux-4K column aliases the baseline cells instead of
// rerunning them (simulations are deterministic, so sharing is exact).
TEST(ExperimentRunnerTest, Linux4KColumnSharesBaseline) {
  ExperimentGrid grid;
  grid.machines = {Topology::Tiny()};
  grid.workloads = {BenchmarkId::kWC};
  grid.policies = {PolicyKind::kLinux4K, PolicyKind::kThp};
  grid.num_seeds = 2;
  grid.sim = TinySim();
  const GridResults results = RunGrid(grid, ExperimentRunner(2));
  for (int s = 0; s < 2; ++s) {
    EXPECT_EQ(&results.At(0, 0, 0, s), &results.Baseline(0, 0, s));
    EXPECT_EQ(ImprovementPct(results.Baseline(0, 0, s), results.At(0, 0, 0, s)), 0.0);
  }
}

// Environment knobs take the flags' ranges: an unset variable leaves the
// default, and a set one that is not a whole in-range token throws an error
// naming the variable (ParseToolArgs turns it into exit status 2).
void ExpectBadEnv(const char* name, const char* value) {
  ASSERT_EQ(setenv(name, value, 1), 0);
  try {
    WithEnvOverrides(SimConfig{});
    ADD_FAILURE() << name << "=" << value << " was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(name), std::string::npos) << e.what();
  }
  ASSERT_EQ(unsetenv(name), 0);
}

TEST(ExperimentRunnerTest, EnvOverridesParseValuesInRange) {
  SimConfig sim;
  const int default_epochs = sim.max_epochs;
  ASSERT_EQ(unsetenv("NUMALP_MAX_EPOCHS"), 0);
  EXPECT_EQ(WithEnvOverrides(sim).max_epochs, default_epochs);
  ASSERT_EQ(setenv("NUMALP_MAX_EPOCHS", "7", 1), 0);
  EXPECT_EQ(WithEnvOverrides(sim).max_epochs, 7);
  ASSERT_EQ(unsetenv("NUMALP_MAX_EPOCHS"), 0);
  for (const char* bad : {"-3", "0", "abc", "7x", ""}) {
    ExpectBadEnv("NUMALP_MAX_EPOCHS", bad);
  }
  ExpectBadEnv("NUMALP_ACCESSES_PER_EPOCH", "0");
  ExpectBadEnv("NUMALP_SEED", "1x");
  ExpectBadEnv("NUMALP_PROFILE_SKETCH_WIDTH", "0");
}

TEST(ExperimentRunnerTest, ProfileModeEnvOverrides) {
  SimConfig sim;
  ASSERT_EQ(unsetenv("NUMALP_PROFILE_MODE"), 0);
  EXPECT_EQ(WithEnvOverrides(sim).profile_mode, ProfileMode::kExact);
  ASSERT_EQ(setenv("NUMALP_PROFILE_MODE", "sketch", 1), 0);
  EXPECT_EQ(WithEnvOverrides(sim).profile_mode, ProfileMode::kSketch);
  ASSERT_EQ(setenv("NUMALP_PROFILE_THRESHOLD", "3", 1), 0);
  ASSERT_EQ(setenv("NUMALP_PROFILE_FILTER_CAPACITY", "4096", 1), 0);
  const SimConfig overridden = WithEnvOverrides(sim);
  EXPECT_EQ(overridden.profile_sketch.admit_threshold, 3u);
  EXPECT_EQ(overridden.profile_sketch.filter_capacity, 4096u);
  ASSERT_EQ(unsetenv("NUMALP_PROFILE_MODE"), 0);
  ASSERT_EQ(unsetenv("NUMALP_PROFILE_THRESHOLD"), 0);
  ASSERT_EQ(unsetenv("NUMALP_PROFILE_FILTER_CAPACITY"), 0);
  ExpectBadEnv("NUMALP_PROFILE_MODE", "bogus");
  ExpectBadEnv("NUMALP_PROFILE_THRESHOLD", "0");
  ExpectBadEnv("NUMALP_PROFILE_FILTER_CAPACITY", "4294967297");
}

TEST(ExperimentRunnerTest, FaultEnvOverrides) {
  ASSERT_EQ(setenv("NUMALP_FAULT_PROFILE", "frag", 1), 0);
  ASSERT_EQ(setenv("NUMALP_FAULT_ALLOC_PCT", "0", 1), 0);
  ASSERT_EQ(setenv("NUMALP_FAULT_PRESSURE_PCT", "12.5", 1), 0);
  const SimConfig sim = WithEnvOverrides(SimConfig{});
  EXPECT_EQ(sim.faults.profile, FaultProfile::kFrag);
  EXPECT_EQ(sim.faults.alloc_fail_pct, 0.0);
  EXPECT_EQ(sim.faults.pressure_pct, 12.5);
  ASSERT_EQ(unsetenv("NUMALP_FAULT_PROFILE"), 0);
  ASSERT_EQ(unsetenv("NUMALP_FAULT_ALLOC_PCT"), 0);
  ASSERT_EQ(unsetenv("NUMALP_FAULT_PRESSURE_PCT"), 0);
  ExpectBadEnv("NUMALP_FAULT_PROFILE", "bogus");
  ExpectBadEnv("NUMALP_FAULT_ALLOC_PCT", "250");
  ExpectBadEnv("NUMALP_FAULT_MIGRATE_PCT", "-1");
  ExpectBadEnv("NUMALP_FAULT_LARGE_MIGRATE_PCT", "x");
  ExpectBadEnv("NUMALP_FAULT_PRESSURE_PCT", "100.5");
}

}  // namespace
}  // namespace numalp
