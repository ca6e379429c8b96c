// Golden pins for whole-engine runs: a RunResult is rendered to text (every
// integer exactly, every double as %.17g, so the text round-trips bit for
// bit) and compared against a committed file under tests/golden/. The pins
// hold the engine's results fixed across refactors that must not move them;
// the component-level differential tests against tests/oracle/ say where a
// divergence comes from.
//
// An intentional re-baseline regenerates the files: run the pinning test
// binaries with NUMALP_UPDATE_GOLDEN=1 and review the `git diff` of
// tests/golden/ like any other baseline change.
#ifndef NUMALP_TESTS_GOLDEN_PIN_H_
#define NUMALP_TESTS_GOLDEN_PIN_H_

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "src/core/simulation.h"

#ifndef NUMALP_SOURCE_DIR
#error "CMake must define NUMALP_SOURCE_DIR for golden pins"
#endif

namespace numalp::golden {

inline std::string Num(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

// Appends one run to `out` under the heading `label`.
inline void RenderRun(const std::string& label, const RunResult& r, std::string* out) {
  std::ostringstream s;
  s << "run " << label << "\n";
  s << "cycles total=" << r.total_cycles << " measured=" << r.measured_cycles
    << " epochs=" << r.epochs << " policy_overhead=" << r.total_policy_overhead << "\n";
  s << "actions migrations=" << r.total_migrations << " splits=" << r.total_splits
    << " promotions=" << r.total_promotions << "\n";
  s << "totals accesses=" << r.totals.accesses << " dram_local=" << r.totals.dram_local
    << " dram_remote=" << r.totals.dram_remote << " tlb_l1_miss=" << r.totals.tlb_l1_miss
    << " tlb_l2_hit=" << r.totals.tlb_l2_hit << " tlb_walks=" << r.totals.tlb_walks
    << " walk_l2_miss=" << r.totals.walk_l2_miss << "\n";
  s << "node_requests";
  for (const std::uint64_t requests : r.node_request_totals) {
    s << " " << requests;
  }
  s << "\n";
  s << "thp_coverage " << Num(r.final_thp_coverage) << "\n";
  s << "pages count=" << r.cumulative_pages.size() << " pamup=" << Num(r.PamupPct())
    << " nhp=" << r.Nhp() << " psp=" << Num(r.PspPct()) << "\n";
  s << "faults alloc=" << r.fault_alloc_failures << " migration=" << r.fault_migration_failures
    << " split=" << r.fault_split_failures << " truncated=" << r.fault_truncated_plans
    << " pressure=" << r.fault_pressure_epochs << " backoffs=" << r.fault_promote_backoffs
    << " retried=" << r.fault_retried_migrations << " abandoned=" << r.fault_abandoned_pages
    << " thp_fallback=" << r.thp_fallback_faults << "\n";
  s << "buddy frag_index_pct=" << Num(r.frag_index_pct)
    << " largest_free_order=" << r.buddy_largest_free_order
    << " free_2m_blocks=" << r.buddy_free_2m_blocks
    << " alloc_failures=" << r.buddy_alloc_failures << "\n";
  s << "churn maps=" << r.region_maps << " unmaps=" << r.region_unmaps
    << " unmapped_bytes=" << r.unmapped_bytes << "\n";
  for (std::size_t e = 0; e < r.history.size(); ++e) {
    const EpochRecord& h = r.history[e];
    s << "epoch " << e << " wall=" << h.wall << " migrations=" << h.migrations
      << " splits=" << h.splits << " promotions=" << h.promotions
      << " lar_pct=" << Num(h.metrics.lar_pct) << " est_split_lar=" << Num(h.est_split_lar)
      << "\n";
  }
  *out += s.str();
}

inline std::string GoldenPath(const std::string& name) {
  return std::string(NUMALP_SOURCE_DIR) + "/tests/golden/" + name + ".txt";
}

// Compares `rendered` with tests/golden/<name>.txt line by line and reports
// the first differing line (the whole text would bury it). With
// NUMALP_UPDATE_GOLDEN=1 the file is rewritten instead.
inline void ExpectMatchesGolden(const std::string& name, const std::string& rendered) {
  const std::string path = GoldenPath(name);
  if (const char* update = std::getenv("NUMALP_UPDATE_GOLDEN");
      update != nullptr && std::string(update) == "1") {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.is_open()) << "cannot write " << path;
    out << rendered;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << "missing golden " << path;
  std::istringstream got(rendered);
  std::string want_line;
  std::string got_line;
  for (int line = 1;; ++line) {
    const bool have_want = static_cast<bool>(std::getline(in, want_line));
    const bool have_got = static_cast<bool>(std::getline(got, got_line));
    if (!have_want && !have_got) {
      return;
    }
    const std::string golden_line = have_want ? want_line : "<end of golden>";
    const std::string run_line = have_got ? got_line : "<end of run>";
    ASSERT_EQ(golden_line, run_line) << path << ":" << line;
  }
}

}  // namespace numalp::golden

#endif  // NUMALP_TESTS_GOLDEN_PIN_H_
