#include "src/report/result_row.h"

#include <charconv>

#include "src/common/parse.h"

namespace numalp::report {

namespace {

ResultField Str(const char* name, std::string ResultRow::* member) {
  ResultField field;
  field.name = name;
  field.unit = "";
  field.type = FieldType::kString;
  field.s = member;
  return field;
}

ResultField Bool(const char* name, bool ResultRow::* member) {
  ResultField field;
  field.name = name;
  field.unit = "";
  field.type = FieldType::kBool;
  field.b = member;
  return field;
}

ResultField Int(const char* name, const char* unit, int ResultRow::* member) {
  ResultField field;
  field.name = name;
  field.unit = unit;
  field.type = FieldType::kInt;
  field.i = member;
  return field;
}

ResultField Uint(const char* name, const char* unit, std::uint64_t ResultRow::* member) {
  ResultField field;
  field.name = name;
  field.unit = unit;
  field.type = FieldType::kUint;
  field.u = member;
  return field;
}

ResultField Dbl(const char* name, const char* unit, double ResultRow::* member) {
  ResultField field;
  field.name = name;
  field.unit = unit;
  field.type = FieldType::kDouble;
  field.d = member;
  return field;
}

}  // namespace

const std::vector<ResultField>& ResultSchema() {
  static const std::vector<ResultField> schema = {
      Str("bench", &ResultRow::bench),
      Str("machine", &ResultRow::machine),
      Str("workload", &ResultRow::workload),
      Str("policy", &ResultRow::policy),
      Str("variant", &ResultRow::variant),
      Int("seed_index", "", &ResultRow::seed_index),
      Uint("seed", "", &ResultRow::seed),
      Bool("completed", &ResultRow::completed),
      Int("epochs", "epochs", &ResultRow::epochs),
      Uint("total_cycles", "cycles", &ResultRow::total_cycles),
      Uint("measured_cycles", "cycles", &ResultRow::measured_cycles),
      Dbl("runtime_ms", "ms", &ResultRow::runtime_ms),
      Dbl("improvement_pct", "%", &ResultRow::improvement_pct),
      Dbl("lar_pct", "%", &ResultRow::lar_pct),
      Dbl("imbalance_pct", "%", &ResultRow::imbalance_pct),
      Dbl("pamup_pct", "%", &ResultRow::pamup_pct),
      Int("nhp", "pages", &ResultRow::nhp),
      Dbl("psp_pct", "%", &ResultRow::psp_pct),
      Dbl("walk_l2_miss_pct", "%", &ResultRow::walk_l2_miss_pct),
      Dbl("steady_fault_share_pct", "%", &ResultRow::steady_fault_share_pct),
      Dbl("max_fault_ms", "ms", &ResultRow::max_fault_ms),
      Dbl("thp_coverage_pct", "%", &ResultRow::thp_coverage_pct),
      Uint("migrations", "pages", &ResultRow::migrations),
      Uint("splits", "pages", &ResultRow::splits),
      Uint("promotions", "pages", &ResultRow::promotions),
      Dbl("overhead_pct", "%", &ResultRow::overhead_pct),
      Dbl("est_carrefour_lar_pct", "%", &ResultRow::est_carrefour_lar_pct),
      Dbl("est_split_lar_pct", "%", &ResultRow::est_split_lar_pct),
      Str("status", &ResultRow::status),
      Uint("fault_alloc_failures", "", &ResultRow::fault_alloc_failures),
      Uint("fault_migration_failures", "", &ResultRow::fault_migration_failures),
      Uint("fault_split_failures", "", &ResultRow::fault_split_failures),
      Uint("fault_truncated_plans", "", &ResultRow::fault_truncated_plans),
      Uint("fault_pressure_epochs", "epochs", &ResultRow::fault_pressure_epochs),
      Uint("fault_promote_backoffs", "", &ResultRow::fault_promote_backoffs),
      Uint("fault_retried_migrations", "pages", &ResultRow::fault_retried_migrations),
      Uint("fault_abandoned_pages", "pages", &ResultRow::fault_abandoned_pages),
      Uint("thp_fallback_faults", "", &ResultRow::thp_fallback_faults),
      Dbl("frag_index_pct", "%", &ResultRow::frag_index_pct),
      Int("buddy_largest_free_order", "", &ResultRow::buddy_largest_free_order),
      Uint("buddy_free_2m_blocks", "blocks", &ResultRow::buddy_free_2m_blocks),
      Uint("buddy_alloc_failures", "", &ResultRow::buddy_alloc_failures),
      Str("trace_source", &ResultRow::trace_source),
      Uint("region_maps", "regions", &ResultRow::region_maps),
      Uint("region_unmaps", "regions", &ResultRow::region_unmaps),
      Uint("unmapped_bytes", "bytes", &ResultRow::unmapped_bytes),
  };
  return schema;
}

std::string CanonicalDouble(double value) {
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

std::string JsonEscape(const std::string& value) {
  std::string escaped;
  escaped.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '"':
        escaped += "\\\"";
        break;
      case '\\':
        escaped += "\\\\";
        break;
      case '\n':
        escaped += "\\n";
        break;
      case '\t':
        escaped += "\\t";
        break;
      default:
        escaped += c;
    }
  }
  return escaped;
}

std::string FieldToString(const ResultRow& row, const ResultField& field) {
  switch (field.type) {
    case FieldType::kString:
      return row.*(field.s);
    case FieldType::kBool:
      return row.*(field.b) ? "true" : "false";
    case FieldType::kInt:
      return std::to_string(row.*(field.i));
    case FieldType::kUint:
      return std::to_string(row.*(field.u));
    case FieldType::kDouble:
      return CanonicalDouble(row.*(field.d));
  }
  return "";
}

bool FieldFromString(ResultRow& row, const ResultField& field, const std::string& text) {
  switch (field.type) {
    case FieldType::kString:
      row.*(field.s) = text;
      return true;
    case FieldType::kBool:
      if (text == "true") {
        row.*(field.b) = true;
        return true;
      }
      if (text == "false") {
        row.*(field.b) = false;
        return true;
      }
      return false;
    case FieldType::kInt:
      return AssignParsed(ParseToken<int>(text), row.*(field.i));
    case FieldType::kUint:
      return AssignParsed(ParseToken<std::uint64_t>(text), row.*(field.u));
    case FieldType::kDouble:
      return AssignParsed(ParseToken<double>(text), row.*(field.d));
  }
  return false;
}

ResultRow MakeResultRow(const std::string& bench, const RunSpec& spec, const RunResult& run,
                        const RunResult* baseline, int seed_index, double clock_ghz,
                        const std::string& variant) {
  ResultRow row;
  row.bench = bench;
  row.machine = run.machine;
  row.workload = run.workload;
  row.policy = std::string(NameOf(run.policy));
  row.variant = variant;
  row.seed_index = seed_index;
  row.seed = spec.sim.seed;

  row.completed = run.completed;
  row.epochs = run.epochs;
  row.total_cycles = run.total_cycles;
  row.measured_cycles = run.measured_cycles;
  row.runtime_ms = run.RuntimeMs(clock_ghz);
  row.improvement_pct = baseline != nullptr ? ImprovementPct(*baseline, run) : 0.0;

  row.lar_pct = run.LarPct();
  row.imbalance_pct = run.ImbalancePct();
  row.pamup_pct = run.PamupPct();
  row.nhp = run.Nhp();
  row.psp_pct = run.PspPct();
  row.walk_l2_miss_pct = 100.0 * run.WalkL2MissFrac();
  row.steady_fault_share_pct = run.SteadyMaxFaultSharePct();
  row.max_fault_ms = run.MaxFaultTimeMs(clock_ghz);
  row.thp_coverage_pct = 100.0 * run.final_thp_coverage;

  row.migrations = run.total_migrations;
  row.splits = run.total_splits;
  row.promotions = run.total_promotions;
  row.overhead_pct = run.total_cycles == 0
                         ? 0.0
                         : 100.0 * static_cast<double>(run.total_policy_overhead) /
                               static_cast<double>(run.total_cycles);

  // Reactive-estimate means over the steady epochs where the estimator ran
  // (the same mask the sampling ablation historically used).
  double est_carrefour = 0.0;
  double est_split = 0.0;
  int counted = 0;
  for (const EpochRecord& record : run.history) {
    if (record.in_setup || record.est_split_lar == 0.0) {
      continue;
    }
    est_carrefour += record.est_carrefour_lar;
    est_split += record.est_split_lar;
    ++counted;
  }
  if (counted > 0) {
    row.est_carrefour_lar_pct = est_carrefour / counted;
    row.est_split_lar_pct = est_split / counted;
  }

  row.status = run.status;
  row.fault_alloc_failures = run.fault_alloc_failures;
  row.fault_migration_failures = run.fault_migration_failures;
  row.fault_split_failures = run.fault_split_failures;
  row.fault_truncated_plans = run.fault_truncated_plans;
  row.fault_pressure_epochs = run.fault_pressure_epochs;
  row.fault_promote_backoffs = run.fault_promote_backoffs;
  row.fault_retried_migrations = run.fault_retried_migrations;
  row.fault_abandoned_pages = run.fault_abandoned_pages;
  row.thp_fallback_faults = run.thp_fallback_faults;
  row.frag_index_pct = run.frag_index_pct;
  row.buddy_largest_free_order = run.buddy_largest_free_order;
  row.buddy_free_2m_blocks = run.buddy_free_2m_blocks;
  row.buddy_alloc_failures = run.buddy_alloc_failures;
  row.trace_source = run.trace_source;
  row.region_maps = run.region_maps;
  row.region_unmaps = run.region_unmaps;
  row.unmapped_bytes = run.unmapped_bytes;
  return row;
}

}  // namespace numalp::report
