#include "src/report/aggregate.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <ostream>
#include <sstream>
#include <string_view>
#include <utility>

#include "src/common/parse.h"
#include "src/report/sink.h"

namespace numalp::report {

namespace {

// --- Minimal JSON-object scanner -----------------------------------------
// The sinks write flat one-line objects whose values are strings, numbers
// and booleans; this parser accepts exactly that (plus whitespace). It is
// deliberately not a general JSON parser.

struct Cursor {
  const char* p;
  const char* end;
};

void SkipWs(Cursor& c) {
  while (c.p < c.end && (*c.p == ' ' || *c.p == '\t' || *c.p == '\r')) {
    ++c.p;
  }
}

bool ParseQuoted(Cursor& c, std::string* out) {
  if (c.p >= c.end || *c.p != '"') {
    return false;
  }
  ++c.p;
  out->clear();
  while (c.p < c.end && *c.p != '"') {
    char ch = *c.p++;
    if (ch == '\\' && c.p < c.end) {
      const char esc = *c.p++;
      switch (esc) {
        case 'n':
          ch = '\n';
          break;
        case 't':
          ch = '\t';
          break;
        default:
          ch = esc;  // \" \\ \/ and anything else: the literal character
      }
    }
    out->push_back(ch);
  }
  if (c.p >= c.end) {
    return false;
  }
  ++c.p;  // closing quote
  return true;
}

bool ParseBareToken(Cursor& c, std::string* out) {
  out->clear();
  while (c.p < c.end && *c.p != ',' && *c.p != '}' && *c.p != ' ' && *c.p != '\t') {
    out->push_back(*c.p++);
  }
  return !out->empty();
}

const std::map<std::string, const ResultField*>& FieldsByName() {
  static const std::map<std::string, const ResultField*> by_name = [] {
    std::map<std::string, const ResultField*> map;
    for (const ResultField& field : ResultSchema()) {
      map[field.name] = &field;
    }
    return map;
  }();
  return by_name;
}

// Scans one flat object ('{', "key":value members, '}') and leaves `c` just
// past the closing brace. Each member goes to set(key, value, quoted), which
// returns false to reject the value. Returns false with *error set on
// malformed input. JSONL rows and summary groups are both read with it.
template <typename Set>
bool ScanObject(Cursor& c, std::string* error, Set set) {
  SkipWs(c);
  if (c.p >= c.end || *c.p != '{') {
    *error = "expected '{'";
    return false;
  }
  ++c.p;
  SkipWs(c);
  if (c.p < c.end && *c.p == '}') {
    ++c.p;
    return true;  // empty object: all defaults
  }
  while (true) {
    SkipWs(c);
    std::string key;
    if (!ParseQuoted(c, &key)) {
      *error = "expected a quoted key";
      return false;
    }
    SkipWs(c);
    if (c.p >= c.end || *c.p != ':') {
      *error = "expected ':' after \"" + key + "\"";
      return false;
    }
    ++c.p;
    SkipWs(c);
    std::string value;
    const bool quoted = c.p < c.end && *c.p == '"';
    if (!(quoted ? ParseQuoted(c, &value) : ParseBareToken(c, &value)) ||
        !set(key, value, quoted)) {
      *error = "bad value for \"" + key + "\"";
      return false;
    }
    SkipWs(c);
    if (c.p < c.end && *c.p == ',') {
      ++c.p;
      continue;
    }
    if (c.p < c.end && *c.p == '}') {
      ++c.p;
      return true;
    }
    *error = "expected ',' or '}'";
    return false;
  }
}

// True when only whitespace is left.
bool AtEnd(Cursor& c) {
  SkipWs(c);
  return c.p == c.end;
}

}  // namespace

bool ParseJsonlLine(const std::string& line, ResultRow* row, std::string* error) {
  Cursor c{line.data(), line.data() + line.size()};
  const auto set = [row](const std::string& key, const std::string& value, bool quoted) {
    const auto& fields = FieldsByName();
    const auto it = fields.find(key);
    return it == fields.end() ||  // unknown keys are ignored
           (quoted == (it->second->type == FieldType::kString) &&
            FieldFromString(*row, *it->second, value));
  };
  if (!ScanObject(c, error, set)) {
    return false;
  }
  if (!AtEnd(c)) {
    *error = "unexpected text after '}'";
    return false;
  }
  return true;
}

std::vector<ResultRow> LoadJsonlFile(const std::string& path,
                                     std::vector<ParseIssue>* issues) {
  std::vector<ResultRow> rows;
  std::ifstream in(path);
  if (!in) {
    if (issues != nullptr) {
      issues->push_back({path, 0, "cannot open"});
    }
    return rows;
  }
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.find_first_not_of(" \t\r") == std::string::npos) {
      continue;
    }
    ResultRow row;
    std::string error;
    if (ParseJsonlLine(line, &row, &error)) {
      rows.push_back(std::move(row));
    } else if (issues != nullptr) {
      issues->push_back({path, line_number, error});
    }
  }
  return rows;
}

std::vector<ResultRow> LoadResults(const std::string& path,
                                   std::vector<ParseIssue>* issues) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(path, ec)) {
    return LoadJsonlFile(path, issues);
  }
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(path, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".jsonl") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  std::vector<ResultRow> rows;
  for (const std::string& file : files) {
    std::vector<ResultRow> file_rows = LoadJsonlFile(file, issues);
    rows.insert(rows.end(), file_rows.begin(), file_rows.end());
  }
  return rows;
}

namespace {

std::string Pct1(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%+.1f%%", value);
  return buf;
}

std::string Num1(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", value);
  return buf;
}

// How an AggregateRow field folds the rows of its column.
enum class Fold { kKey, kCount, kMean, kMin, kMax };

// One AggregateRow field. Its name is the key in every output format and in
// the summary parser; `source` is the ResultRow field it folds. Exactly one
// member pointer is non-null: `text` for kKey, `count` for kCount, `value`
// for the rest.
struct AggregateField {
  const char* name;
  Fold fold;
  std::string AggregateRow::* text = nullptr;
  int AggregateRow::* count = nullptr;
  double AggregateRow::* value = nullptr;
  const ResultField* source = nullptr;
  // Column header in PrintAggregates' metrics table (nullptr = not shown)
  // and, for folded values, the number format there.
  const char* md_header = nullptr;
  std::string (*md_format)(double) = nullptr;
};

AggregateField Key(const char* name, std::string AggregateRow::* member,
                   const char* md_header = nullptr) {
  AggregateField field{name, Fold::kKey};
  field.text = member;
  field.source = FieldsByName().at(name);
  field.md_header = md_header;
  return field;
}

AggregateField Count(const char* name, int AggregateRow::* member, const char* md_header) {
  AggregateField field{name, Fold::kCount};
  field.count = member;
  field.md_header = md_header;
  return field;
}

AggregateField Stat(Fold fold, const char* name, double AggregateRow::* member,
                    const char* source, const char* md_header = nullptr,
                    std::string (*md_format)(double) = Num1) {
  AggregateField field{name, fold};
  field.value = member;
  field.source = FieldsByName().at(source);
  field.md_header = md_header;
  field.md_format = md_format;
  return field;
}

// The seed mean of the ResultRow field of the same name.
AggregateField Mean(const char* name, double AggregateRow::* member,
                    const char* md_header = nullptr) {
  return Stat(Fold::kMean, name, member, name, md_header);
}

// The AggregateRow schema, in output order: the one list of its fields that
// Aggregate, the writers, the summary parser and the markdown table share.
const std::vector<AggregateField>& AggregateFields() {
  static const std::vector<AggregateField> fields = {
      Key("bench", &AggregateRow::bench),
      Key("machine", &AggregateRow::machine, "machine"),
      Key("workload", &AggregateRow::workload, "workload"),
      Key("policy", &AggregateRow::policy, "policy"),
      Key("variant", &AggregateRow::variant, "variant"),
      Count("runs", &AggregateRow::runs, "runs"),
      Stat(Fold::kMean, "mean_improvement_pct", &AggregateRow::mean_improvement_pct,
           "improvement_pct", "improv", Pct1),
      Stat(Fold::kMin, "min_improvement_pct", &AggregateRow::min_improvement_pct,
           "improvement_pct"),
      Stat(Fold::kMax, "max_improvement_pct", &AggregateRow::max_improvement_pct,
           "improvement_pct"),
      Mean("runtime_ms", &AggregateRow::runtime_ms),
      Mean("lar_pct", &AggregateRow::lar_pct, "LAR%"),
      Mean("imbalance_pct", &AggregateRow::imbalance_pct, "imbal%"),
      Mean("pamup_pct", &AggregateRow::pamup_pct, "PAMUP%"),
      Mean("nhp", &AggregateRow::nhp, "NHP"),
      Mean("psp_pct", &AggregateRow::psp_pct, "PSP%"),
      Mean("walk_l2_miss_pct", &AggregateRow::walk_l2_miss_pct, "walk%"),
      Mean("steady_fault_share_pct", &AggregateRow::steady_fault_share_pct, "fault%"),
      Mean("max_fault_ms", &AggregateRow::max_fault_ms),
      Mean("thp_coverage_pct", &AggregateRow::thp_coverage_pct, "THPcov%"),
      Mean("overhead_pct", &AggregateRow::overhead_pct, "ovh%"),
      Mean("migrations", &AggregateRow::migrations),
      Mean("splits", &AggregateRow::splits),
      Mean("promotions", &AggregateRow::promotions),
      Mean("thp_fallback_faults", &AggregateRow::thp_fallback_faults),
      Mean("buddy_alloc_failures", &AggregateRow::buddy_alloc_failures),
      Mean("frag_index_pct", &AggregateRow::frag_index_pct),
  };
  return fields;
}

const AggregateField* FindAggregateField(const std::string& name) {
  const auto& fields = AggregateFields();
  const auto it = std::find_if(fields.begin(), fields.end(),
                               [&name](const AggregateField& field) { return name == field.name; });
  return it == fields.end() ? nullptr : &*it;
}

// A numeric ResultRow field as a double, the type of every folded value.
double NumberOf(const ResultRow& row, const ResultField& field) {
  switch (field.type) {
    case FieldType::kInt:
      return row.*(field.i);
    case FieldType::kUint:
      return static_cast<double>(row.*(field.u));
    case FieldType::kDouble:
      return row.*(field.d);
    case FieldType::kString:
    case FieldType::kBool:
      break;
  }
  return 0.0;
}

// Canonical text of a field: strings raw (the writer escapes them), counts
// in decimal, folded values in the shortest round-trip form.
std::string FieldText(const AggregateRow& row, const AggregateField& field) {
  if (field.fold == Fold::kKey) {
    return row.*(field.text);
  }
  if (field.fold == Fold::kCount) {
    return std::to_string(row.*(field.count));
  }
  return CanonicalDouble(row.*(field.value));
}

// Parses a summary value as strictly as FieldFromString parses a row value:
// strings quoted, numbers the whole bare token. A column aggregates at
// least one row, so `runs` must be positive.
bool FieldFromText(AggregateRow& row, const AggregateField& field, const std::string& text,
                   bool quoted) {
  if (quoted != (field.fold == Fold::kKey)) {
    return false;
  }
  if (field.fold == Fold::kKey) {
    row.*(field.text) = text;
    return true;
  }
  if (field.fold == Fold::kCount) {
    return AssignParsed(ParseNumber(text, 1, std::numeric_limits<int>::max()),
                        row.*(field.count));
  }
  // A summary holds finite means: "nan" or "inf" there is corruption, and a
  // NaN mean would slip through the checks' comparisons.
  return AssignParsed(ParseNumber(text, std::numeric_limits<double>::lowest(),
                                  std::numeric_limits<double>::max()),
                      row.*(field.value));
}

void WriteAggregateObject(std::ostream& out, const AggregateRow& aggregate,
                          const char* indent) {
  out << indent << '{';
  const char* separator = "";
  for (const AggregateField& field : AggregateFields()) {
    out << separator << '"' << field.name << "\":";
    if (field.fold == Fold::kKey) {
      out << '"' << JsonEscape(FieldText(aggregate, field)) << '"';
    } else {
      out << FieldText(aggregate, field);
    }
    separator = ",";
  }
  out << '}';
}

// First-appearance-order list of the distinct values `get` takes on `rows`.
template <typename Get>
std::vector<std::string> Distinct(const std::vector<AggregateRow>& rows, Get get) {
  std::vector<std::string> values;
  for (const AggregateRow& row : rows) {
    if (std::find(values.begin(), values.end(), get(row)) == values.end()) {
      values.push_back(get(row));
    }
  }
  return values;
}

}  // namespace

std::vector<AggregateRow> Aggregate(const std::vector<ResultRow>& rows) {
  const auto& fields = AggregateFields();
  std::vector<AggregateRow> aggregates;
  std::map<std::vector<std::string>, std::size_t> index;  // column key -> slot
  for (const ResultRow& row : rows) {
    std::vector<std::string> key;
    for (const AggregateField& field : fields) {
      if (field.fold == Fold::kKey) {
        key.push_back(row.*(field.source->s));
      }
    }
    const auto [it, added] = index.emplace(std::move(key), aggregates.size());
    if (added) {
      aggregates.emplace_back();
    }
    AggregateRow& agg = aggregates[it->second];
    // Sums accumulate in row order; a column's first row seeds its min/max.
    for (const AggregateField& field : fields) {
      switch (field.fold) {
        case Fold::kKey:
          agg.*(field.text) = row.*(field.source->s);
          break;
        case Fold::kCount:
          ++(agg.*(field.count));
          break;
        case Fold::kMean:
          agg.*(field.value) += NumberOf(row, *field.source);
          break;
        case Fold::kMin:
          agg.*(field.value) = added ? NumberOf(row, *field.source)
                                     : std::min(agg.*(field.value), NumberOf(row, *field.source));
          break;
        case Fold::kMax:
          agg.*(field.value) = added ? NumberOf(row, *field.source)
                                     : std::max(agg.*(field.value), NumberOf(row, *field.source));
          break;
      }
    }
  }
  // Multiply by the reciprocal rather than divide: the seed-mean arithmetic
  // every committed summary was written with.
  for (AggregateRow& agg : aggregates) {
    const double inv = 1.0 / agg.runs;
    for (const AggregateField& field : fields) {
      if (field.fold == Fold::kMean) {
        agg.*(field.value) *= inv;
      }
    }
  }
  return aggregates;
}

void WriteSummaryJson(std::ostream& out, const std::vector<AggregateRow>& aggregates) {
  out << "{\n  \"schema\": \"numalp-bench-summary-v1\",\n  \"groups\": [\n";
  for (std::size_t i = 0; i < aggregates.size(); ++i) {
    WriteAggregateObject(out, aggregates[i], "    ");
    out << (i + 1 < aggregates.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
}

bool ParseSummaryJson(const std::string& contents, std::vector<AggregateRow>* out,
                      std::string* error) {
  out->clear();
  if (contents.find("\"numalp-bench-summary-v1\"") == std::string::npos) {
    *error = "not a numalp-bench-summary-v1 document";
    return false;
  }
  // WriteSummaryJson's shape, line by line: the head, one group object per
  // line (optionally followed by ','), the tail. Blank lines aside, any
  // other line is an error, so a damaged group cannot silently drop out.
  constexpr std::string_view kHead[] = {"{", "\"schema\": \"numalp-bench-summary-v1\",",
                                        "\"groups\": ["};
  constexpr std::size_t kHeadLines = std::size(kHead);
  constexpr std::size_t kTailLines = 2;  // "]", "}"
  std::vector<std::pair<int, std::string>> lines;  // (number, trimmed text)
  std::istringstream in(contents);
  int number = 0;
  for (std::string line; std::getline(in, line);) {
    ++number;
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first != std::string::npos) {
      lines.emplace_back(number, line.substr(first, line.find_last_not_of(" \t\r") - first + 1));
    }
  }
  const auto fail = [error](int line, const std::string& message) {
    *error = "line " + std::to_string(line) + ": " + message;
    return false;
  };
  if (lines.size() < kHeadLines + kTailLines) {
    *error = "truncated document";
    return false;
  }
  for (std::size_t i = 0; i < kHeadLines; ++i) {
    if (lines[i].second != kHead[i]) {
      return fail(lines[i].first, "expected " + std::string(kHead[i]));
    }
  }
  if (lines[lines.size() - 2].second != "]" || lines.back().second != "}") {
    return fail(lines.back().first, "expected the closing ] and }");
  }
  for (std::size_t i = kHeadLines; i + kTailLines < lines.size(); ++i) {
    const auto& [line_number, line] = lines[i];
    Cursor c{line.data(), line.data() + line.size()};
    AggregateRow row;
    std::string scan_error;
    const auto set = [&row](const std::string& key, const std::string& value, bool quoted) {
      const AggregateField* field = FindAggregateField(key);
      return field == nullptr ||  // unknown keys are ignored (schema growth)
             FieldFromText(row, *field, value, quoted);
    };
    if (!ScanObject(c, &scan_error, set)) {
      return fail(line_number, scan_error);
    }
    if (c.p < c.end && *c.p == ',') {
      ++c.p;
    }
    if (!AtEnd(c)) {
      return fail(line_number, "unexpected text after '}'");
    }
    if (row.runs == 0) {
      return fail(line_number, "missing \"runs\"");
    }
    out->push_back(std::move(row));
  }
  if (out->empty()) {
    *error = "no groups found";
    return false;
  }
  return true;
}

void WriteAggregatesCsv(std::ostream& out, const std::vector<AggregateRow>& aggregates) {
  const auto& fields = AggregateFields();
  for (std::size_t f = 0; f < fields.size(); ++f) {
    out << (f == 0 ? "" : ",") << fields[f].name;
  }
  out << '\n';
  for (const AggregateRow& aggregate : aggregates) {
    for (std::size_t f = 0; f < fields.size(); ++f) {
      const std::string text = FieldText(aggregate, fields[f]);
      out << (f == 0 ? "" : ",") << (fields[f].fold == Fold::kKey ? CsvEscape(text) : text);
    }
    out << '\n';
  }
}

void WriteAggregatesJsonl(std::ostream& out, const std::vector<AggregateRow>& aggregates) {
  for (const AggregateRow& aggregate : aggregates) {
    WriteAggregateObject(out, aggregate, "");
    out << '\n';
  }
}

void PrintAggregates(std::ostream& out, const std::vector<AggregateRow>& aggregates) {
  for (const std::string& bench : Distinct(aggregates, [](const AggregateRow& a) {
         return a.bench;
       })) {
    std::vector<AggregateRow> of_bench;
    for (const AggregateRow& a : aggregates) {
      if (a.bench == bench) {
        of_bench.push_back(a);
      }
    }
    out << "## " << bench << "\n\n";
    const std::vector<std::string> policies =
        Distinct(of_bench, [](const AggregateRow& a) { return a.policy; });

    // Improvement pivot, one block per machine: the paper's bar charts as
    // rows (workload x policy, mean % improvement over Linux-4K).
    for (const std::string& machine :
         Distinct(of_bench, [](const AggregateRow& a) { return a.machine; })) {
      out << "improvement over Linux-4K on " << machine << " (mean over "
          << "seeds)\n";
      std::vector<std::string> header = {"workload", "variant"};
      header.insert(header.end(), policies.begin(), policies.end());
      std::vector<std::vector<std::string>> table;
      for (const AggregateRow& a : of_bench) {
        if (a.machine != machine) {
          continue;
        }
        // One table row per (workload, variant); fill the policy columns.
        const std::vector<std::string> key = {a.workload, a.variant};
        auto row_it = std::find_if(table.begin(), table.end(),
                                   [&](const std::vector<std::string>& row) {
                                     return row[0] == key[0] && row[1] == key[1];
                                   });
        if (row_it == table.end()) {
          std::vector<std::string> row = key;
          row.resize(2 + policies.size());
          table.push_back(row);
          row_it = table.end() - 1;
        }
        const auto policy_it = std::find(policies.begin(), policies.end(), a.policy);
        (*row_it)[2 + static_cast<std::size_t>(policy_it - policies.begin())] =
            Pct1(a.mean_improvement_pct);
      }
      PrintAlignedTable(out, header, table);
      out << '\n';
    }

    // Per-column metrics: the numbers behind Tables 1-3.
    out << "metrics (seed means)\n";
    std::vector<std::string> header;
    for (const AggregateField& field : AggregateFields()) {
      if (field.md_header != nullptr) {
        header.push_back(field.md_header);
      }
    }
    std::vector<std::vector<std::string>> table;
    for (const AggregateRow& a : of_bench) {
      std::vector<std::string>& cells = table.emplace_back();
      for (const AggregateField& field : AggregateFields()) {
        if (field.md_header != nullptr) {
          cells.push_back(field.value != nullptr ? field.md_format(a.*(field.value))
                                                 : FieldText(a, field));
        }
      }
    }
    PrintAlignedTable(out, header, table);
    out << '\n';
  }
}

}  // namespace numalp::report
