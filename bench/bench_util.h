#ifndef PRORE_BENCH_BENCH_UTIL_H_
#define PRORE_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "core/evaluation.h"
#include "core/reorderer.h"
#include "programs/programs.h"
#include "reader/parser.h"
#include "term/store.h"

namespace prore::bench {

/// One row of a Table II/III/IV-style reproduction.
struct WorkloadRow {
  std::string label;
  uint64_t original_calls = 0;
  uint64_t reordered_calls = 0;
  uint64_t best_calls = 0;  ///< 0 = not computed
  bool set_equivalent = true;
  double paper_ratio = 0.0;  ///< 0 = paper did not report

  double Ratio() const {
    return reordered_calls == 0
               ? 1.0
               : static_cast<double>(original_calls) / reordered_calls;
  }
};

/// Runs every workload of `program` against original vs reordered and
/// returns the rows. `opts` configures the reorderer.
inline prore::Result<std::vector<WorkloadRow>> RunProgramWorkloads(
    const programs::BenchmarkProgram& program,
    const core::ReorderOptions& opts = core::ReorderOptions()) {
  term::TermStore store;
  PRORE_ASSIGN_OR_RETURN(reader::Program original,
                         reader::ParseProgramText(&store, program.source));
  core::Reorderer reorderer(&store, opts);
  PRORE_ASSIGN_OR_RETURN(core::ReorderResult reordered,
                         reorderer.Run(original));
  core::Evaluator eval(&store, original, reordered.program);
  std::vector<WorkloadRow> rows;
  for (const auto& wl : program.mode_workloads) {
    PRORE_ASSIGN_OR_RETURN(
        core::ComparisonResult c,
        eval.CompareMode(wl.pred, wl.arity, wl.mode, program.universe));
    WorkloadRow row;
    row.label = wl.pred + wl.mode;
    row.original_calls = c.original_calls;
    row.reordered_calls = c.reordered_calls;
    row.set_equivalent = c.set_equivalent;
    row.paper_ratio = wl.paper_ratio;
    rows.push_back(row);
  }
  for (const auto& wl : program.query_workloads) {
    PRORE_ASSIGN_OR_RETURN(core::ComparisonResult c,
                           eval.CompareQueries(wl.queries));
    WorkloadRow row;
    row.label = wl.label;
    row.original_calls = c.original_calls;
    row.reordered_calls = c.reordered_calls;
    row.set_equivalent = c.set_equivalent;
    row.paper_ratio = wl.paper_ratio;
    rows.push_back(row);
  }
  return rows;
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void PrintRows(const std::vector<WorkloadRow>& rows,
                      bool with_best = false) {
  std::printf("%-26s %12s %12s %s%8s %12s  %s\n", "workload", "original",
              "reordered", with_best ? "     best" : "", "ratio",
              "paper-ratio", "set-eq");
  for (const WorkloadRow& row : rows) {
    char paper[32];
    if (row.paper_ratio > 0) {
      std::snprintf(paper, sizeof(paper), "%.2f", row.paper_ratio);
    } else {
      std::snprintf(paper, sizeof(paper), "-");
    }
    if (with_best) {
      char best[32];
      if (row.best_calls > 0) {
        std::snprintf(best, sizeof(best), "%llu",
                      static_cast<unsigned long long>(row.best_calls));
      } else {
        std::snprintf(best, sizeof(best), "-");
      }
      std::printf("%-26s %12llu %12llu %9s %8.2f %12s  %s\n",
                  row.label.c_str(),
                  static_cast<unsigned long long>(row.original_calls),
                  static_cast<unsigned long long>(row.reordered_calls),
                  best, row.Ratio(), paper,
                  row.set_equivalent ? "yes" : "NO!");
    } else {
      std::printf("%-26s %12llu %12llu %8.2f %12s  %s\n", row.label.c_str(),
                  static_cast<unsigned long long>(row.original_calls),
                  static_cast<unsigned long long>(row.reordered_calls),
                  row.Ratio(), paper, row.set_equivalent ? "yes" : "NO!");
    }
  }
}

/// Rewrites the JSON object in `path` with `rows` as its `section` member,
/// keeping the other members and their order, so benches that share one
/// file (pipeline_scale and mt_queries in BENCH_parallel.json) can run in
/// either order, or alone. Returns false on I/O failure.
inline bool WriteJsonSection(const std::string& path,
                             const std::string& section, JsonValue rows) {
  std::stringstream text;
  if (std::ifstream in(path); in) text << in.rdbuf();
  auto old = JsonValue::Parse(text.str());
  JsonValue doc = JsonValue::Object();
  bool placed = false;
  if (old.ok() && old->is_object()) {
    for (const auto& [key, value] : old->members()) {
      placed = placed || key == section;
      doc.Set(key, key == section ? rows : value);
    }
  }
  if (!placed) doc.Set(section, std::move(rows));
  std::ofstream out(path);
  out << doc.Dump() << "\n";
  return out.good();
}

}  // namespace prore::bench

#endif  // PRORE_BENCH_BENCH_UTIL_H_
