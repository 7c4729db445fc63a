#ifndef PRORE_LINT_DIAGNOSTIC_H_
#define PRORE_LINT_DIAGNOSTIC_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "reader/program.h"

namespace prore::lint {

/// How bad a finding is. Errors gate `prolint` (exit code 1); warnings gate
/// only under --werror; notes are informational.
enum class Severity {
  kNote,
  kWarning,
  kError,
};

/// "note" / "warning" / "error".
const char* SeverityName(Severity s);

/// One finding of a lint pass or of the reorder validator, with a stable
/// machine-readable code (PLxxx), a severity, and a source span (line 0 =
/// unknown, e.g. for terms a transformation synthesized).
struct Diagnostic {
  std::string code;                       ///< stable code, e.g. "PL001"
  Severity severity = Severity::kWarning;
  reader::SourceSpan span;                ///< 1-based; line 0 = unknown
  std::string pred;                       ///< "name/arity" context, or ""
  std::string message;

  /// "12:3: warning: PL001: singleton variable ... [aunt/2]" — the span is
  /// omitted when unknown, the predicate bracket when empty.
  std::string ToString() const;

  /// One JSON object {"code":...,"severity":...,"line":...,...}.
  std::string ToJson() const;

  bool operator==(const Diagnostic&) const = default;
};

/// Collects diagnostics as passes run.
class DiagnosticSink {
 public:
  void Report(Diagnostic d) { diags_.push_back(std::move(d)); }
  void Report(std::string code, Severity severity, reader::SourceSpan span,
              std::string pred, std::string message) {
    diags_.push_back(Diagnostic{std::move(code), severity, span,
                                std::move(pred), std::move(message)});
  }

  const std::vector<Diagnostic>& diagnostics() const { return diags_; }
  std::vector<Diagnostic> Take() { return std::move(diags_); }

  /// Stable order for output and golden tests: by (line, column, code,
  /// pred, message). Does NOT deduplicate — passes are required not to
  /// emit duplicates (the fuzz suite asserts this).
  void Sort();

 private:
  std::vector<Diagnostic> diags_;
};

/// Renders diagnostics one per line, each prefixed with `file:` when a file
/// name is given.
std::string RenderText(const std::vector<Diagnostic>& diags,
                       std::string_view file);

/// Renders {"file":...,"diagnostics":[...],"errors":N,"warnings":N} —
/// the `prolint --format=json` payload.
std::string RenderJson(const std::vector<Diagnostic>& diags,
                       std::string_view file);

/// Renders one SARIF 2.1.0 log covering all files — the
/// `prolint --format=sarif` payload, suitable for code-scanning upload.
/// Codes (PLxxx) become stable ruleIds; severities map to SARIF levels
/// note/warning/error. Each (file, diagnostics) pair contributes results
/// in a single run.
std::string RenderSarif(
    const std::vector<std::pair<std::string, std::vector<Diagnostic>>>&
        file_diags);

/// Converts a reader failure into a span-annotated diagnostic (code PL000,
/// error). Parser messages embed "at line L column C"; this recovers the
/// span so parse errors report exact source locations.
Diagnostic FromParseStatus(const prore::Status& status);

}  // namespace prore::lint

#endif  // PRORE_LINT_DIAGNOSTIC_H_
