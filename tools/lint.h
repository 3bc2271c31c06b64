// imr_lint: project-specific static analysis, token/regex based (no
// libclang). The linter enforces conventions the compiler cannot:
//
//   no-raw-random     std::random_device / rand() / srand() / time(nullptr)
//                     anywhere outside src/util/rng.cc — every source of
//                     nondeterminism must flow through util::Rng so runs
//                     are reproducible at any thread count
//   no-naked-new      `new` / `delete` expressions in src/ — ownership goes
//                     through std::unique_ptr / containers
//   no-throw          `throw` in src/ — the library reports errors through
//                     util::Status, never exceptions
//   no-iostream       std::cout / std::cerr in src/ outside util/logging —
//                     library code logs through IMR_LOG
//   mutex-guard       a mutex member (std::mutex, util::Mutex) in a class
//                     with no IMR_GUARDED_BY-annotated field — lock
//                     discipline must be machine-checkable
//   include-hygiene   project headers included as "util/foo.h" style
//                     project-relative paths: no "../" segments, no "src/"
//                     prefix, no <angle> includes of project directories
//   kernel-alloc      naked std::vector<float> construction in
//                     src/tensor/ops.cc — kernel storage comes from
//                     tensor/buffer_pool.h so steady-state steps stay
//                     allocation-free
//   optimizer-dense-grad
//                     range-for over a `.grad()` expression or a
//                     `.grad().size()` loop bound in src/nn/optimizer.cc —
//                     gradient walks go through the sanctioned row-sparse
//                     helpers so embedding updates stay O(touched rows)
//   raw-intrinsics    SIMD intrinsic calls (_mm_* / _mm256_* / _mm512_* /
//                     vld1q_* etc.) anywhere outside src/tensor/simd/ —
//                     vector code is reached through the runtime dispatch
//                     table, never called directly, so CPU detection and
//                     the per-TU ISA build flags cannot be bypassed
//   blocking-under-shard-lock
//                     a blocking call (CondVar Wait/WaitUntil, file I/O
//                     streams, fopen, LoadSnapshot, sleeps) while a
//                     cache-shard mutex is held, in src/serve/ — shard
//                     mutexes are leaf locks on the request hot path;
//                     blocking under one serializes every request hashing
//                     to that shard behind the slow operation
//
// These per-line rules are pass 1 of the two-pass framework; pass 2 (the
// cross-file structural analyses — lock-order cycles, hot-path
// reachability, Status propagation) lives in tools/analyzer.h and reuses
// the scanner exported below. A pass-1 rule that pass 2 already enforces
// goes: the allocation-free ANN/kNN query paths, for one, are hot-path-alloc
// entry points rather than a per-file rule.
//
// Suppression: append `// imr-lint: allow(rule-id)` (comma-separated for
// several rules) on the offending line or on the line directly above it.
// A whole file opts out of a rule with `// imr-lint: allow-file(rule-id)`
// in the file's header comment (any comment line before the first line of
// code) — intended for fixture-heavy test files where per-line allows
// would repeat dozens of times.
//
// Comments, string literals, and char literals are blanked before rule
// matching, so prose and test fixtures never trip the rules
// (include-hygiene runs on the raw line because the include path *is* a
// string literal).
#ifndef IMR_TOOLS_LINT_H_
#define IMR_TOOLS_LINT_H_

#include <set>
#include <string>
#include <vector>

namespace imr::lint {

struct Finding {
  std::string rule;     // rule id, e.g. "no-throw"
  std::string file;     // repo-relative path
  int line = 0;         // 1-based
  std::string message;  // human-readable explanation
  /// Line-independent identity for baseline matching (pass-2 analyses
  /// only; empty for the per-line pass-1 rules).
  std::string key;
};

// ---- shared source scanner (used by pass 1 here and pass 2 in
// tools/analyzer.h) ----

/// The file split into per-line blanked code (comments and string/char
/// literals replaced by spaces, so token scans only ever see real code)
/// plus per-line comment text (so `imr-lint: allow(...)` still parses).
struct ScannedFile {
  std::vector<std::string> code;
  std::vector<std::string> comments;
};

ScannedFile ScanSource(const std::string& content);

/// Rules suppressed on each line via `imr-lint: allow(rule-a, rule-b)`.
std::vector<std::set<std::string>> ParseLineAllows(
    const std::vector<std::string>& comments);

/// Rules suppressed for the whole file via `imr-lint: allow-file(rule)`
/// in the header comment — only comment lines before the first line
/// containing code count, so a stray allow-file buried mid-file has no
/// effect.
std::set<std::string> ParseFileAllows(const ScannedFile& scan);

/// Walks up from `start` looking for the repository root (a directory
/// containing `.git`, or failing that the `src/` + `tools/` + ROADMAP.md
/// triple). Returns the canonicalized root, or canonicalized `start`
/// itself when no marker is found (fixture trees in tests). Finding paths
/// are made relative to this, so `file:line:` output is identical no
/// matter which directory the linter is invoked from.
std::string RepoRootFor(const std::string& start);

/// All rule ids the linter knows, in reporting order.
const std::vector<std::string>& RuleIds();

/// Lints one translation unit. `relpath` is the project-relative path
/// (e.g. "src/util/foo.cc"); it decides which rules apply (library-only
/// rules fire only under src/). `content` is the full file text.
std::vector<Finding> LintSource(const std::string& relpath,
                                const std::string& content);

/// Walks root/{src,tests,bench,examples,tools} for .h/.cc/.cpp files (in
/// sorted order, so output is deterministic) and lints each. Files that
/// cannot be read produce a "read-error" finding.
std::vector<Finding> LintTree(const std::string& root);

/// "file:line: [rule-id] message" — the one-line form tests and CI parse.
std::string FormatFinding(const Finding& finding);

}  // namespace imr::lint

#endif  // IMR_TOOLS_LINT_H_
