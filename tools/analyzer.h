// Pass 2 of the imr static-analysis framework: cross-file structural
// analysis over a lightweight model of every translation unit.
//
// Where pass 1 (tools/lint.h) matches per-line token patterns, pass 2
// tokenizes each file into a structural model — namespace/class/function
// scopes, call sites, `util::MutexLock` / manual `Lock()`/`Unlock()`
// acquisitions, blocking operations, pool-bypassing allocations, and
// Status-typed locals — then builds a project-wide symbol index and call
// graph (file parsing fans out over util::ThreadPool) and runs three
// whole-program analyses:
//
//   lock-order-cycle  every mutex held at the point another mutex is
//                     acquired (directly, or transitively through a call
//                     chain) contributes a held->acquired edge to the
//                     project lock-order graph; any cycle is a potential
//                     deadlock and is reported with the full acquisition
//                     chain. Generalizes pass 1's single-file
//                     blocking-under-shard-lock rule to the whole tree.
//   hot-path-blocking blocking operations (CondVar Wait/WaitUntil, file
//   hot-path-alloc    streams, fopen, LoadSnapshot, sleeps) and
//                     pool-bypassing allocations (`new`, malloc, naked
//                     std::vector<float> construction) reachable through
//                     the call graph from the training/serving/query
//                     entry points (Trainer::Train*/ParallelBatchStep,
//                     InferenceEngine::Predict*, AnnIndex/FlatIndex/
//                     IvfIndex::Search*, KnnPredictor::Interpolate*).
//                     Reported with the entry -> ... -> sink call chain.
//   status-drop       a util::Status / StatusOr local that is assigned
//                     and then never read again — the discard pattern
//                     -Werror=unused-result cannot see.
//
// The model is heuristic (no libclang): call edges resolve by name with
// same-class > same-file > unique-global precedence and ambiguous names
// resolve to nothing, so the analyses favor precision over recall. Mutex
// identities are canonicalized member paths (`Class::member_`,
// `shard.mutex`); distinct spellings of the same lock fragment the graph
// conservatively (fewer edges, never spurious cycles).
//
// Findings carry a line-independent `key` so the checked-in baseline
// (tools/analyze_baseline.txt) survives unrelated edits. Per-file models
// are cached on disk keyed by content hash: a warm re-run re-parses only
// changed files.
//
// Suppression: the pass-1 escape hatches apply — `// imr-lint:
// allow(rule)` on or above the reported line, `// imr-lint:
// allow-file(rule)` in the file header — plus the baseline for findings
// whose justification belongs in one reviewed place.
#ifndef IMR_TOOLS_ANALYZER_H_
#define IMR_TOOLS_ANALYZER_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "lint.h"

namespace imr::analysis {

// ---- per-file structural model -------------------------------------------

struct CallSite {
  std::string callee;             // simple name at the call site
  int line = 0;                   // 1-based
  std::vector<std::string> held;  // canonical mutexes held at the call
};

struct LockAcquire {
  std::string mutex;  // canonical name (Class::member_, shard.mutex, ...)
  int line = 0;
  bool scoped = false;            // MutexLock RAII vs manual Lock()
  std::vector<std::string> held;  // mutexes already held when acquiring
};

struct BlockingOp {
  std::string what;  // e.g. "CondVar::Wait", "std::ifstream", "LoadSnapshot"
  int line = 0;
  std::vector<std::string> held;
};

struct AllocOp {
  std::string what;  // e.g. "new", "std::vector<float>", "malloc"
  int line = 0;
};

struct StatusLocal {
  std::string var;
  int line = 0;
  bool read = false;   // referenced again after the declaration
  bool typed = false;  // declared as Status/StatusOr (vs auto)
  std::string init_callee;  // for auto locals: the initializing call
};

struct FunctionModel {
  std::string qualified;   // Ns::Class::name (best effort)
  std::string name;        // simple name
  std::string class_name;  // enclosing class, "" for free functions
  bool returns_status = false;
  int line = 0;  // definition line
  std::vector<CallSite> calls;
  std::vector<LockAcquire> acquires;
  std::vector<BlockingOp> blocking;
  std::vector<AllocOp> allocs;
  std::vector<StatusLocal> status_locals;
};

struct FileModel {
  std::string path;   // repo-relative
  uint64_t hash = 0;  // content hash (cache key)
  std::vector<FunctionModel> functions;
  std::set<std::string> file_allows;
  std::map<int, std::set<std::string>> line_allows;  // 1-based
  std::vector<lint::Finding> lint_findings;  // pass 1, cached with the model
};

/// FNV-1a over content plus the model format version, so a format bump
/// invalidates every cache entry.
uint64_t HashContent(const std::string& content);

/// Parses one translation unit into its structural model (pass-1 findings
/// are not populated; AnalyzeTree/AnalyzeSources attach them).
FileModel BuildFileModel(const std::string& relpath,
                         const std::string& content);

// ---- whole-program analysis ----------------------------------------------

/// A hot-path root: functions of `class_name` whose simple name starts
/// with `name_prefix`.
struct EntryPoint {
  std::string class_name;
  std::string name_prefix;
};

struct AnalyzerOptions {
  /// Hot-path roots; empty selects the defaults (Trainer::Train*,
  /// Trainer::ParallelBatchStep, InferenceEngine::Predict*,
  /// {AnnIndex, FlatIndex, IvfIndex}::Search*, KnnPredictor::Interpolate*).
  std::vector<EntryPoint> entries;
  /// Directory for the on-disk model cache; empty disables caching.
  std::string cache_dir;
  /// Baseline file of justified findings; empty disables baselining.
  std::string baseline_path;
  /// Worker threads for the parallel parse (<= 0: hardware concurrency).
  int threads = 0;
  /// Also run the pass-1 line rules per file (cached with the model).
  bool run_lint = true;
};

struct AnalysisTiming {
  std::string name;
  double ms = 0.0;
};

struct AnalysisReport {
  std::vector<lint::Finding> findings;   // actionable (not baselined)
  std::vector<lint::Finding> baselined;  // matched the baseline
  std::vector<AnalysisTiming> timings;   // per-phase wall time
  int files_scanned = 0;
  int files_parsed = 0;  // cache misses (or no cache)
  int files_cached = 0;  // cache hits
};

/// Pass-2 rule ids in reporting order.
const std::vector<std::string>& AnalysisIds();

struct SourceFile {
  std::string path;
  std::string content;
};

/// Analyzes an in-memory file set (fixture tests). No cache, no baseline
/// unless set in `options`.
AnalysisReport AnalyzeSources(const std::vector<SourceFile>& files,
                              const AnalyzerOptions& options = {});

/// Walks root/{src,tests,bench,examples,tools}, parses (or loads from
/// cache) every .h/.cc/.cpp in parallel, and runs the whole-program
/// analyses. Paths in findings are repo-relative (lint::RepoRootFor).
AnalysisReport AnalyzeTree(const std::string& root,
                           const AnalyzerOptions& options = {});

/// Machine-readable report: findings (with keys and baselined flags),
/// per-phase timings, and cache counters.
std::string ReportToJson(const AnalysisReport& report,
                         const std::string& root);

/// Baseline file format: one `<rule-id> <key>` per line; `#` comments
/// carry the justification. Unknown/missing file yields an empty set.
std::set<std::pair<std::string, std::string>> LoadBaseline(
    const std::string& path);

}  // namespace imr::analysis

#endif  // IMR_TOOLS_ANALYZER_H_
