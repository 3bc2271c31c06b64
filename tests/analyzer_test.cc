// Tests for pass 2 of the static-analysis framework (tools/analyzer.h):
// seeded fixtures for each whole-program analysis (lock-order cycle,
// hot-path reachability, Status-drop) asserting exact rule id and
// file:line, suppression and baseline mechanics, the on-disk model cache,
// and the real-tree regressions (lock-order graph cycle-free, analyzer
// clean against the checked-in baseline).
//
// imr-lint: allow-file(mutex-guard)
#include "analyzer.h"

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "lint.h"

namespace analysis = imr::analysis;
namespace lint = imr::lint;

namespace {

analysis::AnalysisReport Analyze(
    const std::vector<analysis::SourceFile>& files,
    analysis::AnalyzerOptions options = {}) {
  options.run_lint = false;  // pass-2 behavior only; pass 1 has lint_test
  return analysis::AnalyzeSources(files, options);
}

std::vector<lint::Finding> ForRule(const std::vector<lint::Finding>& all,
                                   const std::string& rule) {
  std::vector<lint::Finding> out;
  for (const lint::Finding& f : all) {
    if (f.rule == rule) out.push_back(f);
  }
  return out;
}

TEST(AnalysisIdsTest, Stable) {
  const std::vector<std::string> expected = {
      "lock-order-cycle",
      "hot-path-blocking",
      "hot-path-alloc",
      "status-drop",
  };
  EXPECT_EQ(analysis::AnalysisIds(), expected);
}

// ---- lock-order cycles ---------------------------------------------------

TEST(LockOrderTest, DetectsSeededTwoMutexCycleAcrossFiles) {
  const std::string a_cc = R"cc(namespace fix {
void LockAB() {
  util::MutexLock a(mu_a);
  util::MutexLock b(mu_b);
}
}  // namespace fix
)cc";
  const std::string b_cc = R"cc(namespace fix {
void LockBA() {
  util::MutexLock b(mu_b);
  util::MutexLock a(mu_a);
}
}  // namespace fix
)cc";
  const analysis::AnalysisReport report =
      Analyze({{"src/fix/a.cc", a_cc}, {"src/fix/b.cc", b_cc}});
  const auto cycles = ForRule(report.findings, "lock-order-cycle");
  ASSERT_EQ(cycles.size(), 1u);
  // the cycle leader is the lexicographically smallest mutex (mu_a), so
  // the reported site is the mu_b acquisition under mu_a: a.cc line 4
  EXPECT_EQ(cycles[0].file, "src/fix/a.cc");
  EXPECT_EQ(cycles[0].line, 4);
  EXPECT_NE(cycles[0].message.find("mu_a -> mu_b"), std::string::npos);
  EXPECT_NE(cycles[0].message.find("mu_b -> mu_a"), std::string::npos);
  EXPECT_EQ(cycles[0].key, "mu_a<->mu_b");
}

TEST(LockOrderTest, DetectsTransitiveCycleThroughCallGraph) {
  const std::string a_cc = R"cc(namespace fix {
void TakeB();
void Outer() {
  util::MutexLock a(mu_a);
  TakeB();
}
}  // namespace fix
)cc";
  const std::string b_cc = R"cc(namespace fix {
void TakeB() {
  util::MutexLock b(mu_b);
}
void TakeA() {
  util::MutexLock a2(mu_a);
}
void Outer2() {
  util::MutexLock b2(mu_b);
  TakeA();
}
}  // namespace fix
)cc";
  const analysis::AnalysisReport report =
      Analyze({{"src/fix/a.cc", a_cc}, {"src/fix/b.cc", b_cc}});
  const auto cycles = ForRule(report.findings, "lock-order-cycle");
  ASSERT_EQ(cycles.size(), 1u);
  // the acquisition chain names the functions the edge flows through
  EXPECT_NE(cycles[0].message.find("fix::Outer -> fix::TakeB"),
            std::string::npos);
}

TEST(LockOrderTest, ManualUnlockReleasesBeforeNextAcquire) {
  const std::string src = R"cc(namespace fix {
void Manual() {
  mu_a.Lock();
  mu_a.Unlock();
  util::MutexLock b(mu_b);
}
void Reverse() {
  util::MutexLock b(mu_b);
}
}  // namespace fix
)cc";
  const analysis::AnalysisReport report = Analyze({{"src/fix/m.cc", src}});
  EXPECT_TRUE(ForRule(report.findings, "lock-order-cycle").empty());
}

TEST(LockOrderTest, NestedOrderInOneDirectionIsNotACycle) {
  const std::string src = R"cc(namespace fix {
void One() {
  util::MutexLock a(mu_a);
  util::MutexLock b(mu_b);
}
void Two() {
  util::MutexLock a(mu_a);
  util::MutexLock b(mu_b);
}
}  // namespace fix
)cc";
  const analysis::AnalysisReport report = Analyze({{"src/fix/n.cc", src}});
  EXPECT_TRUE(ForRule(report.findings, "lock-order-cycle").empty());
}

// ---- hot-path reachability -----------------------------------------------

TEST(HotPathTest, DetectsBlockingCallThreeFramesBelowPredict) {
  const std::string src = R"cc(namespace fix {
class InferenceEngine {
 public:
  int Predict(int q) { return Level1(q); }
  int Level1(int q) { return Level2(q); }
  int Level2(int q) { return Level3(q); }
  int Level3(int q) {
    std::ifstream in(path_);
    return q;
  }
};
}  // namespace fix
)cc";
  const analysis::AnalysisReport report =
      Analyze({{"src/fix/engine.cc", src}});
  const auto blocking = ForRule(report.findings, "hot-path-blocking");
  ASSERT_EQ(blocking.size(), 1u);
  EXPECT_EQ(blocking[0].file, "src/fix/engine.cc");
  EXPECT_EQ(blocking[0].line, 8);
  EXPECT_NE(blocking[0].message.find("std::ifstream"), std::string::npos);
  EXPECT_NE(blocking[0].message.find(
                "fix::InferenceEngine::Predict -> fix::InferenceEngine::"
                "Level1 -> fix::InferenceEngine::Level2 -> "
                "fix::InferenceEngine::Level3"),
            std::string::npos);
}

TEST(HotPathTest, DetectsPoolBypassingAllocationUnderTrain) {
  const std::string src = R"cc(namespace fix {
class Trainer {
 public:
  void Train() { Step(); }
  void Step() {
    float* scratch = new float[8];
    Use(scratch);
  }
};
}  // namespace fix
)cc";
  const analysis::AnalysisReport report =
      Analyze({{"src/fix/trainer.cc", src}});
  const auto allocs = ForRule(report.findings, "hot-path-alloc");
  ASSERT_EQ(allocs.size(), 1u);
  EXPECT_EQ(allocs[0].file, "src/fix/trainer.cc");
  EXPECT_EQ(allocs[0].line, 6);
  EXPECT_NE(allocs[0].message.find("new"), std::string::npos);
}

TEST(HotPathTest, UnreachableBlockingCallIsNotReported) {
  const std::string src = R"cc(namespace fix {
void ColdMaintenance() {
  std::ifstream in(path);
}
}  // namespace fix
)cc";
  const analysis::AnalysisReport report = Analyze({{"src/fix/cold.cc", src}});
  EXPECT_TRUE(ForRule(report.findings, "hot-path-blocking").empty());
}

// The ANN/kNN query paths are default entry points: they promise an
// allocation-free steady state, so a naked std::vector<float> in a Search*
// or Interpolate* body is reported, while Build paths may allocate freely.

TEST(HotPathTest, DetectsAllocationInsideAnnSearchBody) {
  const std::string src = R"cc(
namespace imr::graph::ann {
void FlatIndex::Search(const float* query, int k,
                       std::vector<SearchResult>* out) const {
  std::vector<float> scores(static_cast<size_t>(rows_));
  (void)scores;
}
}  // namespace imr::graph::ann
)cc";
  const analysis::AnalysisReport report =
      Analyze({{"src/graph/ann/flat_index.cc", src}});
  const auto allocs = ForRule(report.findings, "hot-path-alloc");
  ASSERT_EQ(allocs.size(), 1u);
  EXPECT_EQ(allocs[0].file, "src/graph/ann/flat_index.cc");
  EXPECT_EQ(allocs[0].line, 5);
}

TEST(HotPathTest, DetectsAllocationInsideInterpolateBody) {
  const std::string src = R"cc(
bool KnnPredictor::Interpolate(const float* mr,
                               std::vector<float>* probs) const {
  std::vector<float> vote(static_cast<size_t>(num_relations_), 0.0f);
  (void)vote;
  return true;
}
)cc";
  const analysis::AnalysisReport report =
      Analyze({{"src/re/knn_predictor.cc", src}});
  const auto allocs = ForRule(report.findings, "hot-path-alloc");
  ASSERT_EQ(allocs.size(), 1u);
  EXPECT_EQ(allocs[0].file, "src/re/knn_predictor.cc");
  EXPECT_EQ(allocs[0].line, 4);
}

TEST(HotPathTest, DetectsAllocationInsideInheritedSearchBatch) {
  // IvfIndex inherits AnnIndex's SearchBatch, so the base class is an
  // entry point of its own.
  const std::string src = R"cc(
void AnnIndex::SearchBatch(const float* queries, int num_queries, int k,
                           std::vector<std::vector<SearchResult>>* out) const {
  std::vector<float> scratch(static_cast<size_t>(k));
  (void)scratch;
}
)cc";
  const analysis::AnalysisReport report =
      Analyze({{"src/graph/ann/ann_index.cc", src}});
  const auto allocs = ForRule(report.findings, "hot-path-alloc");
  ASSERT_EQ(allocs.size(), 1u);
  EXPECT_EQ(allocs[0].line, 4);
}

TEST(HotPathTest, AnnBuildPathsMayAllocate) {
  const std::string src = R"cc(
void IvfIndex::Build(const float* data, int rows, int dim) {
  std::vector<float> work(static_cast<size_t>(rows) * dim);
  (void)work;
}
void IvfIndex::Search(const float* query, int k,
                      std::vector<SearchResult>* out) const {
  const size_t n = tensor::internal::AcquireBuffer(cells_, &scores);
  (void)n;
}
)cc";
  const analysis::AnalysisReport report =
      Analyze({{"src/graph/ann/ivf_index.cc", src}});
  EXPECT_TRUE(ForRule(report.findings, "hot-path-alloc").empty());
}

// ---- Status propagation --------------------------------------------------

constexpr const char* kStatusFixture = R"cc(namespace fix {
util::Status DoWork() { return util::Status(); }
void Drops() {
  util::Status s = DoWork();
}
void Reads() {
  util::Status s = DoWork();
  if (!s.ok()) return;
}
void Discards() {
  util::Status s = DoWork();
  (void)s;
}
void AutoDrops() {
  auto s = DoWork();
}
}  // namespace fix
)cc";

TEST(StatusDropTest, DetectsDroppedTypedAndAutoLocals) {
  const analysis::AnalysisReport report =
      Analyze({{"src/fix/status.cc", kStatusFixture}});
  const auto drops = ForRule(report.findings, "status-drop");
  ASSERT_EQ(drops.size(), 2u);
  EXPECT_EQ(drops[0].file, "src/fix/status.cc");
  EXPECT_EQ(drops[0].line, 4);  // Drops()
  EXPECT_NE(drops[0].message.find("'s'"), std::string::npos);
  EXPECT_NE(drops[0].message.find("fix::Drops"), std::string::npos);
  EXPECT_EQ(drops[1].line, 15);  // AutoDrops(): resolved Status-returning call
  EXPECT_NE(drops[1].message.find("fix::AutoDrops"), std::string::npos);
}

TEST(StatusDropTest, DetectsDroppedStatusOr) {
  const std::string src = R"cc(namespace fix {
util::StatusOr<int> Make() { return 1; }
void G() {
  util::StatusOr<int> v = Make();
}
}  // namespace fix
)cc";
  const analysis::AnalysisReport report = Analyze({{"src/fix/so.cc", src}});
  const auto drops = ForRule(report.findings, "status-drop");
  ASSERT_EQ(drops.size(), 1u);
  EXPECT_EQ(drops[0].line, 4);
  EXPECT_NE(drops[0].message.find("'v'"), std::string::npos);
}

TEST(StatusDropTest, AutoFromNonStatusCallIsNotReported) {
  const std::string src = R"cc(namespace fix {
int Count() { return 3; }
void H() {
  auto n = Count();
}
}  // namespace fix
)cc";
  const analysis::AnalysisReport report = Analyze({{"src/fix/nn.cc", src}});
  EXPECT_TRUE(ForRule(report.findings, "status-drop").empty());
}

// ---- suppression: allow, allow-file, baseline ----------------------------

TEST(SuppressionTest, LineAllowSuppressesPass2Finding) {
  const std::string src = R"cc(namespace fix {
util::Status DoWork() { return util::Status(); }
void Drops() {
  util::Status s = DoWork();  // imr-lint: allow(status-drop)
}
}  // namespace fix
)cc";
  const analysis::AnalysisReport report = Analyze({{"src/fix/s.cc", src}});
  EXPECT_TRUE(ForRule(report.findings, "status-drop").empty());
}

TEST(SuppressionTest, AllowFileHeaderSuppressesPass2Finding) {
  const std::string src = R"cc(// fixture file
// imr-lint: allow-file(status-drop)
namespace fix {
util::Status DoWork() { return util::Status(); }
void Drops() {
  util::Status s = DoWork();
}
}  // namespace fix
)cc";
  const analysis::AnalysisReport report = Analyze({{"src/fix/s.cc", src}});
  EXPECT_TRUE(ForRule(report.findings, "status-drop").empty());
}

TEST(SuppressionTest, BaselineMatchesByKeyNotByLine) {
  namespace fs = std::filesystem;
  const fs::path baseline =
      fs::temp_directory_path() / "imr_analyzer_test_baseline.txt";
  {
    std::ofstream out(baseline, std::ios::trunc);
    out << "# justification lives here\n";
    out << "status-drop src/fix/status.cc#fix::Drops#s\n";
  }
  analysis::AnalyzerOptions options;
  options.baseline_path = baseline.string();
  const analysis::AnalysisReport report =
      Analyze({{"src/fix/status.cc", kStatusFixture}}, options);
  // Drops() is baselined; AutoDrops() still fires
  ASSERT_EQ(report.baselined.size(), 1u);
  EXPECT_EQ(report.baselined[0].line, 4);
  const auto drops = ForRule(report.findings, "status-drop");
  ASSERT_EQ(drops.size(), 1u);
  EXPECT_EQ(drops[0].line, 15);
  fs::remove(baseline);
}

TEST(SuppressionTest, LoadBaselineSkipsCommentsAndBlanks) {
  namespace fs = std::filesystem;
  const fs::path path =
      fs::temp_directory_path() / "imr_analyzer_test_baseline2.txt";
  {
    std::ofstream out(path, std::ios::trunc);
    out << "# comment\n\n  status-drop some#key  \nmalformed-no-space\n";
  }
  const auto baseline = analysis::LoadBaseline(path.string());
  EXPECT_EQ(baseline.size(), 1u);
  EXPECT_EQ(baseline.count({"status-drop", "some#key"}), 1u);
  fs::remove(path);
}

// ---- on-disk model cache -------------------------------------------------

TEST(CacheTest, WarmRunReusesModelsAndInvalidatesOnEdit) {
  namespace fs = std::filesystem;
  const fs::path root = fs::temp_directory_path() / "imr_analyzer_test_tree";
  fs::remove_all(root);
  fs::create_directories(root / "src");
  {
    std::ofstream out(root / "src" / "a.cc", std::ios::trunc);
    out << kStatusFixture;
  }
  analysis::AnalyzerOptions options;
  options.cache_dir = (root / "cache").string();
  options.run_lint = false;

  const analysis::AnalysisReport cold =
      analysis::AnalyzeTree(root.string(), options);
  EXPECT_EQ(cold.files_scanned, 1);
  EXPECT_EQ(cold.files_parsed, 1);
  EXPECT_EQ(cold.files_cached, 0);
  ASSERT_EQ(ForRule(cold.findings, "status-drop").size(), 2u);

  const analysis::AnalysisReport warm =
      analysis::AnalyzeTree(root.string(), options);
  EXPECT_EQ(warm.files_parsed, 0);
  EXPECT_EQ(warm.files_cached, 1);
  // cached models produce identical findings
  ASSERT_EQ(warm.findings.size(), cold.findings.size());
  for (size_t i = 0; i < warm.findings.size(); ++i) {
    EXPECT_EQ(lint::FormatFinding(warm.findings[i]),
              lint::FormatFinding(cold.findings[i]));
  }

  {
    std::ofstream out(root / "src" / "a.cc", std::ios::trunc);
    out << "namespace fix {\nvoid Fine() {}\n}\n";
  }
  const analysis::AnalysisReport edited =
      analysis::AnalyzeTree(root.string(), options);
  EXPECT_EQ(edited.files_parsed, 1);
  EXPECT_EQ(edited.files_cached, 0);
  EXPECT_TRUE(edited.findings.empty());
  fs::remove_all(root);
}

// ---- JSON report ---------------------------------------------------------

TEST(JsonTest, ReportCarriesFindingsKeysAndTimings) {
  const analysis::AnalysisReport report =
      Analyze({{"src/fix/status.cc", kStatusFixture}});
  const std::string json = analysis::ReportToJson(report, "/repo");
  EXPECT_NE(json.find("\"rule\": \"status-drop\""), std::string::npos);
  EXPECT_NE(json.find("\"file\": \"src/fix/status.cc\""), std::string::npos);
  EXPECT_NE(json.find("\"key\": \"src/fix/status.cc#fix::Drops#s\""),
            std::string::npos);
  EXPECT_NE(json.find("\"baselined\": false"), std::string::npos);
  EXPECT_NE(json.find("\"files_scanned\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"timings\""), std::string::npos);
}

// ---- real-tree regressions -----------------------------------------------

TEST(RealTreeTest, LockOrderGraphIsCycleFree) {
  analysis::AnalyzerOptions options;
  options.run_lint = false;  // pass 1 has its own ctest
  const analysis::AnalysisReport report =
      analysis::AnalyzeTree(IMR_PROJECT_SOURCE_DIR, options);
  EXPECT_TRUE(ForRule(report.findings, "lock-order-cycle").empty());
  EXPECT_TRUE(ForRule(report.baselined, "lock-order-cycle").empty());
}

TEST(RealTreeTest, AnalyzerIsCleanAgainstCheckedInBaseline) {
  analysis::AnalyzerOptions options;
  options.run_lint = false;
  options.baseline_path =
      std::string(IMR_PROJECT_SOURCE_DIR) + "/tools/analyze_baseline.txt";
  const analysis::AnalysisReport report =
      analysis::AnalyzeTree(IMR_PROJECT_SOURCE_DIR, options);
  for (const lint::Finding& f : report.findings) {
    ADD_FAILURE() << "unbaselined finding: " << lint::FormatFinding(f);
  }
  // the baseline holds only justified entries that still fire
  EXPECT_FALSE(report.baselined.empty());
}

TEST(RealTreeTest, RepoRootIsFoundFromSubdirectory) {
  namespace fs = std::filesystem;
  const std::string from_src =
      lint::RepoRootFor(std::string(IMR_PROJECT_SOURCE_DIR) + "/src");
  const std::string from_root = lint::RepoRootFor(IMR_PROJECT_SOURCE_DIR);
  EXPECT_EQ(from_src, from_root);
  EXPECT_TRUE(fs::exists(fs::path(from_root) / "ROADMAP.md"));
}

}  // namespace
