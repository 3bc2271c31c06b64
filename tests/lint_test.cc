// Fixture coverage for tools/imr_lint: every rule is proven live by a
// minimal source with exactly one known violation, a clean file yields no
// findings, and the `// imr-lint: allow(...)` escape hatch suppresses both
// same-line and previous-line.
#include "lint.h"

#include <algorithm>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace imr::lint {
namespace {

std::vector<std::string> Rules(const std::vector<Finding>& findings) {
  std::vector<std::string> rules;
  rules.reserve(findings.size());
  for (const Finding& finding : findings) rules.push_back(finding.rule);
  return rules;
}

TEST(LintTest, CleanLibraryFileHasNoFindings) {
  const std::string source = R"cc(
#include <memory>

#include "util/status.h"

namespace imr::util {
std::unique_ptr<int> MakeBox(int v) { return std::make_unique<int>(v); }
}  // namespace imr::util
)cc";
  EXPECT_TRUE(LintSource("src/util/box.cc", source).empty());
}

TEST(LintTest, NoRawRandomFiresOnRandomDevice) {
  const std::string source =
      "#include <random>\n"
      "int Seed() {\n"
      "  std::random_device rd;\n"
      "  return static_cast<int>(rd());\n"
      "}\n";
  const auto findings = LintSource("src/util/seed.cc", source);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "no-raw-random");
  EXPECT_EQ(findings[0].file, "src/util/seed.cc");
  EXPECT_EQ(findings[0].line, 3);
}

TEST(LintTest, NoRawRandomFiresOnTimeNull) {
  const auto findings =
      LintSource("src/re/trainer.cc", "long Now() { return time(nullptr); }\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "no-raw-random");
  EXPECT_EQ(findings[0].line, 1);
}

TEST(LintTest, NoRawRandomExemptsRngImplementation) {
  const std::string source = "unsigned Entropy() { return std::random_device{}(); }\n";
  EXPECT_TRUE(LintSource("src/util/rng.cc", source).empty());
  // ...but only that one file.
  EXPECT_FALSE(LintSource("src/util/rng2.cc", source).empty());
}

TEST(LintTest, NoNakedNewFiresOnNewAndDelete) {
  const std::string source =
      "void Leak() {\n"
      "  int* p = new int(3);\n"
      "  delete p;\n"
      "}\n";
  const auto findings = LintSource("src/util/leak.cc", source);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, "no-naked-new");
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_EQ(findings[1].rule, "no-naked-new");
  EXPECT_EQ(findings[1].line, 3);
}

TEST(LintTest, NoNakedNewIgnoresDeletedMembers) {
  const std::string source =
      "class Pool {\n"
      " public:\n"
      "  Pool(const Pool&) = delete;\n"
      "  Pool& operator=(const Pool&) = delete;\n"
      "};\n";
  EXPECT_TRUE(LintSource("src/util/pool.h", source).empty());
}

TEST(LintTest, NoThrowFiresInLibraryButNotInTests) {
  const std::string source = "void F() { throw 42; }\n";
  const auto findings = LintSource("src/nn/f.cc", source);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "no-throw");
  EXPECT_EQ(findings[0].line, 1);
  // Library-only rule: test code may exercise exceptions freely.
  EXPECT_TRUE(LintSource("tests/f_test.cc", source).empty());
}

TEST(LintTest, NoIostreamFiresOutsideLogging) {
  const std::string source =
      "#include <iostream>\n"
      "void Print() { std::cout << 1; }\n";
  const auto findings = LintSource("src/eval/print.cc", source);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "no-iostream");
  EXPECT_EQ(findings[0].line, 2);
  // The logging implementation is the one sanctioned stderr writer.
  EXPECT_TRUE(LintSource("src/util/logging.cc",
                         "void Emit() { std::cerr << 1; }\n")
                  .empty());
}

TEST(LintTest, MutexGuardFiresOnUnannotatedMutexMember) {
  const std::string source =
      "#include <mutex>\n"
      "class Counter {\n"
      " private:\n"
      "  std::mutex mutex_;\n"
      "  int count_ = 0;\n"
      "};\n";
  const auto findings = LintSource("src/util/counter.h", source);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "mutex-guard");
  EXPECT_EQ(findings[0].line, 4);
}

TEST(LintTest, MutexGuardSatisfiedByAnnotation) {
  const std::string source =
      "#include \"util/mutex.h\"\n"
      "#include \"util/thread_annotations.h\"\n"
      "class Counter {\n"
      " private:\n"
      "  util::Mutex mutex_;\n"
      "  int count_ IMR_GUARDED_BY(mutex_) = 0;\n"
      "};\n";
  EXPECT_TRUE(LintSource("src/util/counter.h", source).empty());
}

TEST(LintTest, MutexGuardIgnoresNamespaceScopeMutex) {
  const std::string source =
      "#include <mutex>\n"
      "namespace imr {\n"
      "std::mutex g_mutex;\n"
      "}\n";
  EXPECT_TRUE(LintSource("src/util/global.cc", source).empty());
}

TEST(LintTest, IncludeHygieneFiresOnParentRelativeAndSrcPrefixed) {
  const std::string source =
      "#include \"../util/status.h\"\n"
      "#include \"src/util/logging.h\"\n"
      "#include <util/rng.h>\n"
      "#include <vector>\n"
      "#include \"util/flags.h\"\n";
  const auto findings = LintSource("tests/hygiene_test.cc", source);
  ASSERT_EQ(findings.size(), 3u);
  for (const Finding& finding : findings) {
    EXPECT_EQ(finding.rule, "include-hygiene");
  }
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_EQ(findings[1].line, 2);
  EXPECT_EQ(findings[2].line, 3);
}

TEST(LintTest, AllowSuppressesOnSameLine) {
  const std::string source =
      "void F() { throw 42; }  // imr-lint: allow(no-throw)\n";
  EXPECT_TRUE(LintSource("src/nn/f.cc", source).empty());
}

TEST(LintTest, AllowSuppressesFromPrecedingLine) {
  const std::string source =
      "// Rethrow is deliberate here: imr-lint: allow(no-throw)\n"
      "void F() { throw 42; }\n";
  EXPECT_TRUE(LintSource("src/nn/f.cc", source).empty());
}

TEST(LintTest, AllowIsRuleSpecific) {
  // Suppressing one rule must not blanket-suppress others on the line.
  const std::string source =
      "void F() { throw new int(7); }  // imr-lint: allow(no-throw)\n";
  const auto findings = LintSource("src/nn/f.cc", source);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "no-naked-new");
}

TEST(LintTest, AllowListSuppressesMultipleRules) {
  const std::string source =
      "void F() { throw new int(7); }"
      "  // imr-lint: allow(no-throw, no-naked-new)\n";
  EXPECT_TRUE(LintSource("src/nn/f.cc", source).empty());
}

TEST(LintTest, ViolationsInCommentsAndStringsAreIgnored) {
  const std::string source =
      "// don't use std::cout or throw or new in library code\n"
      "/* std::random_device is banned */\n"
      "const char* kDoc = \"never call rand() or time(nullptr)\";\n";
  EXPECT_TRUE(LintSource("src/util/doc.cc", source).empty());
}

TEST(LintTest, FormatFindingIsFileLineRule) {
  const auto findings =
      LintSource("src/nn/f.cc", "void F() { throw 42; }\n");
  ASSERT_EQ(findings.size(), 1u);
  const std::string formatted = FormatFinding(findings[0]);
  EXPECT_EQ(formatted.rfind("src/nn/f.cc:1: [no-throw]", 0), 0u) << formatted;
}

TEST(LintTest, KernelAllocFiresOnNakedVectorInOpsCc) {
  const std::string source =
      "namespace imr::tensor {\n"
      "void Kernel(int n) {\n"
      "  std::vector<float> scratch(static_cast<size_t>(n));\n"
      "  (void)scratch;\n"
      "}\n"
      "}  // namespace imr::tensor\n";
  const auto findings = LintSource("src/tensor/ops.cc", source);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "kernel-alloc");
  EXPECT_EQ(findings[0].line, 3);
}

TEST(LintTest, KernelAllocFiresOnBraceInitAndTemporary) {
  const std::string source =
      "void A() { std::vector<float> buf{1.0f, 2.0f}; (void)buf; }\n"
      "void B(std::vector<float>* out) { *out = std::vector<float>(8); }\n";
  const auto findings = LintSource("src/tensor/ops.cc", source);
  EXPECT_EQ(Rules(findings),
            (std::vector<std::string>{"kernel-alloc", "kernel-alloc"}));
}

TEST(LintTest, KernelAllocIgnoresPoolAcquiresAndReferences) {
  const std::string source =
      "std::vector<float> out = AcquireBuffer(n);\n"
      "const std::vector<float>& view = out;\n"
      "std::vector<float>* GradOf();\n"
      "std::vector<std::vector<float>> buckets;\n";
  EXPECT_TRUE(LintSource("src/tensor/ops.cc", source).empty());
}

TEST(LintTest, KernelAllocOnlyAppliesToOpsCc) {
  const std::string source =
      "void Helper() { std::vector<float> tmp(4); (void)tmp; }\n";
  EXPECT_TRUE(LintSource("src/tensor/tensor.cc", source).empty());
  EXPECT_TRUE(LintSource("src/nn/layers.cc", source).empty());
}

TEST(LintTest, KernelAllocHonorsAllowEscape) {
  const std::string source =
      "// imr-lint: allow(kernel-alloc)\n"
      "std::vector<float> tmp(4);\n";
  EXPECT_TRUE(LintSource("src/tensor/ops.cc", source).empty());
}

TEST(LintTest, OptimizerDenseGradFiresOnRangeForOverGrad) {
  const std::string source =
      "void Sgd::Step() {\n"
      "  for (auto& p : params_) {\n"
      "    for (float gv : p.grad()) total += gv * gv;\n"
      "  }\n"
      "}\n";
  const auto findings = LintSource("src/nn/optimizer.cc", source);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "optimizer-dense-grad");
  EXPECT_EQ(findings[0].line, 3);
}

TEST(LintTest, OptimizerDenseGradFiresOnGradSizeLoopBound) {
  const std::string source =
      "void Step() {\n"
      "  for (size_t i = 0; i < p.grad().size(); ++i) v[i] -= g[i];\n"
      "}\n";
  const auto findings = LintSource("src/nn/optimizer.cc", source);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "optimizer-dense-grad");
  EXPECT_EQ(findings[0].line, 2);
}

TEST(LintTest, OptimizerDenseGradIgnoresSparseHelpers) {
  const std::string source =
      "double GradSquaredSum(const tensor::Tensor& p) {\n"
      "  const auto& g = p.grad();\n"
      "  for (int r : p.grad_touched_rows()) Walk(g, r);\n"
      "  return 0.0;\n"
      "}\n";
  EXPECT_TRUE(LintSource("src/nn/optimizer.cc", source).empty());
}

TEST(LintTest, OptimizerDenseGradOnlyAppliesToOptimizerCc) {
  const std::string source =
      "void F() { for (float gv : p.grad()) total += gv; }\n";
  EXPECT_TRUE(LintSource("src/nn/module.cc", source).empty());
  EXPECT_TRUE(LintSource("tests/optimizer_test.cc", source).empty());
}

TEST(LintTest, OptimizerDenseGradHonorsAllowEscape) {
  const std::string source =
      "// imr-lint: allow(optimizer-dense-grad)\n"
      "for (float gv : p.grad()) total += gv * gv;\n";
  EXPECT_TRUE(LintSource("src/nn/optimizer.cc", source).empty());
}

TEST(LintTest, RawIntrinsicsFiresOutsideSimdDirectory) {
  const std::string source =
      "void Add(const float* a, const float* b, float* o) {\n"
      "  _mm256_storeu_ps(o, _mm256_add_ps(_mm256_loadu_ps(a),\n"
      "                                    _mm256_loadu_ps(b)));\n"
      "}\n";
  const auto findings = LintSource("src/tensor/ops.cc", source);
  ASSERT_FALSE(findings.empty());
  EXPECT_EQ(findings[0].rule, "raw-intrinsics");
  EXPECT_EQ(findings[0].line, 2);
}

TEST(LintTest, RawIntrinsicsFiresOnNeonOutsideSimdDirectory) {
  const std::string source =
      "void Copy(const float* a, float* o) { vst1q_f32(o, vld1q_f32(a)); }\n";
  const auto findings = LintSource("src/nn/layers.cc", source);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "raw-intrinsics");
}

TEST(LintTest, RawIntrinsicsAllowedInsideSimdDirectory) {
  const std::string source =
      "void Add(const float* a, const float* b, float* o) {\n"
      "  _mm_storeu_ps(o, _mm_add_ps(_mm_loadu_ps(a), _mm_loadu_ps(b)));\n"
      "}\n";
  EXPECT_TRUE(
      LintSource("src/tensor/simd/kernels_sse2.cc", source).empty());
}

TEST(LintTest, RawIntrinsicsIgnoresMentionsInCommentsAndStrings) {
  const std::string source =
      "// fast path uses _mm256_fmadd_ps(a, b, c) under the hood\n"
      "const char* kName = \"_mm_add_ps(x, y)\";\n";
  EXPECT_TRUE(LintSource("src/tensor/ops.cc", source).empty());
}

TEST(LintTest, RawIntrinsicsHonorsAllowEscape) {
  const std::string source =
      "// imr-lint: allow(raw-intrinsics)\n"
      "void Pause() { _mm_pause(); }\n";
  EXPECT_TRUE(LintSource("src/util/spin.cc", source).empty());
}

TEST(LintTest, BlockingUnderShardLockFiresOnCondVarWait) {
  const std::string source = R"cc(
void Bad(Shard& shard) {
  util::MutexLock lock(shard.mutex);
  while (empty()) shard.cv.Wait(shard.mutex);
}
)cc";
  const auto findings = LintSource("src/serve/bad_cache.cc", source);
  ASSERT_EQ(Rules(findings),
            std::vector<std::string>{"blocking-under-shard-lock"});
  EXPECT_EQ(findings[0].line, 4);
}

TEST(LintTest, BlockingUnderShardLockFiresOnFileIoAndSnapshotLoad) {
  const std::string source = R"cc(
void Bad(Shard& shard, const std::string& path) {
  util::MutexLock lock(shard.mutex);
  std::ifstream in(path);
  auto snapshot = LoadSnapshot(path);
}
)cc";
  const auto findings = LintSource("src/serve/bad_reload.cc", source);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, "blocking-under-shard-lock");
  EXPECT_EQ(findings[0].line, 4);
  EXPECT_EQ(findings[1].rule, "blocking-under-shard-lock");
  EXPECT_EQ(findings[1].line, 5);
}

TEST(LintTest, BlockingUnderShardLockTracksManualLockPairs) {
  // Blocking after Unlock (or outside the lock scope) is fine; between
  // Lock and Unlock it is not.
  const std::string source = R"cc(
void Mixed(Shard& shard) {
  shard.mutex.Lock();
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  shard.mutex.Unlock();
  std::ifstream in("ok_now.txt");
}
void ScopedOk(Shard& shard, const std::string& path) {
  {
    util::MutexLock lock(shard.mutex);
    touch(shard);
  }
  auto snapshot = LoadSnapshot(path);
}
)cc";
  const auto findings = LintSource("src/serve/manual_lock.cc", source);
  ASSERT_EQ(Rules(findings),
            std::vector<std::string>{"blocking-under-shard-lock"});
  EXPECT_EQ(findings[0].line, 4);
}

TEST(LintTest, BlockingUnderShardLockIgnoresOtherMutexes) {
  // Non-shard locks (dispatcher queue, stats ring) may block — the rule
  // is about the cache-shard leaf locks only.
  const std::string source = R"cc(
void Dispatcher() {
  util::MutexLock lock(queue_mutex_);
  while (queue_.empty()) queue_cv_.Wait(queue_mutex_);
}
)cc";
  EXPECT_TRUE(LintSource("src/serve/dispatch.cc", source).empty());
}

TEST(LintTest, BlockingUnderShardLockOnlyAppliesToServe) {
  const std::string source = R"cc(
void Elsewhere(Shard& shard) {
  util::MutexLock lock(shard.mutex);
  std::ifstream in("fine_outside_serve.txt");
}
)cc";
  EXPECT_TRUE(LintSource("src/graph/shards.cc", source).empty());
}

TEST(LintTest, BlockingUnderShardLockHonorsAllowEscape) {
  const std::string source = R"cc(
void Justified(Shard& shard) {
  util::MutexLock lock(shard.mutex);
  // imr-lint: allow(blocking-under-shard-lock)
  std::ifstream in("cold_path_by_design.txt");
}
)cc";
  EXPECT_TRUE(LintSource("src/serve/cold.cc", source).empty());
}

TEST(LintTest, RuleIdsAreStable) {
  const std::vector<std::string> expected = {
      "no-raw-random", "no-naked-new", "no-throw",
      "no-iostream",   "mutex-guard",  "include-hygiene",
      "kernel-alloc",  "optimizer-dense-grad", "raw-intrinsics",
      "blocking-under-shard-lock"};
  EXPECT_EQ(RuleIds(), expected);
}

TEST(LintTest, AllowFileHeaderSuppressesRuleForWholeFile) {
  const std::string source = R"cc(// fixture-heavy test helper
// imr-lint: allow-file(no-throw)
namespace imr {
void A() { throw 1; }
void B() { throw 2; }
}  // namespace imr
)cc";
  EXPECT_TRUE(LintSource("src/util/fixture.cc", source).empty());
}

TEST(LintTest, AllowFileTakesCommaSeparatedRuleList) {
  const std::string source = R"cc(// imr-lint: allow-file(no-throw, no-naked-new)
namespace imr {
void A() { throw 1; }
int* B() { return new int(2); }
}  // namespace imr
)cc";
  EXPECT_TRUE(LintSource("src/util/fixture.cc", source).empty());
}

TEST(LintTest, AllowFileOnlySuppressesTheNamedRule) {
  const std::string source = R"cc(// imr-lint: allow-file(no-naked-new)
namespace imr {
void A() { throw 1; }
}  // namespace imr
)cc";
  EXPECT_EQ(Rules(LintSource("src/util/fixture.cc", source)),
            (std::vector<std::string>{"no-throw"}));
}

TEST(LintTest, AllowFileBuriedAfterCodeHasNoEffect) {
  const std::string source = R"cc(namespace imr {
// imr-lint: allow-file(no-throw)
void A() { throw 1; }
}  // namespace imr
)cc";
  EXPECT_EQ(Rules(LintSource("src/util/fixture.cc", source)),
            (std::vector<std::string>{"no-throw"}));
}

TEST(LintTest, RawStringLiteralContentsAreBlanked) {
  // without raw-string handling the embedded quote would end the literal
  // early and the fixture code would leak into rule matching
  const std::string source =
      "namespace imr {\n"
      "const char* kFixture = R\"inner(\n"
      "  const char* s = \"quote\";\n"
      "  void Bad() { throw 1; }\n"
      ")inner\";\n"
      "}  // namespace imr\n";
  EXPECT_TRUE(LintSource("src/util/fixture.cc", source).empty());
}

}  // namespace
}  // namespace imr::lint
