#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/flags.h"
#include "util/rng.h"
#include "util/serialization.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/tsv_writer.h"

namespace imr::util {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = InvalidArgument("bad dim");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad dim");
}

TEST(StatusTest, StatusOrHoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  StatusOr<int> e = NotFound("nope");
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kNotFound);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.Next() == b.Next());
  EXPECT_LT(equal, 3);
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.UniformInt(10);
    EXPECT_LT(v, 10u);
  }
}

TEST(RngTest, UniformIntCoversAllValues) {
  Rng rng(7);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 10000; ++i) counts[rng.UniformInt(8)]++;
  EXPECT_EQ(counts.size(), 8u);
  for (const auto& [value, count] : counts) {
    EXPECT_GT(count, 1000) << "value " << value << " under-sampled";
  }
}

TEST(RngTest, UniformMeanIsHalf) {
  Rng rng(11);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.Uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, NormalMoments) {
  Rng rng(13);
  double sum = 0, sq = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(RngTest, DiscreteRespectsWeights) {
  Rng rng(17);
  std::vector<double> weights = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) counts[rng.Discrete(weights)]++;
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.012);
  EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.6, 0.012);
}

TEST(RngTest, ZipfHeavyHead) {
  Rng rng(19);
  const int n = 50000;
  int ones = 0;
  for (int i = 0; i < n; ++i) {
    uint64_t v = rng.Zipf(1000, 1.2);
    ASSERT_GE(v, 1u);
    ASSERT_LE(v, 1000u);
    ones += (v == 1);
  }
  // Rank 1 should dominate: for s=1.2, P(1) ~ 1/zeta-ish, well above 20%.
  EXPECT_GT(ones, n / 5);
}

TEST(RngTest, ZipfRankMonotone) {
  Rng rng(23);
  std::vector<int> counts(11, 0);
  for (int i = 0; i < 200000; ++i) {
    uint64_t v = rng.Zipf(10, 1.0);
    counts[v]++;
  }
  for (int r = 1; r < 10; ++r) {
    EXPECT_GT(counts[r], counts[r + 1]) << "rank " << r;
  }
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(29);
  std::vector<int> v = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  rng.Shuffle(&v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 10; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(StringUtilTest, Split) {
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StringUtilTest, SplitWhitespace) {
  auto parts = SplitWhitespace("  hello   world \t foo\n");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "hello");
  EXPECT_EQ(parts[2], "foo");
}

TEST(StringUtilTest, JoinStripLower) {
  EXPECT_EQ(Join({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(Strip("  x y  "), "x y");
  EXPECT_EQ(ToLower("MiXeD"), "mixed");
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_TRUE(EndsWith("foobar", "bar"));
  EXPECT_FALSE(StartsWith("fo", "foo"));
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s-%.2f", 7, "x", 1.5), "7-x-1.50");
}

TEST(FlagsTest, ParsesTypedFlags) {
  FlagParser parser;
  parser.AddInt("n", 10, "count")
      .AddDouble("lr", 0.3, "rate")
      .AddString("name", "abc", "label")
      .AddBool("verbose", false, "noise");
  const char* argv[] = {"prog", "--n=20", "--lr", "0.5", "--verbose"};
  ASSERT_TRUE(parser.Parse(5, const_cast<char**>(argv)).ok());
  EXPECT_EQ(parser.GetInt("n"), 20);
  EXPECT_DOUBLE_EQ(parser.GetDouble("lr"), 0.5);
  EXPECT_EQ(parser.GetString("name"), "abc");
  EXPECT_TRUE(parser.GetBool("verbose"));
}

TEST(FlagsTest, RejectsUnknownFlag) {
  FlagParser parser;
  parser.AddInt("n", 1, "count");
  const char* argv[] = {"prog", "--bogus=1"};
  EXPECT_FALSE(parser.Parse(2, const_cast<char**>(argv)).ok());
}

TEST(FlagsTest, RejectsBadInt) {
  FlagParser parser;
  parser.AddInt("n", 1, "count");
  const char* argv[] = {"prog", "--n=abc"};
  EXPECT_FALSE(parser.Parse(2, const_cast<char**>(argv)).ok());
}

TEST(SerializationTest, RoundTrip) {
  const std::string path = "/tmp/imr_serialization_test.bin";
  {
    BinaryWriter writer(path, 0xABCD1234u, 1);
    ASSERT_TRUE(writer.status().ok());
    writer.WriteU32(7);
    writer.WriteU64(1ull << 40);
    writer.WriteI64(-5);
    writer.WriteFloat(1.5f);
    writer.WriteDouble(2.25);
    writer.WriteString("hello");
    writer.WriteFloatVector({1.0f, 2.0f, 3.0f});
    ASSERT_TRUE(writer.Close().ok());
  }
  {
    BinaryReader reader(path, 0xABCD1234u, 1);
    ASSERT_TRUE(reader.status().ok());
    EXPECT_EQ(reader.ReadU32(), 7u);
    EXPECT_EQ(reader.ReadU64(), 1ull << 40);
    EXPECT_EQ(reader.ReadI64(), -5);
    EXPECT_FLOAT_EQ(reader.ReadFloat(), 1.5f);
    EXPECT_DOUBLE_EQ(reader.ReadDouble(), 2.25);
    EXPECT_EQ(reader.ReadString(), "hello");
    auto vec = reader.ReadFloatVector();
    ASSERT_EQ(vec.size(), 3u);
    EXPECT_FLOAT_EQ(vec[2], 3.0f);
    EXPECT_TRUE(reader.status().ok());
  }
  std::remove(path.c_str());
}

TEST(SerializationTest, RejectsBadMagic) {
  const std::string path = "/tmp/imr_serialization_magic.bin";
  {
    BinaryWriter writer(path, 0x1111u, 1);
    writer.WriteU32(1);
    ASSERT_TRUE(writer.Close().ok());
  }
  BinaryReader reader(path, 0x2222u, 1);
  EXPECT_FALSE(reader.status().ok());
  std::remove(path.c_str());
}

TEST(SerializationTest, RejectsTruncatedFile) {
  const std::string path = "/tmp/imr_serialization_trunc.bin";
  {
    BinaryWriter writer(path, 0x1111u, 1);
    ASSERT_TRUE(writer.Close().ok());
  }
  BinaryReader reader(path, 0x1111u, 1);
  ASSERT_TRUE(reader.status().ok());
  reader.ReadU64();  // nothing left to read
  EXPECT_FALSE(reader.status().ok());
  std::remove(path.c_str());
}

TEST(SerializationTest, RejectsWrongVersion) {
  const std::string path = "/tmp/imr_serialization_version.bin";
  {
    BinaryWriter writer(path, 0x1111u, 3);
    ASSERT_TRUE(writer.Close().ok());
  }
  BinaryReader reader(path, 0x1111u, 2);
  ASSERT_FALSE(reader.status().ok());
  EXPECT_NE(reader.status().ToString().find(path), std::string::npos);
  EXPECT_NE(reader.status().ToString().find("version"), std::string::npos);
  std::remove(path.c_str());
}

TEST(SerializationTest, ErrorsNameFileAndByteOffset) {
  const std::string path = "/tmp/imr_serialization_offset.bin";
  {
    BinaryWriter writer(path, 0x1111u, 1);
    writer.WriteU32(9);
    ASSERT_TRUE(writer.Close().ok());
  }
  {
    BinaryReader reader(path, 0x2222u, 1);
    ASSERT_FALSE(reader.status().ok());
    EXPECT_NE(reader.status().ToString().find(path), std::string::npos);
  }
  BinaryReader reader(path, 0x1111u, 1);
  ASSERT_TRUE(reader.status().ok());
  EXPECT_EQ(reader.offset(), 8u);  // magic + version header
  reader.ReadU32();
  EXPECT_EQ(reader.offset(), 12u);
  reader.ReadU64();  // truncated: only 4 payload bytes existed
  ASSERT_FALSE(reader.status().ok());
  const std::string message = reader.status().ToString();
  EXPECT_NE(message.find(path), std::string::npos);
  EXPECT_NE(message.find("offset 12"), std::string::npos);
  std::remove(path.c_str());
}

TEST(SerializationTest, EmptyStringAndVectorsRoundTrip) {
  const std::string path = "/tmp/imr_serialization_empty.bin";
  {
    BinaryWriter writer(path, 0x1111u, 1);
    writer.WriteString("");
    writer.WriteFloatVector({});
    writer.WriteIntVector({});
    writer.WriteString("tail");
    ASSERT_TRUE(writer.Close().ok());
  }
  BinaryReader reader(path, 0x1111u, 1);
  ASSERT_TRUE(reader.status().ok());
  EXPECT_EQ(reader.ReadString(), "");
  EXPECT_TRUE(reader.ReadFloatVector().empty());
  EXPECT_TRUE(reader.ReadIntVector().empty());
  EXPECT_EQ(reader.ReadString(), "tail");
  EXPECT_TRUE(reader.status().ok());
  std::remove(path.c_str());
}

TEST(SerializationTest, IntVectorRoundTrip) {
  const std::string path = "/tmp/imr_serialization_ints.bin";
  const std::vector<int> values = {-3, 0, 7, 1 << 20};
  {
    BinaryWriter writer(path, 0x1111u, 1);
    writer.WriteIntVector(values);
    ASSERT_TRUE(writer.Close().ok());
  }
  BinaryReader reader(path, 0x1111u, 1);
  ASSERT_TRUE(reader.status().ok());
  EXPECT_EQ(reader.ReadIntVector(), values);
  EXPECT_TRUE(reader.status().ok());
  std::remove(path.c_str());
}

TEST(ThreadPoolTest, ParallelForVisitsEachIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> visits(100);
  for (auto& v : visits) v.store(0);
  pool.ParallelFor(0, 100, 7, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) visits[static_cast<size_t>(i)]++;
  });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ThreadPoolTest, ChunkBoundariesIndependentOfThreadCount) {
  auto collect = [](int threads) {
    ThreadPool pool(threads);
    std::mutex mu;
    std::vector<std::array<int64_t, 3>> chunks;
    pool.ParallelForChunks(3, 50, 8,
                           [&](int64_t lo, int64_t hi, int64_t chunk) {
                             std::lock_guard<std::mutex> lock(mu);
                             chunks.push_back({lo, hi, chunk});
                           });
    std::sort(chunks.begin(), chunks.end());
    return chunks;
  };
  EXPECT_EQ(collect(1), collect(4));
  EXPECT_EQ(ThreadPool::NumChunks(3, 50, 8), 6);
  EXPECT_EQ(ThreadPool::NumChunks(5, 5, 8), 0);
}

TEST(ThreadPoolTest, ExceptionsPropagateToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(0, 64, 1,
                       [&](int64_t lo, int64_t) {
                         if (lo == 13) throw std::runtime_error("chunk 13");
                       }),
      std::runtime_error);
  // The pool survives a throwing region and runs later work.
  std::atomic<int> count{0};
  pool.ParallelFor(0, 8, 1, [&](int64_t, int64_t) { count++; });
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPoolTest, GrainMustBePositive) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.ParallelFor(0, 10, 0, [](int64_t, int64_t) {}),
               std::invalid_argument);
  EXPECT_THROW(pool.ParallelFor(0, 10, -3, [](int64_t, int64_t) {}),
               std::invalid_argument);
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> visits(64);
  for (auto& v : visits) v.store(0);
  pool.ParallelFor(0, 8, 1, [&](int64_t lo, int64_t hi) {
    EXPECT_TRUE(ThreadPool::InParallelRegion());
    // The nested call must not deadlock or reschedule; it runs inline on
    // this worker over its own chunk partition.
    pool.ParallelFor(0, 8, 2, [&](int64_t ilo, int64_t ihi) {
      for (int64_t i = ilo; i < ihi; ++i)
        visits[static_cast<size_t>(lo * 8 + i)]++;
    });
    (void)hi;
  });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
  EXPECT_FALSE(ThreadPool::InParallelRegion());
}

TEST(ThreadPoolTest, RunOnEachThreadRunsOncePerThread) {
  ThreadPool pool(4);
  std::mutex mutex;
  std::set<std::thread::id> ids;
  std::vector<int> indices;
  pool.RunOnEachThread([&](int index) {
    std::lock_guard<std::mutex> lock(mutex);
    ids.insert(std::this_thread::get_id());
    indices.push_back(index);
  });
  EXPECT_EQ(ids.size(), 4u);
  std::sort(indices.begin(), indices.end());
  EXPECT_EQ(indices, (std::vector<int>{0, 1, 2, 3}));
  ThreadPool single(1);
  int calls = 0;
  single.RunOnEachThread([&](int index) {
    EXPECT_EQ(index, 0);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, RegionTeardownStress) {
  // Regression test: a worker's final (failed) chunk claim, or a
  // late-waking worker that grabbed the region pointer, must not touch the
  // caller's stack-allocated region after ParallelFor returned. Many short
  // regions maximize the window; run under IMR_SANITIZE=thread|address to
  // catch regressions.
  ThreadPool pool(4);
  for (int iter = 0; iter < 2000; ++iter) {
    std::atomic<int> count{0};
    pool.ParallelFor(0, 8, 1, [&](int64_t, int64_t) { count++; });
    ASSERT_EQ(count.load(), 8) << "iter " << iter;
  }
}

TEST(ThreadPoolTest, ConcurrentSubmittersSerialize) {
  // Two non-worker threads submitting to the same pool must queue up, not
  // crash on the single-region invariant.
  ThreadPool pool(4);
  std::atomic<int64_t> total{0};
  auto submit = [&] {
    for (int iter = 0; iter < 100; ++iter) {
      pool.ParallelFor(0, 64, 4,
                       [&](int64_t lo, int64_t hi) { total += hi - lo; });
    }
  };
  std::thread a(submit), b(submit);
  a.join();
  b.join();
  EXPECT_EQ(total.load(), 2 * 100 * 64);
}

TEST(ThreadPoolTest, TreeReduceIsDeterministicAcrossPools) {
  Rng rng(97);
  auto make_parts = [&]() {
    Rng local(97);
    std::vector<std::vector<float>> parts(7, std::vector<float>(33));
    for (auto& part : parts)
      for (float& x : part) x = static_cast<float>(local.Uniform(-1.0, 1.0));
    return parts;
  };
  auto a = make_parts();
  auto b = make_parts();
  auto c = make_parts();
  ThreadPool pool1(1), pool4(4);
  TreeReduce(&pool1, &a);
  TreeReduce(&pool4, &b);
  TreeReduce(nullptr, &c);
  EXPECT_EQ(a[0], b[0]);
  EXPECT_EQ(a[0], c[0]);
  // Sanity: the reduction actually sums.
  auto parts = make_parts();
  double expect = 0;
  for (const auto& part : parts) expect += part[0];
  EXPECT_NEAR(a[0][0], expect, 1e-5);
}

TEST(ThreadPoolTest, GlobalPoolFollowsSetGlobalThreads) {
  SetGlobalThreads(3);
  EXPECT_EQ(GlobalThreads(), 3);
  EXPECT_EQ(GlobalPool().threads(), 3);
  SetGlobalThreads(0);  // restore the hardware-concurrency default
  EXPECT_GE(GlobalThreads(), 1);
}

TEST(TsvWriterTest, WritesRowsAndEscapes) {
  const std::string path = "/tmp/imr_tsv_test/sub/out.tsv";
  {
    TsvWriter writer(path);
    ASSERT_TRUE(writer.status().ok());
    writer.WriteRow({"a", "b\tc", "d\ne"});
    ASSERT_TRUE(writer.Close().ok());
  }
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "a\tb c\td e");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace imr::util
