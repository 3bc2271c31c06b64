// Parameterized property suites: invariants that must hold across sweeps
// of random shapes, seeds and configurations.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "eval/metrics.h"
#include "graph/alias_sampler.h"
#include "graph/embedding_store.h"
#include "graph/line.h"
#include "graph/proximity_graph.h"
#include "nn/init.h"
#include "tensor/ops.h"
#include "text/position.h"
#include "text/vocab.h"
#include "util/rng.h"

namespace imr {
namespace {

using tensor::Tensor;

// ---------- softmax properties over random shapes ----------

class SoftmaxProperty : public ::testing::TestWithParam<int> {};

TEST_P(SoftmaxProperty, RowsSumToOneAndShiftInvariant) {
  util::Rng rng(static_cast<uint64_t>(GetParam()));
  const int rows = 1 + static_cast<int>(rng.UniformInt(6));
  const int cols = 2 + static_cast<int>(rng.UniformInt(10));
  Tensor x = nn::NormalInit({rows, cols}, 2.0f, &rng);
  Tensor s = tensor::Softmax(x);
  for (int r = 0; r < rows; ++r) {
    float sum = 0;
    for (int c = 0; c < cols; ++c) {
      EXPECT_GE(s.at(r, c), 0.0f);
      sum += s.at(r, c);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5);
  }
  // Shift invariance: softmax(x + c) == softmax(x).
  Tensor shifted = tensor::Softmax(tensor::AddScalar(x, 7.25f));
  for (size_t i = 0; i < s.size(); ++i)
    EXPECT_NEAR(s.data()[i], shifted.data()[i], 1e-5);
}

TEST_P(SoftmaxProperty, LogSoftmaxMatchesLogOfSoftmax) {
  util::Rng rng(static_cast<uint64_t>(GetParam()) + 100);
  const int cols = 2 + static_cast<int>(rng.UniformInt(8));
  Tensor x = nn::NormalInit({3, cols}, 3.0f, &rng);
  Tensor log_soft = tensor::LogSoftmax(x);
  Tensor soft = tensor::Softmax(x);
  for (size_t i = 0; i < soft.size(); ++i)
    EXPECT_NEAR(log_soft.data()[i], std::log(soft.data()[i]), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SoftmaxProperty, ::testing::Range(0, 8));

// ---------- pooling properties ----------

class PoolingProperty : public ::testing::TestWithParam<int> {};

TEST_P(PoolingProperty, PiecewiseMatchesPerSegmentMax) {
  util::Rng rng(static_cast<uint64_t>(GetParam()) * 31 + 5);
  const int rows = 3 + static_cast<int>(rng.UniformInt(10));
  const int cols = 1 + static_cast<int>(rng.UniformInt(6));
  const int b1 = static_cast<int>(rng.UniformInt(rows + 1));
  const int b2 = b1 + static_cast<int>(
                          rng.UniformInt(static_cast<uint64_t>(rows - b1) + 1));
  Tensor x = nn::NormalInit({rows, cols}, 1.0f, &rng);
  Tensor pooled = tensor::PiecewiseMaxOverRows(x, b1, b2);
  ASSERT_EQ(pooled.size(), static_cast<size_t>(3 * cols));
  const int bounds[4] = {0, b1, b2, rows};
  for (int seg = 0; seg < 3; ++seg) {
    for (int c = 0; c < cols; ++c) {
      float expected = 0.0f;  // empty segment -> 0 by contract
      if (bounds[seg] < bounds[seg + 1]) {
        expected = x.at(bounds[seg], c);
        for (int r = bounds[seg]; r < bounds[seg + 1]; ++r)
          expected = std::max(expected, x.at(r, c));
      }
      EXPECT_FLOAT_EQ(pooled.at(seg * cols + c), expected)
          << "seg=" << seg << " c=" << c << " b1=" << b1 << " b2=" << b2;
    }
  }
}

TEST_P(PoolingProperty, MaxOverRowsIsUpperBoundOfEveryRow) {
  util::Rng rng(static_cast<uint64_t>(GetParam()) * 17 + 3);
  const int rows = 1 + static_cast<int>(rng.UniformInt(8));
  const int cols = 1 + static_cast<int>(rng.UniformInt(8));
  Tensor x = nn::NormalInit({rows, cols}, 1.0f, &rng);
  Tensor pooled = tensor::MaxOverRows(x);
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c) EXPECT_GE(pooled.at(c), x.at(r, c));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PoolingProperty, ::testing::Range(0, 10));

// ---------- conv properties ----------

class ConvProperty : public ::testing::TestWithParam<int> {};

TEST_P(ConvProperty, LinearInInput) {
  util::Rng rng(static_cast<uint64_t>(GetParam()) * 7 + 11);
  const int time = 2 + static_cast<int>(rng.UniformInt(8));
  const int dim = 1 + static_cast<int>(rng.UniformInt(5));
  const int filters = 1 + static_cast<int>(rng.UniformInt(4));
  Tensor w = nn::NormalInit({filters, 3 * dim}, 1.0f, &rng);
  Tensor zero_bias = Tensor::Zeros({filters});
  Tensor x = nn::NormalInit({time, dim}, 1.0f, &rng);
  Tensor y1 = tensor::Conv1dSame(x, w, zero_bias, 3);
  Tensor y2 = tensor::Conv1dSame(tensor::Scale(x, 2.0f), w, zero_bias, 3);
  for (size_t i = 0; i < y1.size(); ++i)
    EXPECT_NEAR(2.0f * y1.data()[i], y2.data()[i], 1e-3);
}

TEST_P(ConvProperty, BiasShiftsEveryOutput) {
  util::Rng rng(static_cast<uint64_t>(GetParam()) * 13 + 29);
  const int time = 2 + static_cast<int>(rng.UniformInt(6));
  const int dim = 2;
  const int filters = 2;
  Tensor w = nn::NormalInit({filters, 3 * dim}, 1.0f, &rng);
  Tensor x = nn::NormalInit({time, dim}, 1.0f, &rng);
  Tensor y0 = tensor::Conv1dSame(x, w, Tensor::Zeros({filters}), 3);
  Tensor y1 = tensor::Conv1dSame(x, w, Tensor::Full({filters}, 1.5f), 3);
  for (size_t i = 0; i < y0.size(); ++i)
    EXPECT_NEAR(y0.data()[i] + 1.5f, y1.data()[i], 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConvProperty, ::testing::Range(0, 8));

// ---------- alias sampler across random distributions ----------

class AliasProperty : public ::testing::TestWithParam<int> {};

TEST_P(AliasProperty, EmpiricalMatchesWeights) {
  util::Rng rng(static_cast<uint64_t>(GetParam()) * 101 + 1);
  const size_t n = 2 + rng.UniformInt(20);
  std::vector<double> weights(n);
  double total = 0;
  for (double& w : weights) {
    w = rng.Uniform() < 0.2 ? 0.0 : rng.Uniform(0.1, 5.0);
    total += w;
  }
  if (total == 0) {
    weights[0] = 1.0;
    total = 1.0;
  }
  graph::AliasSampler sampler(weights);
  std::vector<int> counts(n, 0);
  const int draws = 60000;
  for (int i = 0; i < draws; ++i) counts[sampler.Sample(&rng)]++;
  for (size_t i = 0; i < n; ++i) {
    const double expected = weights[i] / total;
    const double observed = counts[i] / static_cast<double>(draws);
    EXPECT_NEAR(observed, expected, 0.02) << "index " << i;
    if (weights[i] == 0.0) {
      EXPECT_EQ(counts[i], 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AliasProperty, ::testing::Range(0, 10));

// ---------- Zipf tails across exponents ----------

class ZipfProperty : public ::testing::TestWithParam<int> {};

TEST_P(ZipfProperty, HeavierExponentMeansMoreSingletons) {
  const double s_small = 1.1, s_large = 1.1 + 0.3 * (GetParam() + 1);
  util::Rng rng(77);
  int ones_small = 0, ones_large = 0;
  for (int i = 0; i < 20000; ++i) {
    ones_small += (rng.Zipf(100, s_small) == 1);
    ones_large += (rng.Zipf(100, s_large) == 1);
  }
  EXPECT_GT(ones_large, ones_small);
}

INSTANTIATE_TEST_SUITE_P(Exponents, ZipfProperty, ::testing::Range(0, 4));

// ---------- truncation invariants ----------

struct TruncationCase {
  int num_tokens;
  int head;
  int tail;
  int max_length;
};

class TruncationProperty
    : public ::testing::TestWithParam<TruncationCase> {};

TEST_P(TruncationProperty, WindowValidAndCoversEntitiesWhenPossible) {
  const TruncationCase& c = GetParam();
  auto result = text::TruncateAroundEntities(c.num_tokens, c.head, c.tail,
                                             c.max_length);
  EXPECT_GE(result.begin, 0);
  EXPECT_LE(result.end, c.num_tokens);
  EXPECT_EQ(result.end - result.begin,
            std::min(c.num_tokens, c.max_length));
  const int span = std::abs(c.head - c.tail);
  if (span < c.max_length) {
    EXPECT_LE(result.begin, std::min(c.head, c.tail));
    EXPECT_GT(result.end, std::max(c.head, c.tail));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, TruncationProperty,
    ::testing::Values(TruncationCase{10, 0, 9, 5},
                      TruncationCase{100, 10, 20, 15},
                      TruncationCase{100, 95, 99, 15},
                      TruncationCase{100, 0, 1, 15},
                      TruncationCase{50, 49, 0, 50},
                      TruncationCase{120, 60, 59, 40},
                      TruncationCase{7, 3, 4, 120}));

// ---------- relative position ids ----------

class PositionProperty : public ::testing::TestWithParam<int> {};

TEST_P(PositionProperty, IdsWithinRangeAndMonotone) {
  util::Rng rng(static_cast<uint64_t>(GetParam()) + 400);
  const int n = 1 + static_cast<int>(rng.UniformInt(150));
  const int entity = static_cast<int>(rng.UniformInt(n));
  const int max_pos = 1 + static_cast<int>(rng.UniformInt(60));
  auto ids = text::RelativePositionIds(n, entity, max_pos);
  ASSERT_EQ(ids.size(), static_cast<size_t>(n));
  EXPECT_EQ(ids[static_cast<size_t>(entity)], max_pos);  // offset 0
  for (int t = 0; t < n; ++t) {
    EXPECT_GE(ids[static_cast<size_t>(t)], 0);
    EXPECT_LE(ids[static_cast<size_t>(t)], 2 * max_pos);
    if (t > 0) {
      EXPECT_GE(ids[static_cast<size_t>(t)], ids[static_cast<size_t>(t - 1)]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PositionProperty, ::testing::Range(0, 10));

// ---------- PR-curve invariants over random rankings ----------

class MetricsProperty : public ::testing::TestWithParam<int> {};

TEST_P(MetricsProperty, CurveWellFormedAndAucBounded) {
  util::Rng rng(static_cast<uint64_t>(GetParam()) * 3 + 500);
  std::vector<eval::ScoredFact> facts;
  int positives = 0;
  const int n = 50 + static_cast<int>(rng.UniformInt(200));
  for (int i = 0; i < n; ++i) {
    eval::ScoredFact fact;
    fact.head = i;
    fact.tail = i + 10000;
    fact.relation = 1 + static_cast<int>(rng.UniformInt(5));
    fact.score = rng.Uniform();
    fact.correct = rng.Bernoulli(0.3);
    positives += fact.correct;
    facts.push_back(fact);
  }
  if (positives == 0) {
    facts[0].correct = true;
    positives = 1;
  }
  auto curve = eval::PrecisionRecallCurve(&facts, positives);
  ASSERT_EQ(curve.size(), facts.size());
  double prev_recall = 0.0;
  for (const auto& point : curve) {
    EXPECT_GE(point.recall, prev_recall);        // recall monotone
    EXPECT_GE(point.precision, 0.0);
    EXPECT_LE(point.precision, 1.0 + 1e-12);
    prev_recall = point.recall;
  }
  EXPECT_NEAR(curve.back().recall, 1.0, 1e-9);   // all positives retrieved
  const double auc = eval::AucPr(curve);
  EXPECT_GE(auc, 0.0);
  EXPECT_LE(auc, 1.0 + 1e-9);
  auto best = eval::MaxF1(curve);
  EXPECT_GE(best.f1, 0.0);
  EXPECT_LE(best.f1, 1.0 + 1e-9);
  // F1 at the chosen point must be consistent with its P and R.
  if (best.precision + best.recall > 0) {
    EXPECT_NEAR(best.f1,
                2 * best.precision * best.recall /
                    (best.precision + best.recall),
                1e-9);
  }
}

TEST_P(MetricsProperty, PerfectAboveRandomAboveInverted) {
  util::Rng rng(static_cast<uint64_t>(GetParam()) * 7 + 900);
  auto make = [&](double quality) {
    std::vector<eval::ScoredFact> facts;
    for (int i = 0; i < 200; ++i) {
      eval::ScoredFact fact;
      fact.head = i;
      fact.tail = i;
      fact.relation = 1;
      fact.correct = (i < 60);
      const double signal = fact.correct ? 1.0 : 0.0;
      fact.score = quality * signal + (1 - quality) * rng.Uniform();
      facts.push_back(fact);
    }
    auto curve = eval::PrecisionRecallCurve(&facts, 60);
    return eval::AucPr(curve);
  };
  const double good = make(0.95);
  const double random = make(0.0);
  EXPECT_GT(good, random);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricsProperty, ::testing::Range(0, 8));

// ---------- embedding-store algebra ----------

class EmbeddingProperty : public ::testing::TestWithParam<int> {};

TEST_P(EmbeddingProperty, MutualRelationAntisymmetric) {
  util::Rng rng(static_cast<uint64_t>(GetParam()) + 321);
  graph::EmbeddingStore store(6, 8);
  for (int v = 0; v < 6; ++v)
    for (int d = 0; d < 8; ++d)
      store.Vector(v)[d] = static_cast<float>(rng.Normal());
  for (int i = 0; i < 6; ++i) {
    for (int j = 0; j < 6; ++j) {
      auto forward = store.MutualRelation(i, j);
      auto backward = store.MutualRelation(j, i);
      for (size_t d = 0; d < forward.size(); ++d)
        EXPECT_FLOAT_EQ(forward[d], -backward[d]);
    }
  }
}

TEST_P(EmbeddingProperty, CosineSymmetricAndBounded) {
  util::Rng rng(static_cast<uint64_t>(GetParam()) + 654);
  graph::EmbeddingStore store(5, 7);
  for (int v = 0; v < 5; ++v)
    for (int d = 0; d < 7; ++d)
      store.Vector(v)[d] = static_cast<float>(rng.Normal());
  for (int i = 0; i < 5; ++i) {
    EXPECT_NEAR(store.Cosine(i, i), 1.0, 1e-5);
    for (int j = 0; j < 5; ++j) {
      const double c = store.Cosine(i, j);
      EXPECT_NEAR(c, store.Cosine(j, i), 1e-9);
      EXPECT_GE(c, -1.0 - 1e-9);
      EXPECT_LE(c, 1.0 + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EmbeddingProperty, ::testing::Range(0, 6));

// ---------- proximity-graph weight law across count patterns ----------

class ProximityProperty : public ::testing::TestWithParam<int> {};

TEST_P(ProximityProperty, WeightsFollowLogLaw) {
  util::Rng rng(static_cast<uint64_t>(GetParam()) * 5 + 777);
  graph::ProximityGraph graph(20);
  std::map<std::pair<int, int>, int> expected;
  for (int e = 0; e < 30; ++e) {
    int a = static_cast<int>(rng.UniformInt(20));
    int b = static_cast<int>(rng.UniformInt(20));
    if (a == b) continue;
    const int count = 2 + static_cast<int>(rng.UniformInt(30));
    for (int k = 0; k < count; ++k) graph.AddCooccurrence(a, b);
    expected[{std::min(a, b), std::max(a, b)}] += count;
  }
  graph.Finalize(2);
  const double max_count =
      static_cast<double>(graph.max_cooccurrence());
  for (const auto& edge : graph.edges()) {
    const auto it = expected.find({edge.source, edge.target});
    ASSERT_NE(it, expected.end());
    EXPECT_EQ(edge.cooccurrence, it->second);
    EXPECT_NEAR(edge.weight,
                std::log(static_cast<double>(it->second)) /
                    std::log(std::max(2.0, max_count)),
                1e-9);
    EXPECT_GT(edge.weight, 0.0);
    EXPECT_LE(edge.weight, 1.0 + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProximityProperty, ::testing::Range(0, 6));

// ---------- vocabulary bijection ----------

class VocabProperty : public ::testing::TestWithParam<int> {};

TEST_P(VocabProperty, IdWordRoundTrip) {
  util::Rng rng(static_cast<uint64_t>(GetParam()) + 4242);
  text::Vocabulary vocab;
  std::vector<std::string> words;
  for (int i = 0; i < 50; ++i) {
    std::string word = "w" + std::to_string(rng.UniformInt(200));
    vocab.Count(word);
    words.push_back(word);
  }
  vocab.Freeze();
  for (const std::string& word : words) {
    const int id = vocab.Id(word);
    ASSERT_NE(id, text::Vocabulary::kUnkId);
    EXPECT_EQ(vocab.Word(id), word);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VocabProperty, ::testing::Range(0, 5));

}  // namespace
}  // namespace imr
