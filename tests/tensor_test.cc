#include "tensor/tensor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "tensor/ops.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace imr::tensor {
namespace {

// Numerical gradient check for a scalar-valued function of one leaf tensor.
// Returns the max absolute difference between analytic and numeric grads.
template <typename Fn>
double GradCheck(Tensor leaf, Fn fn, double eps = 1e-3) {
  leaf.set_requires_grad(true);
  Tensor loss = fn(leaf);
  leaf.ZeroGrad();
  loss.Backward();
  std::vector<float> analytic = leaf.grad();
  if (analytic.empty()) analytic.assign(leaf.size(), 0.0f);

  double max_diff = 0.0;
  for (size_t i = 0; i < leaf.size(); ++i) {
    const float saved = leaf.data()[i];
    leaf.mutable_data()[i] = saved + static_cast<float>(eps);
    const double up = fn(leaf).item();
    leaf.mutable_data()[i] = saved - static_cast<float>(eps);
    const double down = fn(leaf).item();
    leaf.mutable_data()[i] = saved;
    const double numeric = (up - down) / (2 * eps);
    max_diff = std::max(max_diff, std::abs(numeric - analytic[i]));
  }
  return max_diff;
}

Tensor RandomTensor(std::vector<int> shape, util::Rng* rng,
                    float scale = 1.0f) {
  size_t n = 1;
  for (int d : shape) n *= static_cast<size_t>(d);
  std::vector<float> data(n);
  for (float& v : data) v = static_cast<float>(rng->Normal()) * scale;
  return Tensor::FromData(std::move(shape), std::move(data));
}

TEST(TensorTest, FactoryShapes) {
  Tensor t = Tensor::Zeros({2, 3});
  EXPECT_EQ(t.rank(), 2);
  EXPECT_EQ(t.size(), 6u);
  EXPECT_EQ(t.rows(), 2);
  EXPECT_EQ(t.cols(), 3);
  EXPECT_FLOAT_EQ(t.at(1, 2), 0.0f);

  Tensor v = Tensor::FromData({3}, {1, 2, 3});
  EXPECT_EQ(v.rank(), 1);
  EXPECT_EQ(v.rows(), 1);
  EXPECT_EQ(v.cols(), 3);
  EXPECT_FLOAT_EQ(v.at(2), 3.0f);

  Tensor s = Tensor::Scalar(5.0f);
  EXPECT_FLOAT_EQ(s.item(), 5.0f);
}

TEST(TensorTest, AddSubMulForward) {
  Tensor a = Tensor::FromData({2}, {1, 2});
  Tensor b = Tensor::FromData({2}, {10, 20});
  EXPECT_FLOAT_EQ(Add(a, b).at(1), 22.0f);
  EXPECT_FLOAT_EQ(Sub(b, a).at(0), 9.0f);
  EXPECT_FLOAT_EQ(Mul(a, b).at(1), 40.0f);
  EXPECT_FLOAT_EQ(Scale(a, 3.0f).at(0), 3.0f);
  EXPECT_FLOAT_EQ(AddScalar(a, 1.0f).at(1), 3.0f);
}

TEST(TensorTest, MatMulForward) {
  Tensor a = Tensor::FromData({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromData({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.shape(), (std::vector<int>{2, 2}));
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(TensorTest, MatMulVectorLhs) {
  Tensor a = Tensor::FromData({3}, {1, 2, 3});
  Tensor b = Tensor::FromData({3, 2}, {1, 0, 0, 1, 1, 1});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.rank(), 1);
  EXPECT_FLOAT_EQ(c.at(0), 4.0f);
  EXPECT_FLOAT_EQ(c.at(1), 5.0f);
}

TEST(TensorTest, BackwardThroughChain) {
  // loss = sum((a + a) * a) = sum(2 a^2); d/da = 4a.
  Tensor a = Tensor::FromData({3}, {1, 2, 3}, /*requires_grad=*/true);
  Tensor loss = Sum(Mul(Add(a, a), a));
  loss.Backward();
  ASSERT_EQ(a.grad().size(), 3u);
  EXPECT_FLOAT_EQ(a.grad()[0], 4.0f);
  EXPECT_FLOAT_EQ(a.grad()[2], 12.0f);
}

TEST(TensorTest, BackwardSharedNodeAccumulates) {
  // Diamond: b = 2a, c = 3a, loss = sum(b + c) -> d/da = 5.
  Tensor a = Tensor::FromData({2}, {1, 1}, true);
  Tensor loss = Sum(Add(Scale(a, 2.0f), Scale(a, 3.0f)));
  loss.Backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 5.0f);
  EXPECT_FLOAT_EQ(a.grad()[1], 5.0f);
}

TEST(TensorTest, NoGradGuardSkipsGraph) {
  Tensor a = Tensor::FromData({2}, {1, 2}, true);
  NoGradGuard guard;
  Tensor b = Scale(a, 2.0f);
  EXPECT_FALSE(b.requires_grad());
}

// ---- gradient checks for each op ----

TEST(GradCheckTest, Add) {
  util::Rng rng(1);
  Tensor b = RandomTensor({2, 3}, &rng);
  double diff = GradCheck(RandomTensor({2, 3}, &rng), [&](Tensor t) {
    return Sum(Add(t, b));
  });
  EXPECT_LT(diff, 1e-2);
}

TEST(GradCheckTest, MulAndSub) {
  util::Rng rng(2);
  Tensor b = RandomTensor({4}, &rng);
  double diff = GradCheck(RandomTensor({4}, &rng), [&](Tensor t) {
    return Sum(Mul(Sub(t, b), t));
  });
  EXPECT_LT(diff, 1e-2);
}

TEST(GradCheckTest, MatMulLhs) {
  util::Rng rng(3);
  Tensor b = RandomTensor({3, 4}, &rng);
  double diff = GradCheck(RandomTensor({2, 3}, &rng), [&](Tensor t) {
    return Sum(MatMul(t, b));
  });
  EXPECT_LT(diff, 1e-2);
}

TEST(GradCheckTest, MatMulRhs) {
  util::Rng rng(4);
  Tensor a = RandomTensor({2, 3}, &rng);
  double diff = GradCheck(RandomTensor({3, 4}, &rng), [&](Tensor t) {
    return Sum(Tanh(MatMul(a, t)));
  });
  EXPECT_LT(diff, 1e-2);
}

TEST(GradCheckTest, Activations) {
  util::Rng rng(5);
  EXPECT_LT(GradCheck(RandomTensor({5}, &rng),
                      [](Tensor t) { return Sum(Tanh(t)); }),
            1e-2);
  EXPECT_LT(GradCheck(RandomTensor({5}, &rng),
                      [](Tensor t) { return Sum(Sigmoid(t)); }),
            1e-2);
  // Keep values away from the ReLU kink for a clean numeric check.
  Tensor pos = Tensor::FromData({4}, {0.5f, 1.5f, -0.7f, -2.0f});
  EXPECT_LT(GradCheck(pos, [](Tensor t) { return Sum(Relu(t)); }), 1e-2);
}

TEST(GradCheckTest, AddRowVectorBothSides) {
  util::Rng rng(6);
  Tensor m = RandomTensor({3, 4}, &rng);
  Tensor v = RandomTensor({4}, &rng);
  EXPECT_LT(GradCheck(m, [&](Tensor t) { return Sum(AddRowVector(t, v)); }),
            1e-2);
  EXPECT_LT(GradCheck(v, [&](Tensor t) { return Sum(AddRowVector(m, t)); }),
            1e-2);
}

TEST(GradCheckTest, RowwiseDotAndWeightedSum) {
  util::Rng rng(7);
  Tensor x = RandomTensor({3, 4}, &rng);
  Tensor q = RandomTensor({4}, &rng);
  Tensor w = RandomTensor({3}, &rng);
  EXPECT_LT(GradCheck(x, [&](Tensor t) { return Sum(RowwiseDot(t, q)); }),
            1e-2);
  EXPECT_LT(GradCheck(q, [&](Tensor t) { return Sum(RowwiseDot(x, t)); }),
            1e-2);
  EXPECT_LT(
      GradCheck(x, [&](Tensor t) { return Sum(WeightedSumRows(t, w)); }),
      1e-2);
  EXPECT_LT(
      GradCheck(w, [&](Tensor t) { return Sum(WeightedSumRows(x, t)); }),
      1e-2);
}

TEST(GradCheckTest, ConcatAndSlice) {
  util::Rng rng(8);
  Tensor other = RandomTensor({4}, &rng);
  EXPECT_LT(GradCheck(RandomTensor({4}, &rng),
                      [&](Tensor t) {
                        return Sum(Mul(ConcatVec({t, other}),
                                       ConcatVec({other, t})));
                      }),
            1e-2);
  EXPECT_LT(GradCheck(RandomTensor({2, 3}, &rng),
                      [&](Tensor t) {
                        Tensor stacked = ConcatRows({t, t});
                        return Sum(Mul(stacked, stacked));
                      }),
            1e-2);
  EXPECT_LT(GradCheck(RandomTensor({6}, &rng),
                      [](Tensor t) {
                        Tensor s = Slice(t, 1, 3);
                        return Sum(Mul(s, s));
                      }),
            1e-2);
  EXPECT_LT(GradCheck(RandomTensor({3, 4}, &rng),
                      [](Tensor t) {
                        Tensor r = Row(t, 1);
                        return Sum(Mul(r, r));
                      }),
            1e-2);
}

TEST(GradCheckTest, GatherRows) {
  util::Rng rng(9);
  std::vector<int> indices = {2, 0, 2, 1};  // repeated index accumulates
  EXPECT_LT(GradCheck(RandomTensor({3, 4}, &rng),
                      [&](Tensor t) {
                        Tensor g = GatherRows(t, indices);
                        return Sum(Mul(g, g));
                      }),
            1e-2);
}

TEST(GradCheckTest, Reductions) {
  util::Rng rng(10);
  EXPECT_LT(GradCheck(RandomTensor({3, 4}, &rng),
                      [](Tensor t) { return Mean(Mul(t, t)); }),
            1e-2);
  EXPECT_LT(GradCheck(RandomTensor({3, 4}, &rng),
                      [](Tensor t) {
                        Tensor s = SumRows(t);
                        return Sum(Mul(s, s));
                      }),
            1e-2);
  EXPECT_LT(GradCheck(RandomTensor({3, 4}, &rng),
                      [](Tensor t) {
                        Tensor s = MeanRows(t);
                        return Sum(Mul(s, s));
                      }),
            1e-2);
}

TEST(GradCheckTest, MaxOverRows) {
  // Use well-separated values so the argmax is stable under +-eps.
  Tensor x = Tensor::FromData({3, 2}, {1, 9, 5, 2, 3, 4});
  EXPECT_LT(GradCheck(x,
                      [](Tensor t) {
                        Tensor m = MaxOverRows(t);
                        return Sum(Mul(m, m));
                      }),
            1e-2);
}

TEST(GradCheckTest, PiecewiseMaxOverRows) {
  Tensor x = Tensor::FromData({5, 2},
                              {1, 9, 5, 2, 3, 4, 8, 1, 2, 7});
  EXPECT_LT(GradCheck(x,
                      [](Tensor t) {
                        Tensor m = PiecewiseMaxOverRows(t, 2, 4);
                        return Sum(Mul(m, m));
                      }),
            1e-2);
}

TEST(TensorTest, PiecewiseMaxEmptySegmentIsZero) {
  Tensor x = Tensor::FromData({3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor out = PiecewiseMaxOverRows(x, 0, 2);  // first segment empty
  ASSERT_EQ(out.size(), 6u);
  EXPECT_FLOAT_EQ(out.at(0), 0.0f);
  EXPECT_FLOAT_EQ(out.at(1), 0.0f);
  EXPECT_FLOAT_EQ(out.at(2), 3.0f);  // max of rows 0..1, col 0
  EXPECT_FLOAT_EQ(out.at(4), 5.0f);  // row 2, col 0
}

TEST(GradCheckTest, SoftmaxAndLogSoftmax) {
  util::Rng rng(11);
  Tensor q = RandomTensor({4}, &rng);
  EXPECT_LT(GradCheck(RandomTensor({2, 4}, &rng),
                      [&](Tensor t) {
                        Tensor s = Softmax(t);
                        return Sum(Mul(s, s));
                      }),
            1e-2);
  EXPECT_LT(GradCheck(RandomTensor({2, 4}, &rng),
                      [&](Tensor t) {
                        Tensor s = LogSoftmax(t);
                        return Sum(Mul(s, s));
                      }),
            2e-2);
}

TEST(TensorTest, SoftmaxRowsSumToOne) {
  util::Rng rng(12);
  Tensor x = RandomTensor({3, 5}, &rng, 3.0f);
  Tensor s = Softmax(x);
  for (int r = 0; r < 3; ++r) {
    float sum = 0;
    for (int c = 0; c < 5; ++c) {
      EXPECT_GE(s.at(r, c), 0.0f);
      sum += s.at(r, c);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5);
  }
}

TEST(GradCheckTest, CrossEntropy) {
  util::Rng rng(13);
  std::vector<int> labels = {1, 0, 3};
  EXPECT_LT(GradCheck(RandomTensor({3, 4}, &rng),
                      [&](Tensor t) {
                        return CrossEntropyLoss(t, labels);
                      }),
            1e-2);
}

TEST(TensorTest, CrossEntropyOfUniformLogits) {
  Tensor logits = Tensor::Zeros({2, 4});
  Tensor loss = CrossEntropyLoss(logits, {0, 3});
  EXPECT_NEAR(loss.item(), std::log(4.0f), 1e-5);
}

TEST(GradCheckTest, Conv1dSameAllInputs) {
  util::Rng rng(14);
  const int window = 3, dim = 3, filters = 2, time = 4;
  Tensor x = RandomTensor({time, dim}, &rng);
  Tensor w = RandomTensor({filters, window * dim}, &rng);
  Tensor b = RandomTensor({filters}, &rng);
  EXPECT_LT(GradCheck(x,
                      [&](Tensor t) {
                        return Sum(Tanh(Conv1dSame(t, w, b, window)));
                      }),
            2e-2);
  EXPECT_LT(GradCheck(w,
                      [&](Tensor t) {
                        return Sum(Tanh(Conv1dSame(x, t, b, window)));
                      }),
            2e-2);
  EXPECT_LT(GradCheck(b,
                      [&](Tensor t) {
                        return Sum(Tanh(Conv1dSame(x, w, t, window)));
                      }),
            2e-2);
}

TEST(TensorTest, Conv1dShapeAndPadding) {
  // Single filter summing the window over a 1-dim input: verifies padding.
  Tensor x = Tensor::FromData({4, 1}, {1, 2, 3, 4});
  Tensor w = Tensor::FromData({1, 3}, {1, 1, 1});
  Tensor b = Tensor::Zeros({1});
  Tensor out = Conv1dSame(x, w, b, 3);
  ASSERT_EQ(out.shape(), (std::vector<int>{4, 1}));
  EXPECT_FLOAT_EQ(out.at(0, 0), 3.0f);   // 0+1+2
  EXPECT_FLOAT_EQ(out.at(1, 0), 6.0f);   // 1+2+3
  EXPECT_FLOAT_EQ(out.at(3, 0), 7.0f);   // 3+4+0
}

TEST(TensorTest, DropoutTrainAndEval) {
  util::Rng rng(15);
  Tensor x = Tensor::Full({1000}, 1.0f, true);
  Tensor dropped = Dropout(x, 0.5f, &rng, /*training=*/true);
  int zeros = 0;
  double sum = 0;
  for (float v : dropped.data()) {
    if (v == 0.0f)
      ++zeros;
    else
      EXPECT_FLOAT_EQ(v, 2.0f);  // inverted dropout scaling
    sum += v;
  }
  EXPECT_GT(zeros, 400);
  EXPECT_LT(zeros, 600);
  EXPECT_NEAR(sum / 1000.0, 1.0, 0.15);  // expectation preserved

  Tensor same = Dropout(x, 0.5f, &rng, /*training=*/false);
  EXPECT_EQ(same.impl().get(), x.impl().get());
}

TEST(GradCheckTest, ScaleAndAddScalar) {
  util::Rng rng(16);
  EXPECT_LT(GradCheck(RandomTensor({5}, &rng),
                      [](Tensor t) { return Sum(Scale(t, -2.5f)); }),
            1e-2);
  EXPECT_LT(GradCheck(RandomTensor({5}, &rng),
                      [](Tensor t) {
                        return Sum(Mul(AddScalar(t, 3.0f), t));
                      }),
            1e-2);
}

TEST(GradCheckTest, ScaleByScalarTensorBothInputs) {
  util::Rng rng(17);
  Tensor s = Tensor::Scalar(1.7f);
  EXPECT_LT(GradCheck(RandomTensor({6}, &rng),
                      [&](Tensor t) {
                        return Sum(Mul(ScaleByScalarTensor(t, s), t));
                      }),
            1e-2);
  Tensor x = RandomTensor({6}, &rng);
  EXPECT_LT(GradCheck(Tensor::Scalar(0.8f),
                      [&](Tensor t) {
                        Tensor y = ScaleByScalarTensor(x, t);
                        return Sum(Mul(y, y));
                      }),
            2e-2);
}

TEST(TensorTest, ConcatColsLayout) {
  Tensor a = Tensor::FromData({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::FromData({2, 1}, {5, 6});
  Tensor c = ConcatCols({a, b});
  ASSERT_EQ(c.shape(), (std::vector<int>{2, 3}));
  EXPECT_FLOAT_EQ(c.at(0, 2), 5.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 3.0f);
  EXPECT_FLOAT_EQ(c.at(1, 2), 6.0f);
}

TEST(GradCheckTest, ConcatCols) {
  util::Rng rng(18);
  Tensor other = RandomTensor({3, 2}, &rng);
  EXPECT_LT(GradCheck(RandomTensor({3, 4}, &rng),
                      [&](Tensor t) {
                        Tensor c = ConcatCols({t, other});
                        return Sum(Mul(c, c));
                      }),
            1e-2);
}

TEST(TensorTest, ReshapeGradFlows) {
  Tensor x = Tensor::FromData({2, 3}, {1, 2, 3, 4, 5, 6}, true);
  Tensor y = Reshape(x, {6});
  Sum(Mul(y, y)).Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 2.0f);
  EXPECT_FLOAT_EQ(x.grad()[5], 12.0f);
}

// ---- thread-count determinism ---------------------------------------------
//
// The parallel kernels promise BIT-identical outputs and gradients at any
// --imr_threads value (every output element's float accumulation sequence
// is independent of chunk boundaries), so these compare with EXPECT_EQ on
// raw float vectors — no tolerance.

struct MatMulRun {
  std::vector<float> out, ga, gb;
};

MatMulRun RunMatMul(int threads, const std::vector<float>& adata,
                    const std::vector<float>& bdata, int rows, int inner,
                    int cols) {
  util::SetGlobalThreads(threads);
  Tensor a = Tensor::FromData({rows, inner}, adata, true);
  Tensor b = Tensor::FromData({inner, cols}, bdata, true);
  Tensor out = MatMul(a, b);
  Sum(out).Backward();
  util::SetGlobalThreads(0);
  return {out.data(), a.grad(), b.grad()};
}

TEST(ThreadedKernelsTest, MatMulBitIdenticalAcrossThreadCounts) {
  // 48x40x56 is above the parallel/packing thresholds, so the blocked
  // packed-transpose kernels run (over a 4-thread pool in the N=4 case).
  const int rows = 48, inner = 40, cols = 56;
  util::Rng rng(77);
  std::vector<float> adata(static_cast<size_t>(rows) * inner);
  std::vector<float> bdata(static_cast<size_t>(inner) * cols);
  for (float& v : adata) v = static_cast<float>(rng.Normal());
  for (float& v : bdata) v = static_cast<float>(rng.Normal());
  // Some exact zeros to exercise the sparse skip on every path.
  for (size_t i = 0; i < adata.size(); i += 13) adata[i] = 0.0f;

  const MatMulRun one = RunMatMul(1, adata, bdata, rows, inner, cols);
  const MatMulRun four = RunMatMul(4, adata, bdata, rows, inner, cols);
  const MatMulRun eight = RunMatMul(8, adata, bdata, rows, inner, cols);
  EXPECT_EQ(one.out, four.out);
  EXPECT_EQ(one.ga, four.ga);
  EXPECT_EQ(one.gb, four.gb);
  EXPECT_EQ(one.out, eight.out);
  EXPECT_EQ(one.ga, eight.ga);
  EXPECT_EQ(one.gb, eight.gb);
}

struct ConvRun {
  std::vector<float> out, gx, gw, gb;
};

ConvRun RunConv(int threads, const std::vector<float>& xdata,
                const std::vector<float>& wdata,
                const std::vector<float>& bdata, int time, int dim,
                int filters, int window) {
  util::SetGlobalThreads(threads);
  Tensor x = Tensor::FromData({time, dim}, xdata, true);
  Tensor w = Tensor::FromData({filters, window * dim}, wdata, true);
  Tensor b = Tensor::FromData({filters}, bdata, true);
  Tensor out = Conv1dSame(x, w, b, window);
  Sum(out).Backward();
  util::SetGlobalThreads(0);
  return {out.data(), x.grad(), w.grad(), b.grad()};
}

TEST(ThreadedKernelsTest, Conv1dSameBitIdenticalAcrossThreadCounts) {
  const int time = 40, dim = 16, filters = 32, window = 3;
  util::Rng rng(78);
  std::vector<float> xdata(static_cast<size_t>(time) * dim);
  std::vector<float> wdata(static_cast<size_t>(filters) * window * dim);
  std::vector<float> bdata(static_cast<size_t>(filters));
  for (float& v : xdata) v = static_cast<float>(rng.Normal());
  for (float& v : wdata) v = static_cast<float>(rng.Normal()) * 0.1f;
  for (float& v : bdata) v = static_cast<float>(rng.Normal()) * 0.01f;

  const ConvRun one = RunConv(1, xdata, wdata, bdata, time, dim, filters,
                              window);
  const ConvRun four = RunConv(4, xdata, wdata, bdata, time, dim, filters,
                               window);
  EXPECT_EQ(one.out, four.out);
  EXPECT_EQ(one.gx, four.gx);
  EXPECT_EQ(one.gw, four.gw);
  EXPECT_EQ(one.gb, four.gb);
}

TEST(ThreadedKernelsTest, ScopedGradSinkCapturesLeafGrads) {
  std::vector<std::unique_ptr<internal::ScopedGradSink>> sinks;
  sinks.push_back(std::make_unique<internal::ScopedGradSink>());
  internal::ScopedGradSink& sink = *sinks[0];
  Tensor a = Tensor::FromData({2, 2}, {1, 2, 3, 4}, true);
  Tensor b = Tensor::FromData({2, 2}, {5, 6, 7, 8}, true);
  Sum(Mul(a, b)).Backward();
  sink.Deactivate();
  // The shared grads stay untouched until the merge.
  EXPECT_TRUE(a.grad().empty() ||
              a.grad() == std::vector<float>(4, 0.0f));
  ASSERT_EQ(sink.entries().size(), 2u);
  internal::ScopedGradSink::MergeIntoShared(sinks);
  EXPECT_EQ(a.grad(), b.data());
  EXPECT_EQ(b.grad(), a.data());
}

}  // namespace
}  // namespace imr::tensor
