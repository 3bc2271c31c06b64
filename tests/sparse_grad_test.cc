// Row-sparse gradient path: touched-row bookkeeping in GatherRows'
// backward, dense-fallback transitions, sparse==dense bit-identity for all
// three optimizers (including Adam's lazy per-row catch-up), thread-count
// invariance through the ScopedGradSink merge, gradcheck with duplicate
// indices, the zero-dense-scan steady-state guarantee, and the satellite
// fixes (double beta-power Adam bias, in-place Embedding::SetWeights).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "nn/gradcheck.h"
#include "nn/init.h"
#include "nn/layers.h"
#include "nn/module.h"
#include "nn/optimizer.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace imr {
namespace {

using tensor::Tensor;

// Embedding-fronted classifier exercising the full sparse lifecycle:
// gather -> fused affine+tanh -> linear head -> cross-entropy.
struct EmbedModel : nn::Module {
  EmbedModel(int vocab, util::Rng* rng)
      : embed(vocab, 8, rng), hidden(8, 6, rng), out(6, 3, rng) {
    RegisterChild("embed", &embed);
    RegisterChild("hidden", &hidden);
    RegisterChild("out", &out);
  }
  nn::Embedding embed;
  nn::Linear hidden;
  nn::Linear out;
};

void RunStep(EmbedModel* model, const std::vector<int>& indices,
             const std::vector<int>& labels) {
  Tensor emb = model->embed.Forward(indices);
  Tensor h = model->hidden.ForwardTanh(emb);
  Tensor logits = model->out.Forward(h);
  tensor::CrossEntropyLoss(logits, labels).Backward();
}

std::vector<std::vector<float>> ParamValues(nn::Module* module) {
  std::vector<std::vector<float>> values;
  for (nn::NamedParameter& p : module->Parameters())
    values.push_back(p.tensor.data());
  return values;
}

// A varied index schedule: row 5 every step, a rotating window, and long
// gaps for high rows so Adam's lazy catch-up has real work to do.
std::vector<int> ScheduleIndices(int step, int vocab) {
  std::vector<int> indices = {5, (3 * step) % vocab, (3 * step + 1) % vocab,
                              (7 * step + 2) % vocab};
  if (step % 4 == 0) indices.push_back(vocab - 1 - (step % 3));
  return indices;
}

// Trains two identical models — one with the embedding table row-sparse
// (as constructed), one forced dense — through `make_optimizer` and
// demands bit-identical parameters after Finalize().
void ExpectSparseMatchesDense(
    const std::function<std::unique_ptr<nn::Optimizer>(nn::Module*)>&
        make_optimizer,
    int steps = 12) {
  constexpr int kVocab = 40;
  auto run = [&](bool sparse) {
    util::Rng rng(1234);  // same seed: identical initialization
    EmbedModel model(kVocab, &rng);
    if (!sparse) {
      for (nn::NamedParameter& p : model.Parameters())
        p.tensor.set_row_sparse_grad(false);
    }
    std::unique_ptr<nn::Optimizer> opt = make_optimizer(&model);
    for (int step = 0; step < steps; ++step) {
      model.ZeroGrad();
      const std::vector<int> indices = ScheduleIndices(step, kVocab);
      std::vector<int> labels(indices.size());
      for (size_t i = 0; i < labels.size(); ++i)
        labels[i] = static_cast<int>((i + step) % 3);
      RunStep(&model, indices, labels);
      opt->Step();
    }
    opt->Finalize();
    return ParamValues(&model);
  };
  const auto sparse = run(true);
  const auto dense = run(false);
  ASSERT_EQ(sparse.size(), dense.size());
  for (size_t p = 0; p < sparse.size(); ++p)
    EXPECT_EQ(sparse[p], dense[p]) << "parameter " << p;
}

TEST(SparseGradTest, GatherRowsRecordsSortedUniqueTouchedRows) {
  util::Rng rng(7);
  EmbedModel model(20, &rng);
  const Tensor& table = model.embed.table();
  ASSERT_TRUE(table.row_sparse_grad());

  RunStep(&model, {7, 3, 7, 11, 3}, {0, 1, 2, 0, 1});
  ASSERT_TRUE(table.grad_is_row_sparse());
  EXPECT_EQ(table.grad_touched_rows(), (std::vector<int>{3, 7, 11}));

  // Rows outside the touched set hold exact zeros; touched rows received
  // gradient (duplicates accumulate into one row).
  const auto& grad = table.grad();
  ASSERT_EQ(grad.size(), table.size());
  const int cols = table.cols();
  for (int r = 0; r < table.rows(); ++r) {
    bool touched = r == 3 || r == 7 || r == 11;
    float sum_abs = 0.0f;
    for (int c = 0; c < cols; ++c)
      sum_abs += std::fabs(grad[static_cast<size_t>(r) * cols + c]);
    if (touched) {
      EXPECT_GT(sum_abs, 0.0f) << "row " << r;
    } else {
      EXPECT_EQ(sum_abs, 0.0f) << "row " << r;
    }
  }

  model.ZeroGrad();
  EXPECT_TRUE(table.grad_touched_rows().empty());
  for (float g : table.grad()) EXPECT_EQ(g, 0.0f);
}

TEST(SparseGradTest, DenseWriteFallsBackUntilZeroGrad) {
  util::Rng rng(8);
  EmbedModel model(10, &rng);
  Tensor table = model.embed.table();

  RunStep(&model, {1, 2}, {0, 1});
  EXPECT_TRUE(table.grad_is_row_sparse());

  tensor::ResetSparseGradStats();
  table.mutable_grad();  // untracked dense write: fallback for the step
  EXPECT_FALSE(table.grad_is_row_sparse());
  EXPECT_TRUE(table.row_sparse_grad());  // capability is not lost
  EXPECT_EQ(tensor::SparseGradStats().dense_fallbacks, 1u);

  model.ZeroGrad();
  RunStep(&model, {1, 2}, {0, 1});
  EXPECT_TRUE(table.grad_is_row_sparse());  // recovered after ZeroGrad
}

TEST(SparseGradTest, SgdWithClipNormBitIdenticalToDense) {
  ExpectSparseMatchesDense([](nn::Module* m) {
    return std::make_unique<nn::Sgd>(m, 0.3f, /*weight_decay=*/0.0f,
                                     /*clip_norm=*/1.0f);
  });
}

TEST(SparseGradTest, SgdWeightDecayFallsBackDenseAndStaysIdentical) {
  ExpectSparseMatchesDense([](nn::Module* m) {
    return std::make_unique<nn::Sgd>(m, 0.3f, /*weight_decay=*/0.01f,
                                     /*clip_norm=*/0.0f);
  });
  // Weight decay must be counted as a dense fallback, not silently sparse.
  util::Rng rng(9);
  EmbedModel model(16, &rng);
  nn::Sgd opt(&model, 0.1f, /*weight_decay=*/0.01f);
  model.ZeroGrad();
  RunStep(&model, {1, 2, 3}, {0, 1, 2});
  tensor::ResetSparseGradStats();
  opt.Step();
  const auto stats = tensor::SparseGradStats();
  EXPECT_EQ(stats.dense_fallbacks, 1u);
  EXPECT_EQ(stats.rows_touched, stats.rows_total);
}

TEST(SparseGradTest, AdagradBitIdenticalToDense) {
  ExpectSparseMatchesDense(
      [](nn::Module* m) { return std::make_unique<nn::Adagrad>(m, 0.1f); });
}

TEST(SparseGradTest, AdamLazyCatchUpBitIdenticalToDense) {
  // The schedule leaves rows untouched for multiple steps; dense Adam
  // decays their m/v every step, sparse Adam replays the skipped decay on
  // re-touch (and Finalize() catches up never-again-touched rows).
  ExpectSparseMatchesDense(
      [](nn::Module* m) { return std::make_unique<nn::Adam>(m, 0.01f); },
      /*steps=*/17);
}

TEST(SparseGradTest, AdamFinalizeIsIdempotent) {
  util::Rng rng(10);
  EmbedModel model(12, &rng);
  nn::Adam opt(&model, 0.01f);
  for (int step = 0; step < 3; ++step) {
    model.ZeroGrad();
    RunStep(&model, {1, 2 + step}, {0, 1});
    opt.Step();
  }
  opt.Finalize();
  const auto once = ParamValues(&model);
  opt.Finalize();
  EXPECT_EQ(ParamValues(&model), once);
}

TEST(SparseGradTest, SinkMergeBitIdenticalAcrossThreadCountsAndToDense) {
  // Mirrors the trainer's data-parallel pass: a fixed chunk count, one
  // ScopedGradSink per chunk, ascending-order merge. The merged gradient
  // must be bit-identical across worker counts AND to the same pass run
  // with the embedding forced dense.
  constexpr int kVocab = 30;
  constexpr int64_t kChunks = 4;
  const std::vector<int> all_indices = {3, 9, 3, 14, 9,  22, 5, 5,
                                        1, 7, 8, 29, 14, 2,  6, 17};
  const int64_t n = static_cast<int64_t>(all_indices.size());
  const int64_t grain = (n + kChunks - 1) / kChunks;

  const int saved_threads = util::GlobalThreads();
  auto run = [&](int threads, bool sparse) {
    util::SetGlobalThreads(threads);
    util::Rng rng(77);
    EmbedModel model(kVocab, &rng);
    if (!sparse) {
      for (nn::NamedParameter& p : model.Parameters())
        p.tensor.set_row_sparse_grad(false);
    }
    model.ZeroGrad();
    std::vector<std::unique_ptr<tensor::internal::ScopedGradSink>> sinks(
        static_cast<size_t>(
            util::ThreadPool::NumChunks(0, n, grain)));
    util::GlobalPool().ParallelForChunks(
        0, n, grain, [&](int64_t lo, int64_t hi, int64_t chunk) {
          sinks[static_cast<size_t>(chunk)] =
              std::make_unique<tensor::internal::ScopedGradSink>();
          struct Guard {
            tensor::internal::ScopedGradSink* sink;
            ~Guard() { sink->Deactivate(); }
          } guard{sinks[static_cast<size_t>(chunk)].get()};
          std::vector<int> indices(
              all_indices.begin() + static_cast<long>(lo),
              all_indices.begin() + static_cast<long>(hi));
          std::vector<int> labels(indices.size());
          for (size_t i = 0; i < labels.size(); ++i)
            labels[i] = static_cast<int>(i % 3);
          RunStep(&model, indices, labels);
        });
    tensor::internal::ScopedGradSink::MergeIntoShared(sinks);
    struct Result {
      std::vector<float> grad;
      std::vector<int> touched;
      bool sparse;
    };
    const Tensor& table = model.embed.table();
    return Result{table.grad(), table.grad_touched_rows(),
                  table.grad_is_row_sparse()};
  };

  const auto sparse2 = run(2, true);
  const auto sparse4 = run(4, true);
  const auto dense2 = run(2, false);
  util::SetGlobalThreads(saved_threads);

  EXPECT_TRUE(sparse2.sparse);
  EXPECT_EQ(sparse2.grad, sparse4.grad);
  EXPECT_EQ(sparse2.touched, sparse4.touched);
  EXPECT_EQ(sparse2.grad, dense2.grad);
  // The merged touched set is the sorted union of the chunks' rows.
  EXPECT_EQ(sparse2.touched,
            (std::vector<int>{1, 2, 3, 5, 6, 7, 8, 9, 14, 17, 22, 29}));
}

// Bit patterns of every parameter, so -0.0f and +0.0f differ.
std::vector<std::vector<uint32_t>> ParamBits(nn::Module* module) {
  std::vector<std::vector<uint32_t>> bits;
  for (const std::vector<float>& values : ParamValues(module)) {
    std::vector<uint32_t> row;
    for (float v : values) row.push_back(std::bit_cast<uint32_t>(v));
    bits.push_back(std::move(row));
  }
  return bits;
}

TEST(SparseGradTest, ConcurrentLazyAdamReplayMatchesSequential) {
  // Four pool threads fire Adam's row-replay hook at once, on overlapping
  // rows (and duplicates), after rounds of steps that skip most rows. The
  // values after each replay, and after two steps over every row (whose
  // updates read each row's m and v), must equal the bits of a run that
  // replays on one thread. The last steps cover enough floats to run
  // Adam's update blocks on the pool.
  constexpr int kVocab = 1200;
  constexpr int64_t kChunks = 4;
  const int saved_threads = util::GlobalThreads();
  auto run = [&](int threads) {
    util::SetGlobalThreads(threads);
    util::Rng rng(4321);
    EmbedModel model(kVocab, &rng);
    nn::Adam adam(&model, 0.05f);
    std::vector<std::vector<std::vector<uint32_t>>> snapshots;
    for (int round = 0; round < 3; ++round) {
      for (int step = 0; step < 12; ++step) {
        model.ZeroGrad();
        const std::vector<int> indices =
            ScheduleIndices(12 * round + step, kVocab);
        std::vector<int> labels(indices.size());
        for (size_t i = 0; i < labels.size(); ++i)
          labels[i] = static_cast<int>((i + step) % 3);
        RunStep(&model, indices, labels);
        adam.Step();
      }
      util::GlobalPool().ParallelForChunks(
          0, kChunks, 1, [&](int64_t, int64_t, int64_t chunk) {
            std::vector<int> rows;
            for (int k = 0; k < kVocab / 2; ++k) {
              rows.push_back((static_cast<int>(chunk) * (kVocab / 4) + k) %
                             kVocab);
            }
            rows.push_back(rows.front());
            tensor::NoGradGuard no_grad;
            tensor::GatherRows(model.embed.table(), rows);
          });
      snapshots.push_back(ParamBits(&model));
    }
    std::vector<int> all(kVocab);
    for (int r = 0; r < kVocab; ++r) all[static_cast<size_t>(r)] = r;
    std::vector<int> labels(all.size());
    for (size_t i = 0; i < labels.size(); ++i)
      labels[i] = static_cast<int>(i % 3);
    for (int step = 0; step < 2; ++step) {
      model.ZeroGrad();
      RunStep(&model, all, labels);
      adam.Step();
    }
    snapshots.push_back(ParamBits(&model));
    return snapshots;
  };
  const auto sequential = run(1);
  const auto concurrent = run(4);
  util::SetGlobalThreads(saved_threads);
  ASSERT_EQ(sequential.size(), concurrent.size());
  for (size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_EQ(sequential[i], concurrent[i]) << "snapshot " << i;
  }
}

TEST(SparseGradTest, SixteenSinkMergeMatchesOneByOneMerges) {
  // One MergeIntoShared over 16 sinks filled on pool threads: a dense
  // matrix and bias in every sink, two tables with overlapping touched
  // rows, and one dense fallback (table b in sink 9). Its bits, touched
  // rows and sparsity flags must equal merging the sinks one at a time, at
  // four threads (the adds then run on the pool) and at one. Contributions
  // span many binades, so any change in summation order shows in the bits.
  constexpr int64_t kSinks = 16;
  constexpr int kFallbackSink = 9;
  const int saved_threads = util::GlobalThreads();
  util::SetGlobalThreads(4);
  util::Rng init(99);
  auto leaf = [&](std::vector<int> shape) {
    Tensor t = nn::UniformInit(std::move(shape), 1.0f, &init);
    t.set_requires_grad(true);
    return t;
  };
  Tensor dense = leaf({64, 96});
  Tensor bias = leaf({96});
  Tensor table_a = leaf({300, 8});
  Tensor table_b = leaf({200, 8});
  table_a.set_row_sparse_grad(true);
  table_b.set_row_sparse_grad(true);
  auto scaled = [](util::Rng* rng, std::vector<int> shape) {
    size_t n = 1;
    for (int d : shape) n *= static_cast<size_t>(d);
    std::vector<float> values(n);
    for (float& v : values) {
      v = std::ldexp(static_cast<float>(rng->Normal()),
                     static_cast<int>(rng->UniformInt(40)) - 20);
    }
    return Tensor::FromData(std::move(shape), std::move(values));
  };
  std::vector<std::unique_ptr<tensor::internal::ScopedGradSink>> sinks(
      static_cast<size_t>(kSinks));
  std::vector<std::vector<int>> rows_a(static_cast<size_t>(kSinks));
  util::GlobalPool().ParallelForChunks(
      0, kSinks, 1, [&](int64_t, int64_t, int64_t chunk) {
        const auto c = static_cast<size_t>(chunk);
        sinks[c] = std::make_unique<tensor::internal::ScopedGradSink>();
        struct Guard {
          tensor::internal::ScopedGradSink* sink;
          ~Guard() { sink->Deactivate(); }
        } guard{sinks[c].get()};
        util::Rng rng(1000 + c);
        std::vector<int> rows_b;
        for (int k = 0; k < 40; ++k) {
          rows_a[c].push_back(static_cast<int>(10 * chunk) +
                              static_cast<int>(rng.UniformInt(120)));
          rows_b.push_back(static_cast<int>(rng.UniformInt(200)));
        }
        Tensor loss = tensor::Add(
            tensor::Sum(tensor::Mul(dense, scaled(&rng, {64, 96}))),
            tensor::Sum(tensor::Mul(bias, scaled(&rng, {96}))));
        loss = tensor::Add(
            loss, tensor::Sum(tensor::Mul(tensor::GatherRows(table_a, rows_a[c]),
                                          scaled(&rng, {40, 8}))));
        loss = tensor::Add(
            loss, tensor::Sum(tensor::Mul(tensor::GatherRows(table_b, rows_b),
                                          scaled(&rng, {40, 8}))));
        if (chunk == kFallbackSink) {
          loss = tensor::Add(
              loss, tensor::Sum(tensor::Mul(table_b, scaled(&rng, {200, 8}))));
        }
        loss.Backward();
      });
  struct Merged {
    std::vector<std::vector<uint32_t>> grads;
    std::vector<std::vector<int>> touched;
    std::vector<bool> sparse;
  };
  const std::vector<Tensor*> leaves = {&dense, &bias, &table_a, &table_b};
  auto merged = [&](const std::function<void()>& merge) {
    for (Tensor* t : leaves) t->ZeroGrad();
    merge();
    Merged out;
    for (Tensor* t : leaves) {
      std::vector<uint32_t> bits;
      for (float v : t->grad()) bits.push_back(std::bit_cast<uint32_t>(v));
      out.grads.push_back(std::move(bits));
      out.touched.push_back(t->grad_touched_rows());
      out.sparse.push_back(t->grad_is_row_sparse());
    }
    return out;
  };
  using Sink = tensor::internal::ScopedGradSink;
  const Merged one_by_one = merged([&] {
    for (const auto& sink : sinks) Sink::MergeIntoShared({&sink, 1});
  });
  const Merged pooled = merged([&] { Sink::MergeIntoShared(sinks); });
  util::SetGlobalThreads(1);
  const Merged inline_adds = merged([&] { Sink::MergeIntoShared(sinks); });
  util::SetGlobalThreads(saved_threads);
  for (const Merged* m : {&pooled, &inline_adds}) {
    EXPECT_EQ(m->grads, one_by_one.grads);
    EXPECT_EQ(m->touched, one_by_one.touched);
    EXPECT_EQ(m->sparse, one_by_one.sparse);
  }
  std::vector<int> union_a;
  for (const std::vector<int>& rows : rows_a) {
    union_a.insert(union_a.end(), rows.begin(), rows.end());
  }
  std::sort(union_a.begin(), union_a.end());
  union_a.erase(std::unique(union_a.begin(), union_a.end()), union_a.end());
  EXPECT_EQ(pooled.touched[2], union_a);
  EXPECT_EQ(pooled.sparse, (std::vector<bool>{false, false, true, false}));
}

TEST(SparseGradTest, GradCheckGatherRowsWithDuplicateIndices) {
  util::Rng rng(11);
  EmbedModel model(15, &rng);
  // Duplicates make GatherRows' backward accumulate several slices into
  // one row — the numerical check validates the sparse scatter-add.
  const std::vector<int> indices = {4, 4, 9, 2, 9, 4};
  const std::vector<int> labels = {0, 1, 2, 0, 1, 2};
  auto result = nn::CheckModuleGradients(&model, [&] {
    Tensor emb = model.embed.Forward(indices);
    Tensor h = model.hidden.ForwardTanh(emb);
    return tensor::CrossEntropyLoss(model.out.Forward(h), labels);
  });
  EXPECT_LT(result.max_abs_diff, 2e-2)
      << "worst: " << result.worst_parameter << "[" << result.worst_index
      << "]";
}

TEST(SparseGradTest, ZeroDenseScanSteadyStateTrainingStep) {
  // Mirrors BufferPoolTest.ZeroMissSteadyStateTrainingStep: once warmed
  // up, an embedding-dominated training step must consume the table's
  // gradient sparsely every step — zero dense full-table scans.
  constexpr int kVocab = 50;
  util::Rng rng(12);
  EmbedModel model(kVocab, &rng);
  nn::Sgd opt(&model, 0.1f, /*weight_decay=*/0.0f, /*clip_norm=*/5.0f);
  const std::vector<int> indices = {1, 4, 7, 2, 9, 30};
  const std::vector<int> labels = {0, 2, 1, 0, 1, 2};
  auto step = [&] {
    model.ZeroGrad();
    RunStep(&model, indices, labels);
    opt.Step();
  };
  for (int i = 0; i < 3; ++i) step();
  tensor::ResetSparseGradStats();
  for (int i = 0; i < 5; ++i) step();
  const auto stats = tensor::SparseGradStats();
  EXPECT_EQ(stats.dense_fallbacks, 0u);
  EXPECT_EQ(stats.rows_total, 5u * kVocab);
  EXPECT_EQ(stats.rows_touched, 5u * 6u);  // six unique rows per step
}

TEST(SparseGradTest, AdamBiasCorrectionStableAt10kSteps) {
  // Regression for the float std::pow(beta, step) bias correction: pin the
  // optimizer against a reference loop that maintains running double
  // beta-power products, out to step 10k. The float-pow form drifts from
  // this reference long before that.
  util::Rng rng(13);
  nn::Linear layer(2, 2, &rng);
  const float lr = 0.01f, beta1 = 0.9f, beta2 = 0.999f, eps = 1e-8f;
  nn::Adam opt(&layer, lr, beta1, beta2, eps);

  std::vector<nn::NamedParameter> params = layer.Parameters();
  std::vector<std::vector<float>> ref_v, m, s;
  for (nn::NamedParameter& p : params) {
    ref_v.push_back(p.tensor.data());
    m.emplace_back(p.tensor.size(), 0.0f);
    s.emplace_back(p.tensor.size(), 0.0f);
  }
  double beta1_pow = 1.0, beta2_pow = 1.0;
  util::Rng grad_rng(14);
  for (int step = 1; step <= 10000; ++step) {
    // Synthetic but varying gradients, shared by optimizer and reference.
    std::vector<std::vector<float>> grads;
    for (nn::NamedParameter& p : params) {
      std::vector<float>& g = p.tensor.mutable_grad();
      for (float& gv : g) gv = static_cast<float>(grad_rng.Uniform(-1.0, 1.0));
      grads.push_back(g);
    }
    beta1_pow *= static_cast<double>(beta1);
    beta2_pow *= static_cast<double>(beta2);
    const float bias1 = static_cast<float>(1.0 - beta1_pow);
    const float bias2 = static_cast<float>(1.0 - beta2_pow);
    for (size_t p = 0; p < ref_v.size(); ++p) {
      for (size_t i = 0; i < ref_v[p].size(); ++i) {
        const float g = grads[p][i];
        m[p][i] = beta1 * m[p][i] + (1.0f - beta1) * g;
        s[p][i] = beta2 * s[p][i] + (1.0f - beta2) * g * g;
        const float m_hat = m[p][i] / bias1;
        const float v_hat = s[p][i] / bias2;
        ref_v[p][i] -= lr * m_hat / (std::sqrt(v_hat) + eps);
      }
    }
    opt.Step();
    if (step == 1 || step == 100 || step == 1000 || step == 10000) {
      for (size_t p = 0; p < params.size(); ++p)
        ASSERT_EQ(params[p].tensor.data(), ref_v[p])
            << "step " << step << " param " << p;
    }
  }
  // The bias term is still strictly inside (0, 1): the running double
  // product has not collapsed to 0 or overshot.
  EXPECT_GT(beta2_pow, 0.0);
  EXPECT_LT(beta2_pow, 1.0);
}

TEST(SparseGradTest, SetWeightsCopiesInPlace) {
  util::Rng rng(15);
  nn::Embedding embed(6, 4, &rng);
  Tensor table = embed.table();
  const float* storage = table.data().data();
  std::vector<float> values(24);
  for (size_t i = 0; i < values.size(); ++i)
    values[i] = static_cast<float>(i) * 0.5f;
  ASSERT_TRUE(embed.SetWeights(values).ok());
  EXPECT_EQ(table.data(), values);
  // Same storage: pooled capacity and the data pointer survive the load.
  EXPECT_EQ(table.data().data(), storage);
  EXPECT_FALSE(embed.SetWeights(std::vector<float>(7)).ok());
}

}  // namespace
}  // namespace imr
