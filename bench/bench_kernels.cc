// Kernel-level benchmark for the allocation-free hot path: per-op
// ns/element, buffer-pool acquisitions per step, fused-vs-unfused kernel
// times, pooled-vs-unpooled training-step times, and row-sparse vs dense
// embedding-step times over NYT-preset vocab sizes. Results go to
// bench_results/BENCH_kernels.json + bench_results/BENCH_sparse.json (and a
// human-readable table on stdout).
//
// It also runs the interleaved simd-vs-scalar A/B: every compiled vector
// backend is pinned via ScopedEvalBackend and timed against the scalar
// reference on the same bodies (tanh, add, mul, matmul forward,
// log-softmax), alternating short segments so both variants sample the
// same machine load. Results go to bench_results/BENCH_simd.json; on a
// host with no vector ISA the A/B runs scalar-vs-scalar and records
// parity instead of failing.
//
// The conv A/B times tensor::Conv1dSame per backend against the scalar
// pin the same way, forward (eval) and a training step (forward, piecewise
// max pool, backward), weight packing included, at the benchmark's encoder
// dims and the paper's Table III dims. Results go to
// bench_results/BENCH_conv.json.
//
// The PA-TMR step runs the real data-parallel training step
// (bench/pa_step.h: re::Trainer, PCNN + ATT + MR + T at the benchmark's
// encoder dims, batch 32) on four global threads and records its
// steady-state pool misses and pooled bytes per step, twice: on one batch
// of 32 bags that share one bag's sentences, so every chunk has the same
// working set, and on 96 distinct training bags reshuffled every epoch,
// where a thread's working set changes from batch to batch. It also runs
// the equal-shape batch through the sequential step (one thread). Each run
// records its graph-node and float-buffer acquisitions per batch (report
// only).
//
// Modes:
//   bench_kernels            full sizes, writes BENCH_kernels.json,
//                            BENCH_sparse.json, BENCH_simd.json and
//                            BENCH_conv.json
//   bench_kernels --smoke    tiny sizes, no JSON; exits non-zero when the
//                            warmed-up toy training step or the warmed-up
//                            data-parallel PA-TMR step on equal-shape bags
//                            reports any pool miss, that PA-TMR step's
//                            pooled bytes grow from step to step (the
//                            distinct-bag run's misses per batch are
//                            printed, not gated: chunks with different
//                            working sets may miss), the embedding step
//                            performs a dense full-table gradient scan
//                            (SparseGradStats dense_fallbacks != 0 or the
//                            touched-row count is not a strict subset of
//                            the table), or kernel dispatch silently falls
//                            back to scalar even though a vector ISA was
//                            detected and no explicit pin asked for scalar.
//                            scripts/check.sh runs this as its bench-smoke
//                            stage, so an allocation, sparsity or dispatch
//                            regression on the hot path fails CI even
//                            without running the full benchmark.
//   bench_kernels --list_backends
//                            prints one supported backend name per line
//                            (scalar first) and exits; scripts/check.sh
//                            iterates this list for its `simd` stage.
//
// Everything but the PA-TMR step runs at threads = 1: these are
// single-kernel measurements, and a single thread makes the steady-state
// pool-counter assertions exact.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "nn/init.h"
#include "nn/layers.h"
#include "nn/module.h"
#include "nn/optimizer.h"
#include "pa_step.h"
#include "tensor/buffer_pool.h"
#include "tensor/ops.h"
#include "tensor/simd/dispatch.h"
#include "tensor/tensor.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/tsv_writer.h"
#include "util/thread_pool.h"

namespace imr {
namespace {

using tensor::Tensor;

// Keeps results alive past the optimiser without google-benchmark.
volatile float g_sink = 0.0f;

struct Timed {
  double ns_per_call = 0.0;
  int64_t calls = 0;
  // Pool traffic per call during the timed region (warmup excluded).
  double acquires_per_call = 0.0;
  uint64_t misses = 0;  // total steady-state misses, expected 0
};

// One timed segment: calls `body` until min_seconds elapse, returns ns/call.
template <typename Body>
double TimeSegment(const Body& body, double min_seconds,
                   int64_t* calls_out) {
  using clock = std::chrono::steady_clock;
  int64_t calls = 0;
  const auto start = clock::now();
  double elapsed = 0.0;
  do {
    body();
    ++calls;
    elapsed = std::chrono::duration<double>(clock::now() - start).count();
  } while (elapsed < min_seconds || calls < 3);
  *calls_out = calls;
  return elapsed * 1e9 / static_cast<double>(calls);
}

// Folds one segment's timing and pool traffic into `t`. Keeping the fastest
// segment rejects interference from other load on the machine; pool traffic
// accumulates over every timed call.
void FoldSegment(double ns, int64_t calls, uint64_t* acquires, Timed* t) {
  const tensor::PoolStatsSnapshot pool = tensor::PoolStats();
  if (t->calls == 0 || ns < t->ns_per_call) t->ns_per_call = ns;
  t->calls += calls;
  *acquires += pool.total_hits() + pool.total_misses();
  t->misses += pool.total_misses();
}

// Times two bodies by alternating short segments — both variants sample the
// same load profile, so their ratio is meaningful even on a busy machine.
// Each Timed keeps its own fastest segment and aggregate pool traffic.
template <typename BodyA, typename BodyB>
void RunPair(const BodyA& a, const BodyB& b, int warmup_calls,
             double min_seconds, Timed* ta, Timed* tb, int repeats = 7) {
  for (int i = 0; i < warmup_calls; ++i) a();
  for (int i = 0; i < warmup_calls; ++i) b();
  *ta = Timed{};
  *tb = Timed{};
  uint64_t acquires_a = 0, acquires_b = 0;
  for (int rep = 0; rep < repeats; ++rep) {
    int64_t calls = 0;
    tensor::ResetPoolStats();
    double ns = TimeSegment(a, min_seconds, &calls);
    FoldSegment(ns, calls, &acquires_a, ta);
    tensor::ResetPoolStats();
    ns = TimeSegment(b, min_seconds, &calls);
    FoldSegment(ns, calls, &acquires_b, tb);
  }
  ta->acquires_per_call =
      static_cast<double>(acquires_a) / static_cast<double>(ta->calls);
  tb->acquires_per_call =
      static_cast<double>(acquires_b) / static_cast<double>(tb->calls);
}

// Single-variant measurement with the same fastest-segment policy.
template <typename Body>
Timed Run(const Body& body, int warmup_calls, double min_seconds,
          int repeats = 5) {
  for (int i = 0; i < warmup_calls; ++i) body();
  Timed t;
  uint64_t acquires = 0;
  for (int rep = 0; rep < repeats; ++rep) {
    int64_t calls = 0;
    tensor::ResetPoolStats();
    const double ns = TimeSegment(body, min_seconds, &calls);
    FoldSegment(ns, calls, &acquires, &t);
  }
  t.acquires_per_call =
      static_cast<double>(acquires) / static_cast<double>(t.calls);
  return t;
}

struct OpRow {
  std::string name;
  double elements_per_call = 0.0;
  Timed timed;           // pool enabled (the default, "after")
  Timed timed_unpooled;  // PoolDisabledGuard (fresh heap per call, "before")

  double ns_per_element() const {
    return elements_per_call > 0 ? timed.ns_per_call / elements_per_call
                                 : 0.0;
  }
  double pooled_speedup() const {
    return timed.ns_per_call > 0
               ? timed_unpooled.ns_per_call / timed.ns_per_call
               : 0.0;
  }
};

// One row-sparse vs dense A/B at a fixed vocab size: the same
// embedding-dominated training step run on two identically-initialized
// models, one with the table's row-sparse gradient path (the default), one
// with it disabled. `rows_*` / `fallbacks` are exact per-5-step counters
// sampled after warmup.
struct SparseRow {
  int vocab = 0;
  int dim = 0;
  int batch = 0;
  Timed sparse;
  Timed dense;
  uint64_t rows_touched = 0;  // over the 5 sampled steady-state steps
  uint64_t rows_total = 0;
  uint64_t dense_fallbacks = 0;

  double speedup() const {
    return sparse.ns_per_call > 0
               ? dense.ns_per_call / sparse.ns_per_call
               : 0.0;
  }
};

// One interleaved vector-vs-scalar measurement: the same body timed with
// the eval backend pinned to `backend` and pinned to scalar, in
// alternating segments.
struct SimdRow {
  std::string backend;
  std::string op;
  double elements_per_call = 0.0;
  Timed vector;
  Timed scalar;

  double speedup() const {
    return vector.ns_per_call > 0
               ? scalar.ns_per_call / vector.ns_per_call
               : 0.0;
  }
  double vector_ns_per_element() const {
    return elements_per_call > 0 ? vector.ns_per_call / elements_per_call
                                 : 0.0;
  }
  double scalar_ns_per_element() const {
    return elements_per_call > 0 ? scalar.ns_per_call / elements_per_call
                                 : 0.0;
  }
};

// One conv A/B at one shape: Conv1dSame with the eval backend pinned to
// `backend` and to scalar, in alternating segments. `forward` is the
// no-grad op; `step` a training step (grad-mode forward, which runs the
// backend's exact conv, piecewise max pool, sum, backward).
struct ConvRow {
  std::string backend;
  std::string dims;  // "benchmark" or "table3"
  int time = 0, word_dim = 0, position_dim = 0, filters = 0, window = 3;
  Timed vector_forward, scalar_forward;
  Timed vector_step, scalar_step;

  int input_dim() const { return word_dim + 2 * position_dim; }
  double macs() const {
    return static_cast<double>(time) * filters * window * input_dim();
  }
};

struct Report {
  bool smoke = false;
  std::vector<OpRow> ops;
  // Interleaved simd-vs-scalar A/B, one row per (backend, op).
  std::vector<SimdRow> simd;
  // Warmed-up TinyModel training step, pooled vs pool-disabled.
  Timed step_pooled;
  Timed step_unpooled;
  // Fused AffineTanh vs the MatMul+AddRowVector+Tanh composition.
  Timed affine_fused;
  Timed affine_unfused;
  // Row-sparse vs dense embedding steps, one row per vocab size.
  std::vector<SparseRow> sparse_steps;
  // Conv A/B, one row per (vector backend, shape).
  std::vector<ConvRow> conv;
  // The warmed-up data-parallel PA-TMR step on equal-shape bags (the gate),
  // and, reported only, on distinct bags and sequentially on equal-shape
  // bags.
  bench::PaStepResult pa_step;
  bench::PaStepResult pa_step_distinct;
  bench::PaStepResult pa_step_sequential;
};

// The same representative model the buffer-pool tests train: embedding
// lookup, fused affine+tanh, dropout, linear head, fused cross-entropy.
struct StepModel : nn::Module {
  StepModel(int vocab, int dim, int hidden, int classes, util::Rng* rng)
      : embed(vocab, dim, rng),
        proj(dim, hidden, rng),
        out(hidden, classes, rng) {
    RegisterChild("embed", &embed);
    RegisterChild("proj", &proj);
    RegisterChild("out", &out);
  }
  nn::Embedding embed;
  nn::Linear proj;
  nn::Linear out;
};

// The data-parallel PA-TMR step runs on four global threads: the
// equal-shape batch (one batch per epoch; three warm-up epochs, five
// measured) and 96 distinct training bags (three batches per epoch; ten
// warm-up epochs, as the threads' working sets keep growing for a while,
// five measured). The sequential step runs the equal-shape batch on one.
void RunPaModelSteps(bool smoke, Report* report) {
  constexpr int kDataParallelThreads = 4;
  const std::unique_ptr<bench::PaStepSetup> setup =
      bench::MakePaStepSetup(smoke ? 0.3 : 0.5);
  report->pa_step =
      bench::RunPaStep(*setup, setup->same_shape_batch, /*warmup_epochs=*/3,
                       kDataParallelThreads);
  const std::vector<re::Bag>& train = setup->bags.train_bags();
  IMR_CHECK_GE(train.size(), 96u);
  const std::vector<re::Bag> distinct(train.begin(), train.begin() + 96);
  report->pa_step_distinct = bench::RunPaStep(
      *setup, distinct, /*warmup_epochs=*/10, kDataParallelThreads);
  report->pa_step_sequential = bench::RunPaStep(
      *setup, setup->same_shape_batch, /*warmup_epochs=*/3, /*threads=*/1);
}

Report RunAll(bool smoke) {
  Report report;
  report.smoke = smoke;
  const double min_seconds = smoke ? 0.002 : 0.15;
  const int warmup = smoke ? 3 : 10;
  // Smoke keeps every size tiny so check.sh stays fast.
  const int elt_n = smoke ? 1024 : 1 << 18;    // elementwise ops
  const int mm = smoke ? 16 : 128;             // square matmul side
  // Affine shape: a small inner dimension keeps the (identical) MatMul from
  // drowning out the passes the fusion actually removes.
  const int ar = smoke ? 12 : 128;             // affine rows
  const int ai = smoke ? 8 : 16;               // affine inner dim
  const int ad = smoke ? 16 : 128;             // affine out dim
  const int ce_rows = smoke ? 8 : 160;         // cross-entropy batch
  const int ce_cols = smoke ? 5 : 53;          // relations (NYT has 53)

  util::Rng rng(19);
  auto bench_op = [&](const std::string& name, double elements, auto body) {
    OpRow row;
    row.name = name;
    row.elements_per_call = elements;
    auto unpooled = [&body] {
      tensor::PoolDisabledGuard guard;
      body();
    };
    RunPair(body, unpooled, warmup, min_seconds, &row.timed,
            &row.timed_unpooled);
    report.ops.push_back(std::move(row));
  };

  {
    Tensor a = nn::NormalInit({elt_n}, 1.0f, &rng);
    Tensor b = nn::NormalInit({elt_n}, 1.0f, &rng);
    tensor::NoGradGuard no_grad;
    bench_op("add", elt_n, [&] { g_sink = g_sink + tensor::Add(a, b).data()[0]; });
    bench_op("mul", elt_n, [&] { g_sink = g_sink + tensor::Mul(a, b).data()[0]; });
    bench_op("tanh", elt_n, [&] { g_sink = g_sink + tensor::Tanh(a).data()[0]; });
  }
  {
    Tensor a = nn::NormalInit({mm, mm}, 1.0f, &rng);
    Tensor b = nn::NormalInit({mm, mm}, 1.0f, &rng);
    tensor::NoGradGuard no_grad;
    bench_op("matmul_forward", static_cast<double>(mm) * mm,
             [&] { g_sink = g_sink + tensor::MatMul(a, b).data()[0]; });
  }
  {
    Tensor x = nn::NormalInit({ce_rows, ce_cols}, 1.0f, &rng);
    x.set_requires_grad(true);
    std::vector<int> labels(static_cast<size_t>(ce_rows), 1);
    bench_op("cross_entropy_step",
             static_cast<double>(ce_rows) * ce_cols, [&] {
               x.ZeroGrad();
               tensor::Tensor loss = tensor::CrossEntropyLoss(x, labels);
               loss.Backward();
               g_sink = g_sink + loss.item();
             });
  }

  // Interleaved simd-vs-scalar A/B. All bodies run under NoGradGuard so
  // the eval table (and with it the ScopedEvalBackend pin) applies; the
  // pin sits inside the body because RunPair alternates segments of both
  // variants. On a scalar-only host the list below degenerates to
  // scalar-vs-scalar, recording parity rather than failing.
  {
    std::vector<tensor::simd::Backend> vector_backends;
    for (tensor::simd::Backend backend :
         tensor::simd::SupportedBackends()) {
      if (backend != tensor::simd::Backend::kScalar)
        vector_backends.push_back(backend);
    }
    if (vector_backends.empty())
      vector_backends.push_back(tensor::simd::Backend::kScalar);

    Tensor a = nn::NormalInit({elt_n}, 1.0f, &rng);
    Tensor b = nn::NormalInit({elt_n}, 1.0f, &rng);
    Tensor ma = nn::NormalInit({mm, mm}, 1.0f, &rng);
    Tensor mb = nn::NormalInit({mm, mm}, 1.0f, &rng);
    Tensor sx = nn::NormalInit({ce_rows, ce_cols}, 1.0f, &rng);
    tensor::NoGradGuard no_grad;
    for (tensor::simd::Backend backend : vector_backends) {
      auto ab = [&](const std::string& op, double elements, auto body) {
        SimdRow row;
        row.backend = tensor::simd::BackendName(backend);
        row.op = op;
        row.elements_per_call = elements;
        auto vectorized = [&body, backend] {
          tensor::simd::ScopedEvalBackend pin(backend);
          body();
        };
        auto scalar = [&body] {
          tensor::simd::ScopedEvalBackend pin(
              tensor::simd::Backend::kScalar);
          body();
        };
        RunPair(vectorized, scalar, warmup, min_seconds, &row.vector,
                &row.scalar);
        report.simd.push_back(std::move(row));
      };
      ab("tanh", elt_n, [&] { g_sink = g_sink + tensor::Tanh(a).data()[0]; });
      ab("add", elt_n, [&] { g_sink = g_sink + tensor::Add(a, b).data()[0]; });
      ab("mul", elt_n, [&] { g_sink = g_sink + tensor::Mul(a, b).data()[0]; });
      ab("matmul_forward", static_cast<double>(mm) * mm,
         [&] { g_sink = g_sink + tensor::MatMul(ma, mb).data()[0]; });
      ab("log_softmax", static_cast<double>(ce_rows) * ce_cols,
         [&] { g_sink = g_sink + tensor::LogSoftmax(sx).data()[0]; });
    }
  }

  // Fused vs unfused affine+tanh, full forward+backward in both shapes.
  {
    Tensor x = nn::NormalInit({ar, ai}, 1.0f, &rng);
    Tensor w = nn::NormalInit({ai, ad}, 0.5f, &rng);
    Tensor b = nn::NormalInit({ad}, 0.5f, &rng);
    x.set_requires_grad(true);
    w.set_requires_grad(true);
    b.set_requires_grad(true);
    auto clear = [&] {
      x.ZeroGrad();
      w.ZeroGrad();
      b.ZeroGrad();
    };
    RunPair(
        [&] {
          clear();
          tensor::Sum(tensor::AffineTanh(x, w, b)).Backward();
        },
        [&] {
          clear();
          tensor::Sum(tensor::Tanh(
                          tensor::AddRowVector(tensor::MatMul(x, w), b)))
              .Backward();
        },
        warmup, min_seconds, &report.affine_fused, &report.affine_unfused);
  }

  // Full training step — forward, backward, fused SGD update — pooled and
  // with the pool bypassed. The steady-state miss count of the pooled run
  // is the smoke gate: after warmup it must be exactly zero.
  {
    const int vocab = smoke ? 50 : 2000;
    const int dim = smoke ? 8 : 50;
    const int hidden = smoke ? 8 : 64;
    const int classes = smoke ? 4 : 53;
    const int batch = smoke ? 4 : 32;
    StepModel model(vocab, dim, hidden, classes, &rng);
    nn::Sgd opt(&model, 0.01f);
    util::Rng dropout_rng(23);
    std::vector<int> indices(static_cast<size_t>(batch));
    std::vector<int> labels(static_cast<size_t>(batch));
    for (int i = 0; i < batch; ++i) {
      indices[static_cast<size_t>(i)] =
          static_cast<int>(rng.UniformInt(static_cast<uint64_t>(vocab)));
      labels[static_cast<size_t>(i)] =
          static_cast<int>(rng.UniformInt(static_cast<uint64_t>(classes)));
    }
    auto step = [&] {
      Tensor emb = model.embed.Forward(indices);
      Tensor h = model.proj.ForwardTanh(emb);
      Tensor d = tensor::Dropout(h, 0.5f, &dropout_rng, /*training=*/true);
      Tensor logits = model.out.Forward(d);
      Tensor loss = tensor::CrossEntropyLoss(logits, labels);
      loss.Backward();
      opt.Step();
      g_sink = g_sink + loss.item();
    };
    auto step_unpooled = [&step] {
      tensor::PoolDisabledGuard guard;
      step();
    };
    RunPair(step, step_unpooled, warmup, min_seconds, &report.step_pooled,
            &report.step_unpooled);
  }

  // Row-sparse vs dense embedding steps over the NYT-preset vocab sizes
  // (114042 is the NYT-10 word vocabulary; dim 50 the paper's word dim).
  // Both models start from identical weights; the dense twin has the
  // table's row-sparse gradient path switched off, so its clip-norm
  // reduction, update and ZeroGrad all walk the full vocab × dim table
  // while the sparse run walks only the rows the batch gathered.
  {
    const std::vector<int> vocabs =
        smoke ? std::vector<int>{64} : std::vector<int>{2000, 20000, 114042};
    const int dim = smoke ? 8 : 50;
    const int hidden = smoke ? 8 : 32;
    const int classes = smoke ? 4 : 53;
    const int batch = smoke ? 8 : 256;  // batch-typical touched rows
    for (int vocab : vocabs) {
      SparseRow row;
      row.vocab = vocab;
      row.dim = dim;
      row.batch = batch;
      util::Rng sparse_init(101);
      util::Rng dense_init(101);
      StepModel sparse_model(vocab, dim, hidden, classes, &sparse_init);
      StepModel dense_model(vocab, dim, hidden, classes, &dense_init);
      for (nn::NamedParameter& p : dense_model.Parameters())
        p.tensor.set_row_sparse_grad(false);
      nn::Sgd sparse_opt(&sparse_model, 0.3f, 0.0f, /*clip_norm=*/1.0f);
      nn::Sgd dense_opt(&dense_model, 0.3f, 0.0f, /*clip_norm=*/1.0f);
      std::vector<int> indices(static_cast<size_t>(batch));
      std::vector<int> labels(static_cast<size_t>(batch));
      for (int i = 0; i < batch; ++i) {
        indices[static_cast<size_t>(i)] =
            static_cast<int>(rng.UniformInt(static_cast<uint64_t>(vocab)));
        labels[static_cast<size_t>(i)] =
            static_cast<int>(rng.UniformInt(static_cast<uint64_t>(classes)));
      }
      auto make_step = [&indices, &labels](StepModel* model, nn::Sgd* opt) {
        return [model, opt, &indices, &labels] {
          Tensor emb = model->embed.Forward(indices);
          Tensor h = model->proj.ForwardTanh(emb);
          Tensor logits = model->out.Forward(h);
          Tensor loss = tensor::CrossEntropyLoss(logits, labels);
          loss.Backward();
          opt->Step();
          g_sink = g_sink + loss.item();
        };
      };
      auto sparse_step = make_step(&sparse_model, &sparse_opt);
      auto dense_step = make_step(&dense_model, &dense_opt);
      RunPair(sparse_step, dense_step, warmup, min_seconds, &row.sparse,
              &row.dense);
      // Exact steady-state sparsity counters over 5 post-warmup steps. The
      // dense twin's table is not sparse-capable, so it contributes nothing
      // here; any dense fallback therefore means the sparse model's own
      // step scanned the full table.
      tensor::ResetSparseGradStats();
      for (int i = 0; i < 5; ++i) sparse_step();
      const tensor::SparseGradStatsSnapshot stats =
          tensor::SparseGradStats();
      row.rows_touched = stats.rows_touched;
      row.rows_total = stats.rows_total;
      row.dense_fallbacks = stats.dense_fallbacks;
      report.sparse_steps.push_back(row);
    }
    tensor::ResetSparseGradStats();
  }

  // Conv A/B: every compiled vector backend against the scalar pin, at the
  // benchmark's encoder dims (word 16, position 3, 32 filters, 17 tokens)
  // and the paper's Table III dims (50, 5, 230 filters, 30 and 120
  // tokens). Smoke runs the benchmark shape only.
  {
    struct ConvShape {
      const char* dims;
      int time, word_dim, position_dim, filters;
    };
    std::vector<ConvShape> shapes = {{"benchmark", 17, 16, 3, 32}};
    if (!smoke) {
      shapes.push_back({"table3", 30, 50, 5, 230});
      shapes.push_back({"table3", 120, 50, 5, 230});
    }
    for (const ConvShape& shape : shapes) {
      const int dim = shape.word_dim + 2 * shape.position_dim;
      Tensor x = nn::NormalInit({shape.time, dim}, 1.0f, &rng);
      Tensor w = nn::NormalInit({shape.filters, 3 * dim}, 0.1f, &rng);
      Tensor b = nn::NormalInit({shape.filters}, 0.1f, &rng);
      x.set_requires_grad(true);
      w.set_requires_grad(true);
      b.set_requires_grad(true);
      const int b1 = shape.time / 3, b2 = 2 * shape.time / 3;
      auto forward = [&] {
        tensor::NoGradGuard no_grad;
        g_sink = g_sink + tensor::Conv1dSame(x, w, b, 3).data()[0];
      };
      auto step = [&] {
        x.ZeroGrad();
        w.ZeroGrad();
        b.ZeroGrad();
        Tensor loss = tensor::Sum(tensor::PiecewiseMaxOverRows(
            tensor::Conv1dSame(x, w, b, 3), b1, b2));
        loss.Backward();
        g_sink = g_sink + loss.item();
      };
      for (tensor::simd::Backend backend : tensor::simd::SupportedBackends()) {
        if (backend == tensor::simd::Backend::kScalar) continue;
        ConvRow row;
        row.backend = tensor::simd::BackendName(backend);
        row.dims = shape.dims;
        row.time = shape.time;
        row.word_dim = shape.word_dim;
        row.position_dim = shape.position_dim;
        row.filters = shape.filters;
        auto pinned = [](tensor::simd::Backend pin, auto& body) {
          return [pin, &body] {
            tensor::simd::ScopedEvalBackend scope(pin);
            body();
          };
        };
        RunPair(pinned(backend, forward),
                pinned(tensor::simd::Backend::kScalar, forward), warmup,
                min_seconds, &row.vector_forward, &row.scalar_forward);
        RunPair(pinned(backend, step),
                pinned(tensor::simd::Backend::kScalar, step), warmup,
                min_seconds, &row.vector_step, &row.scalar_step);
        report.conv.push_back(std::move(row));
      }
    }
  }

  RunPaModelSteps(smoke, &report);
  return report;
}

double Speedup(const Timed& baseline, const Timed& fast) {
  return fast.ns_per_call > 0 ? baseline.ns_per_call / fast.ns_per_call
                              : 0.0;
}

void PrintReport(const Report& r) {
  std::printf("%-24s %12s %12s %12s %8s %8s %8s\n", "op", "ns/element",
              "ns/call", "unpooled", "speedup", "acq/call", "misses");
  for (const OpRow& op : r.ops) {
    std::printf("%-24s %12.3f %12.0f %12.0f %8.2f %8.2f %8llu\n",
                op.name.c_str(), op.ns_per_element(), op.timed.ns_per_call,
                op.timed_unpooled.ns_per_call, op.pooled_speedup(),
                op.timed.acquires_per_call,
                static_cast<unsigned long long>(op.timed.misses));
  }
  if (!r.simd.empty()) {
    std::printf("\n%-10s %-16s %14s %14s %8s\n", "backend", "op",
                "vec ns/elt", "scalar ns/elt", "speedup");
    for (const SimdRow& s : r.simd) {
      std::printf("%-10s %-16s %14.4f %14.4f %8.2f\n", s.backend.c_str(),
                  s.op.c_str(), s.vector_ns_per_element(),
                  s.scalar_ns_per_element(), s.speedup());
    }
  }
  std::printf("\naffine_tanh fused   %12.0f ns/call (%.2fx vs unfused "
              "%12.0f ns/call)\n",
              r.affine_fused.ns_per_call,
              Speedup(r.affine_unfused, r.affine_fused),
              r.affine_unfused.ns_per_call);
  std::printf("train step  pooled  %12.0f ns/step (%.2fx vs unpooled "
              "%12.0f ns/step), %.1f acquires/step, %llu steady misses\n",
              r.step_pooled.ns_per_call,
              Speedup(r.step_unpooled, r.step_pooled),
              r.step_unpooled.ns_per_call,
              r.step_pooled.acquires_per_call,
              static_cast<unsigned long long>(r.step_pooled.misses));
  if (!r.conv.empty()) {
    std::printf("\n%-8s %-10s %5s %4s %4s %14s %14s %8s %14s %14s %8s\n",
                "backend", "dims", "time", "dim", "filt", "fwd ns",
                "scalar fwd", "speedup", "step ns", "scalar step",
                "speedup");
    for (const ConvRow& c : r.conv) {
      std::printf(
          "%-8s %-10s %5d %4d %4d %14.0f %14.0f %8.2f %14.0f %14.0f %8.2f\n",
          c.backend.c_str(), c.dims.c_str(), c.time, c.input_dim(),
          c.filters, c.vector_forward.ns_per_call,
          c.scalar_forward.ns_per_call,
          Speedup(c.scalar_forward, c.vector_forward),
          c.vector_step.ns_per_call, c.scalar_step.ns_per_call,
          Speedup(c.scalar_step, c.vector_step));
    }
  }
  auto print_pa = [](const char* name, const bench::PaStepResult& pa) {
    std::printf("pa-tmr step, %s (%d threads): %.2f ms/epoch, %llu misses "
                "(%.2f per batch) and %lld bytes of pooled growth over %d "
                "batches (%.1f nodes and %.1f buffers acquired per batch)\n",
                name, pa.threads, pa.ms_per_epoch,
                static_cast<unsigned long long>(pa.misses),
                pa.misses_per_batch(),
                static_cast<long long>(pa.pooled_growth()), pa.batches,
                pa.nodes_per_batch(), pa.buffers_per_batch());
  };
  std::printf("\n");
  print_pa("data-parallel, equal-shape bags", r.pa_step);
  print_pa("data-parallel, distinct bags", r.pa_step_distinct);
  print_pa("sequential, equal-shape bags", r.pa_step_sequential);
  for (const SparseRow& s : r.sparse_steps) {
    std::printf("embed step  vocab=%-7d sparse %12.0f ns/step (%.2fx vs "
                "dense %12.0f ns/step), touched %llu/%llu rows over 5 "
                "steps, %llu dense fallbacks\n",
                s.vocab, s.sparse.ns_per_call, s.speedup(),
                s.dense.ns_per_call,
                static_cast<unsigned long long>(s.rows_touched),
                static_cast<unsigned long long>(s.rows_total),
                static_cast<unsigned long long>(s.dense_fallbacks));
  }
}

void WriteTimedJson(std::FILE* out, const char* name, const Timed& t,
                    const char* suffix) {
  std::fprintf(out,
               "    \"%s\": {\"ns_per_call\": %.1f, \"calls\": %lld, "
               "\"acquires_per_call\": %.2f, \"steady_misses\": %llu}%s\n",
               name, t.ns_per_call, static_cast<long long>(t.calls),
               t.acquires_per_call,
               static_cast<unsigned long long>(t.misses), suffix);
}

bool WriteJson(const Report& r, const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\n  \"threads\": 1,\n  \"ops\": [\n");
  for (size_t i = 0; i < r.ops.size(); ++i) {
    const OpRow& op = r.ops[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"ns_per_element\": %.4f, "
                 "\"ns_per_call\": %.1f, \"unpooled_ns_per_call\": %.1f, "
                 "\"pooled_speedup\": %.4f, \"elements_per_call\": %.0f, "
                 "\"acquires_per_call\": %.2f, \"steady_misses\": %llu}%s\n",
                 op.name.c_str(), op.ns_per_element(), op.timed.ns_per_call,
                 op.timed_unpooled.ns_per_call, op.pooled_speedup(),
                 op.elements_per_call, op.timed.acquires_per_call,
                 static_cast<unsigned long long>(op.timed.misses),
                 i + 1 < r.ops.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"affine_tanh\": {\n");
  WriteTimedJson(out, "fused", r.affine_fused, ",");
  WriteTimedJson(out, "unfused", r.affine_unfused, ",");
  std::fprintf(out, "    \"fused_speedup\": %.4f\n  },\n",
               Speedup(r.affine_unfused, r.affine_fused));
  std::fprintf(out, "  \"train_step\": {\n");
  WriteTimedJson(out, "pooled", r.step_pooled, ",");
  WriteTimedJson(out, "unpooled", r.step_unpooled, ",");
  std::fprintf(out, "    \"pooled_speedup\": %.4f\n  }\n}\n",
               Speedup(r.step_unpooled, r.step_pooled));
  std::fclose(out);
  return true;
}

// The simd A/B gets its own file: per-(backend, op) ns/element for the
// vectorized and scalar variants, plus the best vector backend's tanh and
// matmul-forward speedups, which are this PR's acceptance numbers.
bool WriteSimdJson(const Report& r, const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const tensor::simd::Backend best = tensor::simd::DetectBestBackend();
  const char* best_name = tensor::simd::BackendName(best);
  std::fprintf(out, "{\n  \"threads\": 1,\n  \"detected_best\": \"%s\",\n",
               best_name);
  std::fprintf(out, "  \"backends\": [");
  const std::vector<tensor::simd::Backend> supported =
      tensor::simd::SupportedBackends();
  for (size_t i = 0; i < supported.size(); ++i) {
    std::fprintf(out, "\"%s\"%s", tensor::simd::BackendName(supported[i]),
                 i + 1 < supported.size() ? ", " : "");
  }
  std::fprintf(out, "],\n  \"results\": [\n");
  for (size_t i = 0; i < r.simd.size(); ++i) {
    const SimdRow& s = r.simd[i];
    std::fprintf(
        out,
        "    {\"backend\": \"%s\", \"op\": \"%s\", "
        "\"elements_per_call\": %.0f, \"vector_ns_per_call\": %.1f, "
        "\"scalar_ns_per_call\": %.1f, \"vector_ns_per_element\": %.4f, "
        "\"scalar_ns_per_element\": %.4f, \"speedup\": %.4f}%s\n",
        s.backend.c_str(), s.op.c_str(), s.elements_per_call,
        s.vector.ns_per_call, s.scalar.ns_per_call,
        s.vector_ns_per_element(), s.scalar_ns_per_element(), s.speedup(),
        i + 1 < r.simd.size() ? "," : "");
  }
  // Acceptance summary: the detected-best backend's rows (parity rows on a
  // scalar-only host, where detected_best itself is scalar).
  double tanh_speedup = 0.0, matmul_speedup = 0.0;
  for (const SimdRow& s : r.simd) {
    if (s.backend != best_name) continue;
    if (s.op == "tanh") tanh_speedup = s.speedup();
    if (s.op == "matmul_forward") matmul_speedup = s.speedup();
  }
  std::fprintf(out,
               "  ],\n  \"best_vector\": {\"backend\": \"%s\", "
               "\"tanh_speedup\": %.4f, \"matmul_forward_speedup\": "
               "%.4f}\n}\n",
               best_name, tanh_speedup, matmul_speedup);
  std::fclose(out);
  return true;
}

// The conv A/B and the PA-TMR steps get their own file: per (backend,
// shape) forward and training-step times against the scalar pin, with
// packing included, and both data-parallel runs' pool counters.
bool WriteConvJson(const Report& r, const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\n  \"threads\": 1,\n  \"window\": 3,\n"
                    "  \"conv\": [\n");
  for (size_t i = 0; i < r.conv.size(); ++i) {
    const ConvRow& c = r.conv[i];
    std::fprintf(
        out,
        "    {\"backend\": \"%s\", \"dims\": \"%s\", \"time\": %d, "
        "\"word_dim\": %d, \"position_dim\": %d, \"input_dim\": %d, "
        "\"filters\": %d, \"macs\": %.0f, \"forward_ns\": %.1f, "
        "\"scalar_forward_ns\": %.1f, \"forward_speedup\": %.4f, "
        "\"step_ns\": %.1f, \"scalar_step_ns\": %.1f, "
        "\"step_speedup\": %.4f, \"backward_ns\": %.1f, "
        "\"scalar_backward_ns\": %.1f}%s\n",
        c.backend.c_str(), c.dims.c_str(), c.time, c.word_dim,
        c.position_dim, c.input_dim(), c.filters, c.macs(),
        c.vector_forward.ns_per_call, c.scalar_forward.ns_per_call,
        Speedup(c.scalar_forward, c.vector_forward),
        c.vector_step.ns_per_call, c.scalar_step.ns_per_call,
        Speedup(c.scalar_step, c.vector_step),
        c.vector_step.ns_per_call - c.vector_forward.ns_per_call,
        c.scalar_step.ns_per_call - c.scalar_forward.ns_per_call,
        i + 1 < r.conv.size() ? "," : "");
  }
  auto write_pa = [out](const char* name, const bench::PaStepResult& pa,
                       const char* suffix) {
    std::fprintf(out,
                 "  \"%s\": {\"threads\": %d, \"batches\": %d, "
                 "\"ms_per_epoch\": %.3f, \"misses\": %llu, "
                 "\"misses_per_batch\": %.3f, \"acquires\": %llu, "
                 "\"nodes_per_batch\": %.1f, \"buffers_per_batch\": %.1f, "
                 "\"pooled_growth_bytes\": %lld}%s\n",
                 name, pa.threads, pa.batches, pa.ms_per_epoch,
                 static_cast<unsigned long long>(pa.misses),
                 pa.misses_per_batch(),
                 static_cast<unsigned long long>(pa.acquires),
                 pa.nodes_per_batch(), pa.buffers_per_batch(),
                 static_cast<long long>(pa.pooled_growth()), suffix);
  };
  std::fprintf(out, "  ],\n");
  write_pa("pa_tmr_data_parallel_step", r.pa_step, ",");
  write_pa("pa_tmr_data_parallel_distinct_bags", r.pa_step_distinct, ",");
  write_pa("pa_tmr_sequential_step", r.pa_step_sequential, "");
  std::fprintf(out, "}\n");
  std::fclose(out);
  return true;
}

// The sparse-vs-dense A/B gets its own file so the README can cite it and
// downstream tooling can diff embedding-step numbers without parsing the
// kernel table.
bool WriteSparseJson(const Report& r, const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\n  \"threads\": 1,\n  \"optimizer\": \"sgd\",\n"
                    "  \"clip_norm\": 1.0,\n  \"sparse_steps\": [\n");
  for (size_t i = 0; i < r.sparse_steps.size(); ++i) {
    const SparseRow& s = r.sparse_steps[i];
    std::fprintf(
        out,
        "    {\"vocab\": %d, \"dim\": %d, \"batch\": %d, "
        "\"sparse_ns_per_step\": %.1f, \"dense_ns_per_step\": %.1f, "
        "\"sparse_speedup\": %.4f, \"rows_touched\": %llu, "
        "\"rows_total\": %llu, \"dense_fallbacks\": %llu}%s\n",
        s.vocab, s.dim, s.batch, s.sparse.ns_per_call, s.dense.ns_per_call,
        s.speedup(), static_cast<unsigned long long>(s.rows_touched),
        static_cast<unsigned long long>(s.rows_total),
        static_cast<unsigned long long>(s.dense_fallbacks),
        i + 1 < r.sparse_steps.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  return true;
}

int Main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--list_backends") == 0) {
      for (tensor::simd::Backend backend :
           tensor::simd::SupportedBackends()) {
        std::printf("%s\n", tensor::simd::BackendName(backend));
      }
      return 0;
    }
  }
  util::SetGlobalThreads(1);
  const Report report = RunAll(smoke);
  PrintReport(report);

  if (smoke) {
    // The gate: a warmed-up training step may not touch the heap. Any miss
    // means an op on the hot path stopped recycling its storage.
    if (report.step_pooled.misses != 0) {
      std::fprintf(stderr,
                   "[bench_kernels] FAIL: warmed-up training step reported "
                   "%llu pool misses (expected 0)\n",
                   static_cast<unsigned long long>(
                       report.step_pooled.misses));
      return 1;
    }
    // The same for the real training step: a warmed-up data-parallel
    // PA-TMR step on four threads neither misses nor grows the pools. Its
    // chunks have equal working sets; the distinct-bag run is not gated.
    const bench::PaStepResult& pa = report.pa_step;
    if (pa.misses != 0 || pa.pooled_growth() != 0 || pa.epochs == 0) {
      std::fprintf(stderr,
                   "[bench_kernels] FAIL: warmed-up data-parallel PA-TMR "
                   "step reported %llu pool misses and %lld bytes of pooled "
                   "growth over %d steps (expected 0 and 0)\n",
                   static_cast<unsigned long long>(pa.misses),
                   static_cast<long long>(pa.pooled_growth()), pa.epochs);
      return 1;
    }
    // Second gate: a steady-state embedding step must stay row-sparse — no
    // dense full-table gradient scan, and the touched-row count must be a
    // non-empty strict subset of the table.
    for (const SparseRow& s : report.sparse_steps) {
      if (s.dense_fallbacks != 0 || s.rows_touched == 0 ||
          s.rows_touched >= s.rows_total) {
        std::fprintf(stderr,
                     "[bench_kernels] FAIL: embedding step at vocab=%d lost "
                     "row sparsity (touched %llu/%llu rows, %llu dense "
                     "fallbacks; expected 0 fallbacks and 0 < touched < "
                     "total)\n",
                     s.vocab,
                     static_cast<unsigned long long>(s.rows_touched),
                     static_cast<unsigned long long>(s.rows_total),
                     static_cast<unsigned long long>(s.dense_fallbacks));
        return 1;
      }
    }
    // Third gate: no silent scalar fallback. When the host has a vector
    // ISA and nothing pinned the backend (a pinned scalar is an explicit
    // choice, e.g. check.sh's per-backend runs), eval dispatch must
    // resolve to the detected-best table.
    const tensor::simd::Backend best = tensor::simd::DetectBestBackend();
    if (best != tensor::simd::Backend::kScalar &&
        !tensor::simd::EvalBackendPinned() &&
        tensor::simd::ActiveEvalBackend() != best) {
      std::fprintf(stderr,
                   "[bench_kernels] FAIL: host supports %s but eval "
                   "dispatch resolved to %s without an explicit pin "
                   "(silent scalar fallback)\n",
                   tensor::simd::BackendName(best),
                   tensor::simd::BackendName(
                       tensor::simd::ActiveEvalBackend()));
      return 1;
    }
    std::fprintf(stderr,
                 "[bench_kernels] smoke OK: steady-state training steps "
                 "(toy and data-parallel PA-TMR) ran with zero pool misses "
                 "and flat pooled bytes, zero dense full-table gradient "
                 "scans, and no silent scalar fallback (eval backend: "
                 "%s%s)\n",
                 tensor::simd::BackendName(
                     tensor::simd::ActiveEvalBackend()),
                 tensor::simd::EvalBackendPinned() ? ", pinned" : "");
    return 0;
  }

  (void)util::MakeDirectories("bench_results");
  const std::string path = "bench_results/BENCH_kernels.json";
  if (!WriteJson(report, path)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  const std::string sparse_path = "bench_results/BENCH_sparse.json";
  if (!WriteSparseJson(report, sparse_path)) {
    std::fprintf(stderr, "cannot write %s\n", sparse_path.c_str());
    return 1;
  }
  const std::string simd_path = "bench_results/BENCH_simd.json";
  if (!WriteSimdJson(report, simd_path)) {
    std::fprintf(stderr, "cannot write %s\n", simd_path.c_str());
    return 1;
  }
  const std::string conv_path = "bench_results/BENCH_conv.json";
  if (!WriteConvJson(report, conv_path)) {
    std::fprintf(stderr, "cannot write %s\n", conv_path.c_str());
    return 1;
  }
  std::fprintf(stderr,
               "[bench_kernels] results written to %s, %s, %s and %s\n",
               path.c_str(), sparse_path.c_str(), simd_path.c_str(),
               conv_path.c_str());
  return 0;
}

}  // namespace
}  // namespace imr

int main(int argc, char** argv) { return imr::Main(argc, argv); }
