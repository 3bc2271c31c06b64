// Differentiable operations on Tensor. Every op returns a fresh node whose
// backward closure accumulates into the parents' gradients. Shapes are
// validated with IMR_CHECK; passing mismatched shapes is a programming error.
//
// Conventions: rank-2 tensors are row-major [rows x cols]; a "row vector"
// argument may be rank-1 [C]. Sentence encoders treat rows as time steps.
//
// Segments: a batch of sentences travels as one rank-2 tensor whose rows
// are the sentences' rows one after another. `offsets` (S + 1 entries,
// offsets[0] == 0, strictly ascending, offsets[S] == rows) puts segment s
// at rows [offsets[s], offsets[s + 1]). A segmented op computes each
// segment with the arithmetic its one-segment form applies to that
// sentence alone, so every output row has the per-sentence bits. Its
// backward walks the segments last to first, each with the one-segment
// loops: that is the order in which a graph with one op per sentence,
// joined by ConcatRows, fires its backward closures (reverse topological
// order reaches the last sentence first). Where segments add into the same
// gradient (a table row gathered by several sentences, the conv weight and
// bias), the sums therefore keep their bits.
#ifndef IMR_TENSOR_OPS_H_
#define IMR_TENSOR_OPS_H_

#include <vector>

#include "tensor/tensor.h"
#include "util/rng.h"

namespace imr::tensor {

// ---- elementwise ----

/// c = a + b (same shape).
Tensor Add(const Tensor& a, const Tensor& b);
/// c = a - b (same shape).
Tensor Sub(const Tensor& a, const Tensor& b);
/// c = a * b elementwise (same shape).
Tensor Mul(const Tensor& a, const Tensor& b);
/// c = a * s.
Tensor Scale(const Tensor& a, float s);
/// c = a * s where s is a trainable scalar tensor (size 1). Gradients flow
/// into both a and s.
Tensor ScaleByScalarTensor(const Tensor& a, const Tensor& s);
/// c = a + s.
Tensor AddScalar(const Tensor& a, float s);
/// Row by row for a rank-2 tensor, so each row has the bits of Tanh over
/// that row alone on every backend.
Tensor Tanh(const Tensor& a);
Tensor Sigmoid(const Tensor& a);
Tensor Relu(const Tensor& a);

/// Inverted dropout: zeroes with probability p and scales kept values by
/// 1/(1-p). Identity when `training` is false or p == 0. Draws the mask with
/// DrawDropoutMask and applies it with the mask overload.
Tensor Dropout(const Tensor& a, float p, util::Rng* rng, bool training);

/// Fills mask[0, n) with one rng->Bernoulli(p) draw per entry in order: 0
/// when it comes up true, 1/(1-p) otherwise. Requires 0 < p < 1.
void DrawDropoutMask(float p, util::Rng* rng, float* mask, size_t n);

/// out = a * mask elementwise. `mask` has a.size() floats from the buffer
/// pool (internal::AcquireBuffer); the op returns it to the pool when the
/// node dies. Lets a caller draw a batch's masks in another order than the
/// op runs in.
Tensor Dropout(const Tensor& a, std::vector<float>&& mask);

// ---- linear algebra ----

/// [R x K] x [K x C] -> [R x C]. A rank-1 lhs is treated as [1 x K] and the
/// result is rank-1 [C].
Tensor MatMul(const Tensor& a, const Tensor& b);

/// Inference-only x @ weight + bias where every output row is computed as if
/// its input row were alone: row i equals Add(MatMul(Row(x, i), weight),
/// bias) bit for bit on every backend, whatever the row count. (MatMul
/// itself switches to a packed panel kernel at 8+ rows, whose k-sum order
/// differs on vector backends.) x: [R x K] or rank-1 [K]; weight: [K x C];
/// bias: [C]. Records no graph; IMR_CHECKs that grad mode is off.
Tensor RowwiseAffine(const Tensor& x, const Tensor& weight,
                     const Tensor& bias);

/// Adds a row vector v [C] (or [1 x C]) to every row of m [R x C].
Tensor AddRowVector(const Tensor& m, const Tensor& v);

/// Fused Tanh(x @ weight + bias): one kernel, one output node, no
/// intermediate MatMul/Add tensors. Drives the same MatMul kernels as the
/// unfused composition, so forward and backward are bit-identical to
/// Tanh(AddRowVector(MatMul(x, weight), bias)) (or the Add form for rank-1
/// x) at any thread count. x: [R x K] or rank-1 [K]; weight: [K x C];
/// bias: [C].
Tensor AffineTanh(const Tensor& x, const Tensor& weight, const Tensor& bias);

/// Dot product of each row of x [N x C] with q [C] -> [N].
Tensor RowwiseDot(const Tensor& x, const Tensor& q);

/// Sum_n w[n] * x[n, :] -> [C]. w is rank-1 [N].
Tensor WeightedSumRows(const Tensor& x, const Tensor& w);

// ---- shape ----

/// Same data, new shape (sizes must match).
Tensor Reshape(const Tensor& a, std::vector<int> shape);

/// Stacks parts vertically; each part is [r_i x C] or rank-1 [C] (one row).
Tensor ConcatRows(const std::vector<Tensor>& parts);

/// Concatenates rank-1 vectors into one rank-1 vector.
Tensor ConcatVec(const std::vector<Tensor>& parts);

/// Concatenates rank-2 tensors horizontally; all parts share the row count.
Tensor ConcatCols(const std::vector<Tensor>& parts);

/// Extracts row r of a rank-2 tensor as a rank-1 vector.
Tensor Row(const Tensor& x, int r);

/// Rows [start, start + count) of a rank-2 tensor -> [count x C].
Tensor SliceRows(const Tensor& x, int start, int count);

/// Extracts v[start, start+len) of a rank-1 vector.
Tensor Slice(const Tensor& v, int start, int len);

/// Embedding lookup: rows of `table` [V x D] at `indices` -> [N x D].
/// Gradients scatter-add into the table. The one-segment case of the
/// segmented form below.
Tensor GatherRows(const Tensor& table, const std::vector<int>& indices);

/// Segmented lookup: `offsets` splits `indices` into segments (see the
/// file comment). The forward is one gather; the backward adds segment by
/// segment, last to first, indices ascending within a segment.
Tensor GatherRows(const Tensor& table, const std::vector<int>& indices,
                  const std::vector<int>& offsets);

// ---- reductions ----

Tensor Sum(const Tensor& a);          // -> scalar
Tensor Mean(const Tensor& a);         // -> scalar
Tensor SumRows(const Tensor& x);      // [T x C] -> [C]
Tensor MeanRows(const Tensor& x);     // [T x C] -> [C]
/// Per-column max over rows: [T x C] -> [C].
Tensor MaxOverRows(const Tensor& x);

/// Piecewise max pooling (Zeng et al. 2015): rows are split into three
/// pieces [0, b1), [b1, b2), [b2, T) and max-pooled per column, giving
/// [3*C]. Empty pieces contribute zeros. Requires 0 <= b1 <= b2 <= T. The
/// one-segment case of the segmented form below.
Tensor PiecewiseMaxOverRows(const Tensor& x, int b1, int b2);

/// Segmented piecewise max pooling -> [S x 3*C]: row s pools segment s of
/// x at its own bounds, splits[2s] and splits[2s + 1], counted from the
/// segment's first row. The backward walks segments last to first.
Tensor PiecewiseMaxOverRows(const Tensor& x, const std::vector<int>& offsets,
                            const std::vector<int>& splits);

// ---- softmax & losses ----

/// Row-wise softmax ([N x C] or rank-1).
Tensor Softmax(const Tensor& x);
/// Row-wise log-softmax.
Tensor LogSoftmax(const Tensor& x);
/// Mean negative log-likelihood of `labels` under row-wise softmax(logits).
/// logits: [N x C] (or rank-1 with one label). Returns a scalar.
Tensor CrossEntropyLoss(const Tensor& logits, const std::vector<int>& labels);

// ---- convolution ----

/// 1-D convolution over time with "same" zero padding.
///   x: [T x D], weight: [F x (window*D)], bias: [F] -> [T x F].
/// Window must be odd. Filter f at time t sees rows t-w/2 .. t+w/2. The
/// one-segment case of the segmented form below.
Tensor Conv1dSame(const Tensor& x, const Tensor& weight, const Tensor& bias,
                  int window);

/// Segmented convolution: each segment of x is convolved on its own, with
/// zero padding at its edges, and the weights are packed once for all of
/// them. The backward walks segments last to first.
Tensor Conv1dSame(const Tensor& x, const Tensor& weight, const Tensor& bias,
                  int window, const std::vector<int>& offsets);

}  // namespace imr::tensor

#endif  // IMR_TENSOR_OPS_H_
