#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <vector>

#include "core/logging.h"
#include "tensor/backend.h"
#include "tensor/graph.h"
#include "tensor/pool.h"

namespace hiergat {

namespace {

// Backward lambdas capture raw impl pointers: the root Tensor keeps the
// whole graph alive through the parents chain during Backward(), and
// capturing shared_ptrs here would create a reference cycle (the output
// node captures itself) that leaks every computation graph.
using Impl = internal_tensor::TensorImpl*;

bool AnyRequiresGrad(const Tensor& a) {
  return GradModeEnabled() && a.requires_grad();
}
bool AnyRequiresGrad(const Tensor& a, const Tensor& b) {
  return GradModeEnabled() && (a.requires_grad() || b.requires_grad());
}

/// True when `b` is a rank-1 bias broadcastable over the rows of `a`.
bool IsBiasBroadcast(const Tensor& a, const Tensor& b) {
  return a.rank() == 2 && b.rank() == 1 && a.dim(1) == b.dim(0);
}

void CheckSameShape(const Tensor& a, const Tensor& b, const char* op) {
  HG_CHECK(a.shape() == b.shape())
      << op << ": shape mismatch " << ShapeToString(a.shape()) << " vs "
      << ShapeToString(b.shape());
}

/// The packed encoder's elementwise ops (Add, the activations) treat `a`
/// as dim(0) rows, so a packed replay (graph::Replay) runs only the live
/// ones.
struct RowSplit {
  int rows;
  size_t row_size;

  explicit RowSplit(const Tensor& a)
      : rows(a.rank() == 0 ? 1 : a.dim(0)),
        row_size(rows > 0 ? a.data().size() / static_cast<size_t>(rows)
                          : 0) {}
  size_t Live(const graph::Replay& replay) const {
    return static_cast<size_t>(replay.Rows(rows)) * row_size;
  }
};

// Every recorded op writes its forward math once, as a graph::NodeFn-
// shaped body, and runs it through Forward(). Eagerly the body runs
// over the tensors' own buffers and every row (the packed attention
// ops pass their own sequence table). Only under an active GraphCapture
// does Forward() also hand the same body to graph::Record as the op's
// replay node (see tensor/graph.h), which runs it over arena slots with
// the replay's sequence table. Replay matches eager bit for bit because
// there is no second copy of the math: both call the same serial
// kernels on the calling thread. The Capturing() gate keeps the
// std::function, the recorded input vector and the scratch sizes off
// the eager path.
bool Capturing() { return graph::GraphCapture::Active(); }

// Most inputs a fixed-arity op takes (LayerNorm, Linear with bias,
// AttentionScores with mask) and most scratch buffers any op asks for
// (LayerNorm's xhat and inv_std).
constexpr size_t kMaxInputs = 3;
constexpr size_t kMaxScratch = 2;

/// Runs `body` as the forward of `out` over a fixed-arity op's inputs.
/// An undefined input (absent bias or mask) is skipped, so `in[i]`
/// indexes the defined inputs in order. `scratch_sizes` (in floats) are
/// per-call buffers: borrowed from the pool eagerly, arena-planned at
/// replay. `name`, `flops`, `blocks` and `gathers_queries` label the
/// replay node (graph::Record). `eager` is what the body sees when it
/// runs now.
template <typename Body>
void Forward(Tensor& out, std::initializer_list<const Tensor*> inputs,
             const char* name, Body body, int64_t flops = -1,
             std::initializer_list<size_t> scratch_sizes = {},
             const graph::Replay& eager = {},
             const graph::BlockCost& blocks = {},
             bool gathers_queries = false) {
  HG_CHECK(inputs.size() <= kMaxInputs && scratch_sizes.size() <= kMaxScratch);
  const float* in[kMaxInputs] = {};
  size_t num_in = 0;
  for (const Tensor* t : inputs) {
    if (t->defined()) in[num_in++] = t->data().data();
  }
  if (scratch_sizes.size() == 0) {
    body(in, nullptr, out.data().data(), eager);
  } else {
    auto& pool = internal_tensor::BufferPool::ThreadLocal();
    std::vector<float> bufs[kMaxScratch];
    float* scratch[kMaxScratch] = {};
    size_t s = 0;
    for (size_t size : scratch_sizes) {
      bufs[s] = pool.Acquire(size);
      scratch[s] = bufs[s].data();
      ++s;
    }
    body(in, scratch, out.data().data(), eager);
    while (s > 0) pool.Release(std::move(bufs[--s]));
  }
  if (Capturing()) {
    std::vector<Tensor> recorded;
    for (const Tensor* t : inputs) {
      if (t->defined()) recorded.push_back(*t);
    }
    graph::Record(out, recorded, name, std::move(body),
                  std::vector<size_t>(scratch_sizes), flops, blocks,
                  gathers_queries);
  }
}

/// Forward() for an op over any number of inputs (the concats).
template <typename Body>
void ForwardParts(Tensor& out, const std::vector<Tensor>& inputs,
                  const char* name, Body body) {
  std::vector<const float*> in;
  in.reserve(inputs.size());
  for (const Tensor& t : inputs) in.push_back(t.data().data());
  body(in.data(), nullptr, out.data().data(), graph::Replay{});
  if (Capturing()) graph::Record(out, inputs, name, std::move(body));
}

/// A unary op over whole buffers: `fwd(n, x, y)` writes y = f(x), and
/// `bwd(n, x, y, gy, gx)` accumulates gx += gy * f'(x) given the forward
/// output y. `name` labels the replay node (static lifetime, used for
/// trace spans).
template <typename Fwd, typename Bwd>
Tensor UnaryBufferOp(const Tensor& a, const char* name, Fwd fwd, Bwd bwd) {
  const bool rg = AnyRequiresGrad(a);
  Tensor out = Tensor::MakeNode(a.shape(), rg, {a});
  const RowSplit split(a);
  Forward(out, {&a}, name,
          [split, fwd](const float* const* in, float* const*, float* op,
                       const graph::Replay& replay) {
            fwd(split.Live(replay), in[0], op);
          });
  if (rg) {
    Impl ai = a.impl().get();
    Impl oi = out.impl().get();
    out.set_backward_fn([ai, oi, bwd]() {
      ai->EnsureGrad();
      bwd(ai->data().size(), ai->data().data(), oi->data().data(),
          oi->grad.data(), ai->grad.data());
    });
  }
  return out;
}

/// Applies a scalar function and its derivative `bwd(x, y)` elementwise.
template <typename Fwd, typename Bwd>
Tensor UnaryOp(const Tensor& a, const char* name, Fwd fwd, Bwd bwd) {
  return UnaryBufferOp(
      a, name,
      [fwd](size_t n, const float* x, float* y) {
        for (size_t i = 0; i < n; ++i) y[i] = fwd(x[i]);
      },
      [bwd](size_t n, const float* x, const float* y, const float* gy,
            float* gx) {
        for (size_t i = 0; i < n; ++i) gx[i] += gy[i] * bwd(x[i], y[i]);
      });
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  const bool rg = AnyRequiresGrad(a, b);
  if (IsBiasBroadcast(a, b)) {
    Tensor out = Tensor::MakeNode(a.shape(), rg, {a, b});
    const int rows = a.dim(0), cols = a.dim(1);
    Forward(out, {&a, &b}, "Add(bias)",
            [rows, cols](const float* const* in, float* const*, float* op,
                         const graph::Replay& replay) {
              const int live = replay.Rows(rows);
              std::copy(in[0], in[0] + static_cast<size_t>(live) * cols, op);
              backend::AddBiasRows(live, cols, in[1], op);
            });
    if (rg) {
      Impl ai = a.impl().get(), bi = b.impl().get(), oi = out.impl().get();
      out.set_backward_fn([ai, bi, oi, rows, cols]() {
        if (ai->requires_grad) {
          ai->EnsureGrad();
          backend::Accumulate(ai->data().size(), oi->grad.data(),
                              ai->grad.data());
        }
        if (bi->requires_grad) {
          bi->EnsureGrad();
          backend::ColSumAccumulate(rows, cols, oi->grad.data(),
                                    bi->grad.data());
        }
      });
    }
    return out;
  }
  CheckSameShape(a, b, "Add");
  Tensor out = Tensor::MakeNode(a.shape(), rg, {a, b});
  const RowSplit split(a);
  Forward(out, {&a, &b}, "Add",
          [split](const float* const* in, float* const*, float* op,
                  const graph::Replay& replay) {
            backend::AddInto(split.Live(replay), in[0], in[1], op);
          });
  if (rg) {
    Impl ai = a.impl().get(), bi = b.impl().get(), oi = out.impl().get();
    out.set_backward_fn([ai, bi, oi]() {
      if (ai->requires_grad) {
        ai->EnsureGrad();
        backend::Accumulate(ai->data().size(), oi->grad.data(),
                            ai->grad.data());
      }
      if (bi->requires_grad) {
        bi->EnsureGrad();
        backend::Accumulate(bi->data().size(), oi->grad.data(),
                            bi->grad.data());
      }
    });
  }
  return out;
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  // Direct node (not Add(a, Neg(b))): one graph node and no negated
  // temporary per call.
  const bool rg = AnyRequiresGrad(a, b);
  if (IsBiasBroadcast(a, b)) {
    Tensor out = Tensor::MakeNode(a.shape(), rg, {a, b});
    const int rows = a.dim(0), cols = a.dim(1);
    Forward(out, {&a, &b}, "Sub(bias)",
            [rows, cols](const float* const* in, float* const*, float* op,
                         const graph::Replay&) {
              for (int r = 0; r < rows; ++r) {
                backend::SubInto(static_cast<size_t>(cols),
                                 in[0] + static_cast<size_t>(r) * cols, in[1],
                                 op + static_cast<size_t>(r) * cols);
              }
            });
    if (rg) {
      Impl ai = a.impl().get(), bi = b.impl().get(), oi = out.impl().get();
      out.set_backward_fn([ai, bi, oi, rows, cols]() {
        if (ai->requires_grad) {
          ai->EnsureGrad();
          backend::Accumulate(ai->data().size(), oi->grad.data(),
                              ai->grad.data());
        }
        if (bi->requires_grad) {
          bi->EnsureGrad();
          for (int r = 0; r < rows; ++r) {
            backend::Axpy(static_cast<size_t>(cols), -1.0f,
                          oi->grad.data() + static_cast<size_t>(r) * cols,
                          bi->grad.data());
          }
        }
      });
    }
    return out;
  }
  CheckSameShape(a, b, "Sub");
  Tensor out = Tensor::MakeNode(a.shape(), rg, {a, b});
  const size_t n = a.data().size();
  Forward(out, {&a, &b}, "Sub",
          [n](const float* const* in, float* const*, float* op,
              const graph::Replay&) { backend::SubInto(n, in[0], in[1], op); });
  if (rg) {
    Impl ai = a.impl().get(), bi = b.impl().get(), oi = out.impl().get();
    out.set_backward_fn([ai, bi, oi]() {
      if (ai->requires_grad) {
        ai->EnsureGrad();
        backend::Accumulate(ai->data().size(), oi->grad.data(),
                            ai->grad.data());
      }
      if (bi->requires_grad) {
        bi->EnsureGrad();
        backend::Axpy(bi->data().size(), -1.0f, oi->grad.data(),
                      bi->grad.data());
      }
    });
  }
  return out;
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b, "Mul");
  const bool rg = AnyRequiresGrad(a, b);
  Tensor out = Tensor::MakeNode(a.shape(), rg, {a, b});
  const size_t n = a.data().size();
  Forward(out, {&a, &b}, "Mul",
          [n](const float* const* in, float* const*, float* op,
              const graph::Replay&) { backend::MulInto(n, in[0], in[1], op); });
  if (rg) {
    Impl ai = a.impl().get(), bi = b.impl().get(), oi = out.impl().get();
    out.set_backward_fn([ai, bi, oi]() {
      if (ai->requires_grad) {
        ai->EnsureGrad();
        backend::MulAccumulate(ai->data().size(), oi->grad.data(),
                               bi->data().data(), ai->grad.data());
      }
      if (bi->requires_grad) {
        bi->EnsureGrad();
        backend::MulAccumulate(bi->data().size(), oi->grad.data(),
                               ai->data().data(), bi->grad.data());
      }
    });
  }
  return out;
}

Tensor Scale(const Tensor& a, float s) {
  const bool rg = AnyRequiresGrad(a);
  Tensor out = Tensor::MakeNode(a.shape(), rg, {a});
  const size_t n = a.data().size();
  Forward(out, {&a}, "Scale",
          [n, s](const float* const* in, float* const*, float* op,
                 const graph::Replay&) {
            backend::ScaleInto(n, s, in[0], op);
          });
  if (rg) {
    Impl ai = a.impl().get(), oi = out.impl().get();
    out.set_backward_fn([ai, oi, s]() {
      ai->EnsureGrad();
      backend::Axpy(ai->data().size(), s, oi->grad.data(), ai->grad.data());
    });
  }
  return out;
}

Tensor Neg(const Tensor& a) { return Scale(a, -1.0f); }

Tensor MatMul(const Tensor& a, const Tensor& b) {
  HG_CHECK_EQ(a.rank(), 2);
  HG_CHECK_EQ(b.rank(), 2);
  HG_CHECK_EQ(a.dim(1), b.dim(0))
      << "MatMul " << ShapeToString(a.shape()) << " x "
      << ShapeToString(b.shape());
  const int m = a.dim(0), k = a.dim(1), n = b.dim(1);
  const bool rg = AnyRequiresGrad(a, b);
  Tensor out = Tensor::MakeNode({m, n}, rg, {a, b});
  Forward(
      out, {&a, &b}, "MatMul",
      [m, n, k](const float* const* in, float* const*, float* op,
                const graph::Replay&) {
        // Arena slots are uninitialized; GEMM accumulates.
        std::fill(op, op + static_cast<size_t>(m) * n, 0.0f);
        backend::GemmNN(m, n, k, 1.0f, in[0], in[1], op);
      },
      2LL * m * n * k);
  if (rg) {
    Impl ai = a.impl().get(), bi = b.impl().get(), oi = out.impl().get();
    out.set_backward_fn([ai, bi, oi, m, k, n]() {
      const float* go = oi->grad.data();
      if (ai->requires_grad) {
        ai->EnsureGrad();
        // dA += dOut * B^T  ([m, n] x [k, n]^T).
        backend::GemmNT(m, k, n, 1.0f, go, bi->data().data(),
                        ai->grad.data());
      }
      if (bi->requires_grad) {
        bi->EnsureGrad();
        // dB += A^T * dOut  ([m, k]^T x [m, n]).
        backend::GemmTN(k, n, m, 1.0f, ai->data().data(), go,
                        bi->grad.data());
      }
    });
  }
  return out;
}

Tensor Transpose(const Tensor& a) {
  HG_CHECK_EQ(a.rank(), 2);
  const int r = a.dim(0), c = a.dim(1);
  const bool rg = AnyRequiresGrad(a);
  Tensor out = Tensor::MakeNode({c, r}, rg, {a});
  Forward(out, {&a}, "Transpose",
          [r, c](const float* const* in, float* const*, float* op,
                 const graph::Replay&) {
            const float* xd = in[0];
            for (int i = 0; i < r; ++i)
              for (int j = 0; j < c; ++j)
                op[static_cast<size_t>(j) * r + i] =
                    xd[static_cast<size_t>(i) * c + j];
          });
  if (rg) {
    Impl ai = a.impl().get(), oi = out.impl().get();
    out.set_backward_fn([ai, oi, r, c]() {
      ai->EnsureGrad();
      for (int i = 0; i < r; ++i)
        for (int j = 0; j < c; ++j)
          ai->grad[static_cast<size_t>(i) * c + j] +=
              oi->grad[static_cast<size_t>(j) * r + i];
    });
  }
  return out;
}

Tensor Reshape(const Tensor& a, const Shape& shape) {
  HG_CHECK_EQ(NumElements(shape), a.numel());
  const bool rg = AnyRequiresGrad(a);
  // Aliases the parent's storage (no buffer copy); only the gradient
  // buffers stay separate.
  Tensor out = Tensor::MakeAlias(shape, rg, a);
  if (Capturing()) graph::RecordView(out, a, 0);
  if (rg) {
    Impl ai = a.impl().get(), oi = out.impl().get();
    out.set_backward_fn([ai, oi]() {
      ai->EnsureGrad();
      backend::Accumulate(ai->data().size(), oi->grad.data(),
                          ai->grad.data());
    });
  }
  return out;
}

Tensor Flatten(const Tensor& a) {
  return Reshape(a, {static_cast<int>(a.numel())});
}

Tensor ConcatRows(const std::vector<Tensor>& parts) {
  HG_CHECK(!parts.empty());
  const int cols = parts[0].dim(1);
  int rows = 0;
  bool rg = false;
  for (const Tensor& p : parts) {
    HG_CHECK_EQ(p.rank(), 2);
    HG_CHECK_EQ(p.dim(1), cols);
    rows += p.dim(0);
    rg = rg || p.requires_grad();
  }
  rg = rg && GradModeEnabled();
  Tensor out = Tensor::MakeNode({rows, cols}, rg, parts);
  std::vector<size_t> sizes;
  sizes.reserve(parts.size());
  for (const Tensor& p : parts) sizes.push_back(p.data().size());
  ForwardParts(out, parts, "ConcatRows",
               [sizes = std::move(sizes)](const float* const* in,
                                          float* const*, float* op,
                                          const graph::Replay&) {
                 size_t offset = 0;
                 for (size_t pi = 0; pi < sizes.size(); ++pi) {
                   std::copy(in[pi], in[pi] + sizes[pi], op + offset);
                   offset += sizes[pi];
                 }
               });
  if (rg) {
    std::vector<Impl> impls;
    for (const Tensor& p : parts) impls.push_back(p.impl().get());
    Impl oi = out.impl().get();
    out.set_backward_fn([impls, oi]() {
      size_t offset = 0;
      for (const Impl& pi : impls) {
        if (pi->requires_grad) {
          pi->EnsureGrad();
          backend::Accumulate(pi->data().size(), oi->grad.data() + offset,
                              pi->grad.data());
        }
        offset += pi->data().size();
      }
    });
  }
  return out;
}

Tensor ConcatCols(const std::vector<Tensor>& parts) {
  HG_CHECK(!parts.empty());
  const int rows = parts[0].dim(0);
  int cols = 0;
  bool rg = false;
  for (const Tensor& p : parts) {
    HG_CHECK_EQ(p.rank(), 2);
    HG_CHECK_EQ(p.dim(0), rows);
    cols += p.dim(1);
    rg = rg || p.requires_grad();
  }
  rg = rg && GradModeEnabled();
  Tensor out = Tensor::MakeNode({rows, cols}, rg, parts);
  std::vector<int> widths;
  widths.reserve(parts.size());
  for (const Tensor& p : parts) widths.push_back(p.dim(1));
  // Row-wise contiguous copies (matching ConcatRows) instead of
  // per-element at/set.
  ForwardParts(out, parts, "ConcatCols",
               [widths, rows, cols](const float* const* in, float* const*,
                                    float* op, const graph::Replay& replay) {
                 const int live = replay.Rows(rows);
                 int col_offset = 0;
                 for (size_t pi = 0; pi < widths.size(); ++pi) {
                   const int pc = widths[pi];
                   const float* pd = in[pi];
                   float* od = op + col_offset;
                   for (int r = 0; r < live; ++r) {
                     std::copy(pd + static_cast<size_t>(r) * pc,
                               pd + static_cast<size_t>(r + 1) * pc,
                               od + static_cast<size_t>(r) * cols);
                   }
                   col_offset += pc;
                 }
               });
  if (rg) {
    std::vector<Impl> impls;
    for (const Tensor& p : parts) impls.push_back(p.impl().get());
    Impl oi = out.impl().get();
    out.set_backward_fn([impls, widths, oi, rows, cols]() {
      int col_offset = 0;
      for (size_t pi = 0; pi < impls.size(); ++pi) {
        const Impl& part = impls[pi];
        const int pc = widths[pi];
        if (part->requires_grad) {
          part->EnsureGrad();
          const float* go = oi->grad.data() + col_offset;
          for (int r = 0; r < rows; ++r) {
            backend::Accumulate(static_cast<size_t>(pc),
                                go + static_cast<size_t>(r) * cols,
                                part->grad.data() +
                                    static_cast<size_t>(r) * pc);
          }
        }
        col_offset += pc;
      }
    });
  }
  return out;
}

Tensor SliceRows(const Tensor& a, int begin, int end) {
  HG_CHECK_EQ(a.rank(), 2);
  HG_CHECK(begin >= 0 && begin <= end && end <= a.dim(0));
  const int cols = a.dim(1);
  const bool rg = AnyRequiresGrad(a);
  Tensor out = Tensor::MakeNode({end - begin, cols}, rg, {a});
  std::copy(a.data().begin() + static_cast<size_t>(begin) * cols,
            a.data().begin() + static_cast<size_t>(end) * cols,
            out.data().begin());
  if (Capturing()) {
    // Contiguous row range: pure view at a fixed offset.
    graph::RecordView(out, a, static_cast<size_t>(begin) * cols);
  }
  if (rg) {
    Impl ai = a.impl().get(), oi = out.impl().get();
    out.set_backward_fn([ai, oi, begin, cols]() {
      ai->EnsureGrad();
      backend::Accumulate(oi->data().size(), oi->grad.data(),
                          ai->grad.data() +
                              static_cast<size_t>(begin) * cols);
    });
  }
  return out;
}

Tensor Row(const Tensor& a, int r) { return SliceRows(a, r, r + 1); }

Tensor GatherRows(const Tensor& a, const std::vector<int>& indices) {
  HG_CHECK_EQ(a.rank(), 2);
  const int cols = a.dim(1);
  const bool rg = AnyRequiresGrad(a);
  Tensor out =
      Tensor::MakeNode({static_cast<int>(indices.size()), cols}, rg, {a});
  for (const int src : indices) HG_CHECK(src >= 0 && src < a.dim(0));
  Forward(out, {&a}, "GatherRows",
          [indices, cols](const float* const* in, float* const*, float* op,
                          const graph::Replay&) {
            const float* xd = in[0];
            for (size_t i = 0; i < indices.size(); ++i) {
              std::copy(xd + static_cast<size_t>(indices[i]) * cols,
                        xd + static_cast<size_t>(indices[i] + 1) * cols,
                        op + i * cols);
            }
          });
  if (rg) {
    Impl ai = a.impl().get(), oi = out.impl().get();
    out.set_backward_fn([ai, oi, indices, cols]() {
      ai->EnsureGrad();
      for (size_t i = 0; i < indices.size(); ++i) {
        backend::Accumulate(static_cast<size_t>(cols),
                            oi->grad.data() + i * cols,
                            ai->grad.data() +
                                static_cast<size_t>(indices[i]) * cols);
      }
    });
  }
  return out;
}

Tensor Relu(const Tensor& a) {
  return UnaryOp(
      a, "Relu", [](float x) { return x > 0 ? x : 0.0f; },
      [](float x, float) { return x > 0 ? 1.0f : 0.0f; });
}

Tensor LeakyRelu(const Tensor& a, float alpha) {
  return UnaryOp(
      a, "LeakyRelu", [alpha](float x) { return x > 0 ? x : alpha * x; },
      [alpha](float x, float) { return x > 0 ? 1.0f : alpha; });
}

Tensor Tanh(const Tensor& a) {
  return UnaryOp(
      a, "Tanh", [](float x) { return std::tanh(x); },
      [](float, float y) { return 1.0f - y * y; });
}

Tensor Sigmoid(const Tensor& a) {
  return UnaryOp(
      a, "Sigmoid", [](float x) { return 1.0f / (1.0f + std::exp(-x)); },
      [](float, float y) { return y * (1.0f - y); });
}

Tensor Gelu(const Tensor& a) {
  return UnaryBufferOp(
      a, "Gelu",
      [](size_t n, const float* x, float* y) { backend::GeluInto(n, x, y); },
      [](size_t n, const float* x, const float*, const float* gy, float* gx) {
        backend::GeluBackwardAccumulate(n, x, gy, gx);
      });
}

Tensor Exp(const Tensor& a) {
  return UnaryOp(
      a, "Exp", [](float x) { return std::exp(x); },
      [](float, float y) { return y; });
}

Tensor Sum(const Tensor& a) {
  const bool rg = AnyRequiresGrad(a);
  Tensor out = Tensor::MakeNode({1}, rg, {a});
  const size_t n = a.data().size();
  Forward(out, {&a}, "Sum",
          [n](const float* const* in, float* const*, float* op,
              const graph::Replay&) {
            float total = 0.0f;
            for (size_t i = 0; i < n; ++i) total += in[0][i];
            op[0] = total;
          });
  if (rg) {
    Impl ai = a.impl().get(), oi = out.impl().get();
    out.set_backward_fn([ai, oi]() {
      ai->EnsureGrad();
      const float g = oi->grad[0];
      for (size_t i = 0; i < ai->data().size(); ++i) ai->grad[i] += g;
    });
  }
  return out;
}

Tensor Mean(const Tensor& a) {
  return Scale(Sum(a), 1.0f / static_cast<float>(a.numel()));
}

Tensor SumRows(const Tensor& a) {
  HG_CHECK_EQ(a.rank(), 2);
  const int rows = a.dim(0), cols = a.dim(1);
  const bool rg = AnyRequiresGrad(a);
  Tensor out = Tensor::MakeNode({1, cols}, rg, {a});
  Forward(out, {&a}, "SumRows",
          [rows, cols](const float* const* in, float* const*, float* op,
                       const graph::Replay&) {
            std::fill(op, op + cols, 0.0f);
            backend::ColSumAccumulate(rows, cols, in[0], op);
          });
  if (rg) {
    Impl ai = a.impl().get(), oi = out.impl().get();
    out.set_backward_fn([ai, oi, rows, cols]() {
      ai->EnsureGrad();
      for (int r = 0; r < rows; ++r) {
        backend::Accumulate(static_cast<size_t>(cols), oi->grad.data(),
                            ai->grad.data() + static_cast<size_t>(r) * cols);
      }
    });
  }
  return out;
}

Tensor MeanRows(const Tensor& a) {
  return Scale(SumRows(a), 1.0f / static_cast<float>(a.dim(0)));
}

Tensor Softmax(const Tensor& a) {
  const int rows = a.rank() == 2 ? a.dim(0) : 1;
  const int cols = a.rank() == 2 ? a.dim(1) : a.dim(0);
  const bool rg = AnyRequiresGrad(a);
  Tensor out = Tensor::MakeNode(a.shape(), rg, {a});
  // ~5 FLOPs per element: max scan, subtract, exp, sum, divide.
  Forward(
      out, {&a}, "Softmax",
      [rows, cols](const float* const* in, float* const*, float* op,
                   const graph::Replay&) {
        backend::SoftmaxRows(rows, cols, in[0], op);
      },
      5LL * rows * cols);
  if (rg) {
    Impl ai = a.impl().get(), oi = out.impl().get();
    out.set_backward_fn([ai, oi, rows, cols]() {
      ai->EnsureGrad();
      backend::SoftmaxBackwardRows(rows, cols, oi->data().data(),
                                   oi->grad.data(), ai->grad.data());
    });
  }
  return out;
}

Tensor LayerNorm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                 float eps) {
  HG_CHECK_EQ(x.rank(), 2);
  const int rows = x.dim(0), cols = x.dim(1);
  HG_CHECK_EQ(gamma.rank(), 1);
  HG_CHECK_EQ(gamma.dim(0), cols);
  HG_CHECK_EQ(beta.dim(0), cols);
  const bool rg = GradModeEnabled() &&
                  (x.requires_grad() || gamma.requires_grad() ||
                   beta.requires_grad());
  Tensor out = Tensor::MakeNode(x.shape(), rg, {x, gamma, beta});
  // scratch[0] is xhat [rows*cols], scratch[1] the per-row inverse
  // stddev [rows].
  auto body = [rows, cols, eps](const float* const* in,
                                float* const* scratch, float* op,
                                const graph::Replay& replay) {
    backend::LayerNormRows(replay.Rows(rows), cols, eps, in[0], in[1], in[2],
                           op, scratch[0], scratch[1]);
  };
  if (!rg) {
    // Inference path: xhat/inv_std are per-call scratch. ~8 FLOPs per
    // element: mean, variance (two passes), normalize, scale + shift.
    Forward(out, {&x, &gamma, &beta}, "LayerNorm", body, 8LL * rows * cols,
            {x.data().size(), static_cast<size_t>(rows)});
    return out;
  }
  // Training path: the same body, but xhat/inv_std are kept for
  // backward. Nothing is recorded, so a capture under autograd stays
  // poisoned.
  auto inv_std = std::make_shared<std::vector<float>>(
      static_cast<size_t>(rows));
  auto xhat = std::make_shared<std::vector<float>>(x.data().size());
  {
    const float* in[] = {x.data().data(), gamma.data().data(),
                         beta.data().data()};
    float* scratch[] = {xhat->data(), inv_std->data()};
    body(in, scratch, out.data().data(), graph::Replay{});
  }
  {
    Impl xi = x.impl().get(), gi = gamma.impl().get(),
         bi = beta.impl().get(), oi = out.impl().get();
    out.set_backward_fn([xi, gi, bi, oi, inv_std, xhat, rows, cols]() {
      float* gx = nullptr;
      float* ggamma = nullptr;
      float* gbeta = nullptr;
      if (xi->requires_grad) {
        xi->EnsureGrad();
        gx = xi->grad.data();
      }
      if (gi->requires_grad) {
        gi->EnsureGrad();
        ggamma = gi->grad.data();
      }
      if (bi->requires_grad) {
        bi->EnsureGrad();
        gbeta = bi->grad.data();
      }
      backend::LayerNormBackwardRows(rows, cols, xhat->data(),
                                     inv_std->data(), gi->data().data(),
                                     oi->grad.data(), gx, ggamma, gbeta);
    });
  }
  return out;
}

Tensor LinearOp(const Tensor& x, const Tensor& w, const Tensor& bias) {
  HG_CHECK_EQ(x.rank(), 2);
  HG_CHECK_EQ(w.rank(), 2);
  HG_CHECK_EQ(x.dim(1), w.dim(0))
      << "LinearOp " << ShapeToString(x.shape()) << " x "
      << ShapeToString(w.shape());
  const int m = x.dim(0), k = x.dim(1), n = w.dim(1);
  const bool has_bias = bias.defined();
  if (has_bias) {
    HG_CHECK_EQ(bias.rank(), 1);
    HG_CHECK_EQ(bias.dim(0), n);
  }
  const bool rg =
      GradModeEnabled() &&
      (x.requires_grad() || w.requires_grad() ||
       (has_bias && bias.requires_grad()));
  std::vector<Tensor> parents = {x, w};
  if (has_bias) parents.push_back(bias);
  Tensor out = Tensor::MakeNode({m, n}, rg, std::move(parents));
  Forward(
      out, {&x, &w, &bias}, "Linear",
      [m, n, k, has_bias](const float* const* in, float* const*, float* op,
                          const graph::Replay& replay) {
        const int live = replay.Rows(m);
        std::fill(op, op + static_cast<size_t>(live) * n, 0.0f);
        backend::GemmNN(live, n, k, 1.0f, in[0], in[1], op);
        if (has_bias) backend::AddBiasRows(live, n, in[2], op);
      },
      2LL * m * n * k + (has_bias ? 1LL * m * n : 0));
  if (rg) {
    Impl xi = x.impl().get(), wi = w.impl().get(), oi = out.impl().get();
    Impl bi = has_bias ? bias.impl().get() : nullptr;
    out.set_backward_fn([xi, wi, bi, oi, m, k, n]() {
      const float* go = oi->grad.data();
      if (xi->requires_grad) {
        xi->EnsureGrad();
        // dX += dOut * W^T.
        backend::GemmNT(m, k, n, 1.0f, go, wi->data().data(),
                        xi->grad.data());
      }
      if (wi->requires_grad) {
        wi->EnsureGrad();
        // dW += X^T * dOut.
        backend::GemmTN(k, n, m, 1.0f, xi->data().data(), go,
                        wi->grad.data());
      }
      if (bi != nullptr && bi->requires_grad) {
        bi->EnsureGrad();
        backend::ColSumAccumulate(m, n, go, bi->grad.data());
      }
    });
  }
  return out;
}

Tensor AttentionScores(const Tensor& q, const Tensor& k, float scale,
                       const Tensor& mask) {
  HG_CHECK_EQ(q.rank(), 2);
  HG_CHECK_EQ(k.rank(), 2);
  HG_CHECK_EQ(q.dim(1), k.dim(1))
      << "AttentionScores " << ShapeToString(q.shape()) << " vs "
      << ShapeToString(k.shape());
  const int lq = q.dim(0), lk = k.dim(0), d = q.dim(1);
  const bool has_mask = mask.defined();
  if (has_mask) {
    HG_CHECK_EQ(mask.rank(), 2);
    HG_CHECK_EQ(mask.dim(0), lq);
    HG_CHECK_EQ(mask.dim(1), lk);
  }
  const bool rg =
      GradModeEnabled() &&
      (q.requires_grad() || k.requires_grad() ||
       (has_mask && mask.requires_grad()));
  std::vector<Tensor> parents = {q, k};
  if (has_mask) parents.push_back(mask);
  Tensor out = Tensor::MakeNode({lq, lk}, rg, std::move(parents));
  // scores = scale * Q * K^T (+ mask), softmaxed per row, all in the
  // output buffer — no Transpose node, no scores/scaled temporaries.
  // FLOPs: scaled GEMM-NT (2*lq*lk*d), optional mask add (lq*lk), and
  // row softmax (~5*lq*lk).
  Forward(
      out, {&q, &k, &mask}, "AttentionScores",
      [lq, lk, d, scale, has_mask](const float* const* in, float* const*,
                                   float* op, const graph::Replay&) {
        const size_t n = static_cast<size_t>(lq) * lk;
        std::fill(op, op + n, 0.0f);
        backend::GemmNT(lq, lk, d, scale, in[0], in[1], op);
        if (has_mask) backend::Accumulate(n, in[2], op);
        backend::SoftmaxRows(lq, lk, op, op);
      },
      2LL * lq * lk * d + (has_mask ? 1LL * lq * lk : 0) + 5LL * lq * lk);
  if (rg) {
    Impl qi = q.impl().get(), ki = k.impl().get(), oi = out.impl().get();
    Impl mi = has_mask ? mask.impl().get() : nullptr;
    out.set_backward_fn([qi, ki, mi, oi, lq, lk, d, scale]() {
      // dScores via softmax backward into a pooled scratch buffer, then
      // dQ += scale * dScores * K and dK += scale * dScores^T * Q.
      auto& pool = internal_tensor::BufferPool::ThreadLocal();
      std::vector<float> gs =
          pool.Acquire(static_cast<size_t>(lq) * lk);
      backend::SoftmaxBackwardRows(lq, lk, oi->data().data(),
                                   oi->grad.data(), gs.data());
      if (qi->requires_grad) {
        qi->EnsureGrad();
        backend::GemmNN(lq, d, lk, scale, gs.data(), ki->data().data(),
                        qi->grad.data());
      }
      if (ki->requires_grad) {
        ki->EnsureGrad();
        backend::GemmTN(lk, d, lq, scale, gs.data(), qi->data().data(),
                        ki->grad.data());
      }
      if (mi != nullptr && mi->requires_grad) {
        mi->EnsureGrad();
        backend::Accumulate(mi->data().size(), gs.data(), mi->grad.data());
      }
      internal_tensor::BufferPool::ReleaseToCurrentThread(std::move(gs));
    });
  }
  return out;
}

namespace {

/// Checks a packed sequence table against an operand of `rows` rows and
/// its query table against the sequences (each keeps 1..len of its
/// first rows; an empty table becomes `segments`, every row), and
/// returns the floats the attention blocks take, Σ qlen·len.
size_t CheckTables(std::span<const int> segments,
                   std::span<const int>& queries, int rows) {
  if (queries.empty()) queries = segments;
  HG_CHECK(segments.size() >= 2 && segments.front() == 0 &&
           segments.back() <= rows)
      << "packed attention: bad sequence table for " << rows << " rows";
  HG_CHECK(queries.size() == segments.size() && queries.front() == 0)
      << "packed attention: bad query table";
  size_t block_floats = 0;
  for (size_t s = 1; s < segments.size(); ++s) {
    const int len = segments[s] - segments[s - 1];
    const int qlen = queries[s] - queries[s - 1];
    HG_CHECK(len > 0 && qlen > 0 && qlen <= len)
        << "packed attention: sequence " << s - 1 << " has " << len
        << " rows and " << qlen << " query rows";
    block_floats += static_cast<size_t>(qlen) * static_cast<size_t>(len);
  }
  return block_floats;
}

}  // namespace

Tensor QueryRows(const Tensor& a, std::span<const int> segments,
                 std::span<const int> queries) {
  HG_CHECK_EQ(a.rank(), 2);
  HG_CHECK(!AnyRequiresGrad(a)) << "packed attention is inference only";
  const int n = a.dim(0), d = a.dim(1);
  CheckTables(segments, queries, n);
  Tensor out = Tensor::MakeNode({n, d}, false, {a});
  Forward(
      out, {&a}, "QueryRows",
      [d](const float* const* in, float* const*, float* op,
          const graph::Replay& replay) {
        const std::span<const int> seg = replay.segments;
        const std::span<const int> qry = replay.queries;
        for (size_t s = 0; s + 1 < seg.size(); ++s) {
          const size_t floats = static_cast<size_t>(qry[s + 1] - qry[s]) * d;
          const float* src = in[0] + static_cast<size_t>(seg[s]) * d;
          std::copy(src, src + floats, op + static_cast<size_t>(qry[s]) * d);
        }
      },
      -1, {}, graph::Replay{segments, queries}, {},
      /*gathers_queries=*/true);
  return out;
}

Tensor AttentionScores(const Tensor& q, const Tensor& k, float scale,
                       std::span<const int> segments,
                       std::span<const int> queries) {
  HG_CHECK_EQ(q.rank(), 2);
  HG_CHECK(q.shape() == k.shape())
      << "packed AttentionScores " << ShapeToString(q.shape()) << " vs "
      << ShapeToString(k.shape());
  HG_CHECK(!AnyRequiresGrad(q, k)) << "packed attention is inference only";
  const int n = q.dim(0), d = q.dim(1);
  const int64_t block_floats =
      static_cast<int64_t>(CheckTables(segments, queries, n));
  Tensor out = Tensor::MakeNode({n, n}, false, {q, k});
  // Per sequence, with that sequence's own length: the GEMM-NT places
  // its k-tail by n % 4 and by column, so one GEMM over the packed rows
  // would change bits. It places nothing by the row count, and every
  // output row reads only its own q row, so a qlen-row block gives each
  // query row the bits it has in the full [len, len] block. Query row i
  // sits at position i of its sequence, so the diagonal mask goes to
  // column i, added exactly as MultiHeadSelfAttention adds its [len, len]
  // mask (+0 off the diagonal); a one-row sequence gets none.
  Forward(
      out, {&q, &k}, "AttentionScores",
      [d, scale](const float* const* in, float* const*, float* op,
                 const graph::Replay& replay) {
        const std::span<const int> seg = replay.segments;
        const std::span<const int> qry = replay.queries;
        float* block = op;
        for (size_t s = 0; s + 1 < seg.size(); ++s) {
          const int len = seg[s + 1] - seg[s];
          const int qlen = qry[s + 1] - qry[s];
          const size_t floats = static_cast<size_t>(qlen) * len;
          std::fill(block, block + floats, 0.0f);
          backend::GemmNT(qlen, len, d, scale,
                          in[0] + static_cast<size_t>(qry[s]) * d,
                          in[1] + static_cast<size_t>(seg[s]) * d, block);
          for (int i = 0; len > 1 && i < qlen; ++i) {
            float* row = block + static_cast<size_t>(i) * len;
            for (int j = 0; j < len; ++j) row[j] += j == i ? -1e9f : 0.0f;
          }
          backend::SoftmaxRows(qlen, len, block, block);
          block += floats;
        }
      },
      -1, {}, graph::Replay{segments, queries},
      graph::BlockCost{block_floats, 2LL * d + 6, 1, d, d});
  return out;
}

Tensor MatMul(const Tensor& attn, const Tensor& v,
              std::span<const int> segments, std::span<const int> queries) {
  HG_CHECK_EQ(v.rank(), 2);
  const int n = v.dim(0), d = v.dim(1);
  HG_CHECK(attn.rank() == 2 && attn.dim(0) == n && attn.dim(1) == n)
      << "packed MatMul " << ShapeToString(attn.shape()) << " x "
      << ShapeToString(v.shape());
  HG_CHECK(!AnyRequiresGrad(attn, v)) << "packed attention is inference only";
  const int64_t block_floats =
      static_cast<int64_t>(CheckTables(segments, queries, n));
  Tensor out = Tensor::MakeNode({n, d}, false, {attn, v});
  Forward(
      out, {&attn, &v}, "MatMul",
      [d](const float* const* in, float* const*, float* op,
          const graph::Replay& replay) {
        const std::span<const int> seg = replay.segments;
        const std::span<const int> qry = replay.queries;
        const float* block = in[0];
        for (size_t s = 0; s + 1 < seg.size(); ++s) {
          const int len = seg[s + 1] - seg[s];
          const int qlen = qry[s + 1] - qry[s];
          float* rows = op + static_cast<size_t>(qry[s]) * d;
          std::fill(rows, rows + static_cast<size_t>(qlen) * d, 0.0f);
          backend::GemmNN(qlen, d, len, 1.0f, block,
                          in[1] + static_cast<size_t>(seg[s]) * d, rows);
          block += static_cast<size_t>(qlen) * len;
        }
      },
      -1, {}, graph::Replay{segments, queries},
      graph::BlockCost{block_floats, 2LL * d, 1, d, d});
  return out;
}

Tensor EmbeddingLookup(const Tensor& weight, const std::vector<int>& ids) {
  return GatherRows(weight, ids);
}

Tensor Dropout(const Tensor& a, float p, Rng& rng, bool training) {
  if (!training || p <= 0.0f) return a;
  HG_CHECK_LT(p, 1.0f);
  const bool rg = AnyRequiresGrad(a);
  Tensor out = Tensor::MakeNode(a.shape(), rg, {a});
  auto mask = std::make_shared<std::vector<float>>(a.data().size());
  const float keep_scale = 1.0f / (1.0f - p);
  for (size_t i = 0; i < a.data().size(); ++i) {
    const float m = rng.NextBool(p) ? 0.0f : keep_scale;
    (*mask)[i] = m;
    out.data()[i] = a.data()[i] * m;
  }
  if (rg) {
    Impl ai = a.impl().get(), oi = out.impl().get();
    out.set_backward_fn([ai, oi, mask]() {
      ai->EnsureGrad();
      backend::MulAccumulate(ai->data().size(), oi->grad.data(),
                             mask->data(), ai->grad.data());
    });
  }
  return out;
}

Tensor SoftmaxCrossEntropy(const Tensor& logits,
                           const std::vector<int>& labels,
                           Tensor* probs_out) {
  HG_CHECK_EQ(logits.rank(), 2);
  const int n = logits.dim(0), classes = logits.dim(1);
  HG_CHECK_EQ(static_cast<size_t>(n), labels.size());
  const bool rg = GradModeEnabled() && logits.requires_grad();
  Tensor out = Tensor::MakeNode({1}, rg, {logits});
  auto probs = std::make_shared<std::vector<float>>(logits.data().size());
  backend::SoftmaxRows(n, classes, logits.data().data(), probs->data());
  float loss = 0.0f;
  for (int r = 0; r < n; ++r) {
    const float* p = probs->data() + static_cast<size_t>(r) * classes;
    HG_CHECK(labels[static_cast<size_t>(r)] >= 0 &&
             labels[static_cast<size_t>(r)] < classes);
    loss -= std::log(std::max(p[labels[static_cast<size_t>(r)]], 1e-12f));
  }
  out.data()[0] = loss / static_cast<float>(n);
  if (probs_out != nullptr) {
    *probs_out = Tensor::FromVector({n, classes}, *probs);
  }
  if (rg) {
    Impl li = logits.impl().get(), oi = out.impl().get();
    out.set_backward_fn([li, oi, probs, labels, n, classes]() {
      li->EnsureGrad();
      const float g = oi->grad[0] / static_cast<float>(n);
      for (int r = 0; r < n; ++r) {
        const float* p = probs->data() + static_cast<size_t>(r) * classes;
        float* gl = li->grad.data() + static_cast<size_t>(r) * classes;
        for (int c = 0; c < classes; ++c) {
          const float onehot =
              (c == labels[static_cast<size_t>(r)]) ? 1.0f : 0.0f;
          gl[c] += g * (p[c] - onehot);
        }
      }
    });
  }
  return out;
}

}  // namespace hiergat
