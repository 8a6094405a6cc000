#include "tensor/ops.h"

#include <algorithm>
#include <cmath>

#include "core/logging.h"
#include "tensor/backend.h"
#include "tensor/graph.h"
#include "tensor/pool.h"
#include "tensor/threadpool.h"

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

// Every op below executes eagerly as always; under an active
// GraphCapture it additionally records a replay closure over its raw
// dimensions (see tensor/graph.h). The Capturing() gate keeps the
// closure/std::function construction entirely off the non-capture path.
bool Capturing() { return graph::GraphCapture::Active(); }

/// Applies a scalar function and its derivative as a unary op. `name`
/// labels the replay node (static lifetime, used for trace spans).
template <typename Fwd, typename Bwd>
Tensor UnaryOp(const Tensor& a, const char* name, Fwd fwd, Bwd bwd) {
  const bool rg = AnyRequiresGrad(a);
  Tensor out = Tensor::MakeNode(a.shape(), rg, {a});
  const size_t n = a.data().size();
  const float* ad = a.data().data();
  float* od = out.data().data();
  for (size_t i = 0; i < n; ++i) od[i] = fwd(ad[i]);
  if (Capturing()) {
    graph::Record(out, {a}, name,
                  [n, fwd](const float* const* in, float* const*, float* op,
                           ThreadPool*) {
                    const float* xd = in[0];
                    for (size_t i = 0; i < n; ++i) op[i] = fwd(xd[i]);
                  });
  }
  if (rg) {
    Impl ai = a.impl().get();
    Impl oi = out.impl().get();
    out.set_backward_fn([ai, oi, bwd]() {
      ai->EnsureGrad();
      const size_t n = ai->data().size();
      const float* ad = ai->data().data();
      const float* od = oi->data().data();
      const float* go = oi->grad.data();
      float* ga = ai->grad.data();
      for (size_t i = 0; i < n; ++i) ga[i] += go[i] * bwd(ad[i], od[i]);
    });
  }
  return out;
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  const bool rg = AnyRequiresGrad(a, b);
  if (IsBiasBroadcast(a, b)) {
    Tensor out = Tensor::MakeNode(a.shape(), rg, {a, b});
    const int rows = a.dim(0), cols = a.dim(1);
    std::copy(a.data().begin(), a.data().end(), out.data().begin());
    backend::AddBiasRows(rows, cols, b.data().data(), out.data().data());
    if (Capturing()) {
      graph::Record(out, {a, b}, "Add(bias)",
                    [rows, cols](const float* const* in, float* const*,
                                 float* op, ThreadPool*) {
                      const size_t n = static_cast<size_t>(rows) * cols;
                      std::copy(in[0], in[0] + n, op);
                      backend::AddBiasRows(rows, cols, in[1], op);
                    });
    }
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
  backend::AddInto(a.data().size(), a.data().data(), b.data().data(),
                   out.data().data());
  if (Capturing()) {
    const size_t n = a.data().size();
    graph::Record(out, {a, b}, "Add",
                  [n](const float* const* in, float* const*, float* op,
                      ThreadPool*) { backend::AddInto(n, in[0], in[1], op); });
  }
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
    const float* ad = a.data().data();
    const float* bd = b.data().data();
    float* od = out.data().data();
    for (int r = 0; r < rows; ++r) {
      backend::SubInto(static_cast<size_t>(cols),
                       ad + static_cast<size_t>(r) * cols, bd,
                       od + static_cast<size_t>(r) * cols);
    }
    if (Capturing()) {
      graph::Record(out, {a, b}, "Sub(bias)",
                    [rows, cols](const float* const* in, float* const*,
                                 float* op, ThreadPool*) {
                      for (int r = 0; r < rows; ++r) {
                        backend::SubInto(static_cast<size_t>(cols),
                                         in[0] + static_cast<size_t>(r) * cols,
                                         in[1],
                                         op + static_cast<size_t>(r) * cols);
                      }
                    });
    }
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
  backend::SubInto(a.data().size(), a.data().data(), b.data().data(),
                   out.data().data());
  if (Capturing()) {
    const size_t n = a.data().size();
    graph::Record(out, {a, b}, "Sub",
                  [n](const float* const* in, float* const*, float* op,
                      ThreadPool*) { backend::SubInto(n, in[0], in[1], op); });
  }
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
  backend::MulInto(a.data().size(), a.data().data(), b.data().data(),
                   out.data().data());
  if (Capturing()) {
    const size_t n = a.data().size();
    graph::Record(out, {a, b}, "Mul",
                  [n](const float* const* in, float* const*, float* op,
                      ThreadPool*) { backend::MulInto(n, in[0], in[1], op); });
  }
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
  backend::ScaleInto(a.data().size(), s, a.data().data(),
                     out.data().data());
  if (Capturing()) {
    const size_t n = a.data().size();
    graph::Record(out, {a}, "Scale",
                  [n, s](const float* const* in, float* const*, float* op,
                         ThreadPool*) { backend::ScaleInto(n, s, in[0], op); });
  }
  if (rg) {
    Impl ai = a.impl().get(), oi = out.impl().get();
    out.set_backward_fn([ai, oi, s]() {
      ai->EnsureGrad();
      backend::Axpy(ai->data().size(), s, oi->grad.data(), ai->grad.data());
    });
  }
  return out;
}

Tensor AddScalar(const Tensor& a, float s) {
  return UnaryOp(
      a, "AddScalar", [s](float x) { return x + s; },
      [](float, float) { return 1.0f; });
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
  // Fresh buffers come from the pool zero-filled, so the accumulating
  // GEMM kernel computes plain assignment here.
  backend::GemmNN(m, n, k, 1.0f, a.data().data(), b.data().data(),
                  out.data().data());
  if (Capturing()) {
    graph::Record(out, {a, b}, "MatMul",
                  [m, n, k](const float* const* in, float* const*, float* op,
                            ThreadPool* pool) {
                    // Arena slots are uninitialized; GEMM accumulates.
                    std::fill(op, op + static_cast<size_t>(m) * n, 0.0f);
                    backend::ParallelGemmNN(pool, m, n, k, 1.0f, in[0], in[1],
                                            op);
                  },
                  {}, 2LL * m * n * k);
  }
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
  const float* ad = a.data().data();
  float* od = out.data().data();
  for (int i = 0; i < r; ++i)
    for (int j = 0; j < c; ++j)
      od[static_cast<size_t>(j) * r + i] = ad[static_cast<size_t>(i) * c + j];
  if (Capturing()) {
    graph::Record(out, {a}, "Transpose",
                  [r, c](const float* const* in, float* const*, float* op,
                         ThreadPool*) {
                    const float* xd = in[0];
                    for (int i = 0; i < r; ++i)
                      for (int j = 0; j < c; ++j)
                        op[static_cast<size_t>(j) * r + i] =
                            xd[static_cast<size_t>(i) * c + j];
                  });
  }
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
  size_t offset = 0;
  for (const Tensor& p : parts) {
    std::copy(p.data().begin(), p.data().end(), out.data().begin() + offset);
    offset += p.data().size();
  }
  if (Capturing()) {
    std::vector<size_t> sizes;
    sizes.reserve(parts.size());
    for (const Tensor& p : parts) sizes.push_back(p.data().size());
    graph::Record(out, parts, "ConcatRows",
                  [sizes](const float* const* in, float* const*, float* op,
                          ThreadPool*) {
                    size_t offset = 0;
                    for (size_t pi = 0; pi < sizes.size(); ++pi) {
                      std::copy(in[pi], in[pi] + sizes[pi], op + offset);
                      offset += sizes[pi];
                    }
                  });
  }
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
  // Row-wise contiguous copies (matching ConcatRows) instead of
  // per-element at/set.
  int col_offset = 0;
  for (const Tensor& p : parts) {
    const int pc = p.dim(1);
    const float* pd = p.data().data();
    float* od = out.data().data() + col_offset;
    for (int r = 0; r < rows; ++r) {
      std::copy(pd + static_cast<size_t>(r) * pc,
                pd + static_cast<size_t>(r + 1) * pc,
                od + static_cast<size_t>(r) * cols);
    }
    col_offset += pc;
  }
  if (Capturing()) {
    std::vector<int> widths;
    widths.reserve(parts.size());
    for (const Tensor& p : parts) widths.push_back(p.dim(1));
    graph::Record(out, parts, "ConcatCols",
                  [widths, rows, cols](const float* const* in, float* const*,
                                       float* op, ThreadPool*) {
                    int col_offset = 0;
                    for (size_t pi = 0; pi < widths.size(); ++pi) {
                      const int pc = widths[pi];
                      const float* pd = in[pi];
                      float* od = op + col_offset;
                      for (int r = 0; r < rows; ++r) {
                        std::copy(pd + static_cast<size_t>(r) * pc,
                                  pd + static_cast<size_t>(r + 1) * pc,
                                  od + static_cast<size_t>(r) * cols);
                      }
                      col_offset += pc;
                    }
                  });
  }
  if (rg) {
    std::vector<Impl> impls;
    std::vector<int> widths;
    for (const Tensor& p : parts) {
      impls.push_back(p.impl().get());
      widths.push_back(p.dim(1));
    }
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

Tensor SliceCols(const Tensor& a, int begin, int end) {
  HG_CHECK_EQ(a.rank(), 2);
  HG_CHECK(begin >= 0 && begin <= end && end <= a.dim(1));
  const int rows = a.dim(0), cols = a.dim(1), width = end - begin;
  const bool rg = AnyRequiresGrad(a);
  Tensor out = Tensor::MakeNode({rows, width}, rg, {a});
  const float* ad = a.data().data() + begin;
  float* od = out.data().data();
  for (int r = 0; r < rows; ++r) {
    std::copy(ad + static_cast<size_t>(r) * cols,
              ad + static_cast<size_t>(r) * cols + width,
              od + static_cast<size_t>(r) * width);
  }
  if (Capturing()) {
    graph::Record(out, {a}, "SliceCols",
                  [rows, cols, begin, width](const float* const* in,
                                             float* const*, float* op,
                                             ThreadPool*) {
                    const float* xd = in[0] + begin;
                    for (int r = 0; r < rows; ++r) {
                      std::copy(xd + static_cast<size_t>(r) * cols,
                                xd + static_cast<size_t>(r) * cols + width,
                                op + static_cast<size_t>(r) * width);
                    }
                  });
  }
  if (rg) {
    Impl ai = a.impl().get(), oi = out.impl().get();
    out.set_backward_fn([ai, oi, rows, cols, begin, width]() {
      ai->EnsureGrad();
      float* ga = ai->grad.data() + begin;
      for (int r = 0; r < rows; ++r) {
        backend::Accumulate(static_cast<size_t>(width),
                            oi->grad.data() + static_cast<size_t>(r) * width,
                            ga + static_cast<size_t>(r) * cols);
      }
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
  for (size_t i = 0; i < indices.size(); ++i) {
    const int src = indices[i];
    HG_CHECK(src >= 0 && src < a.dim(0));
    std::copy(a.data().begin() + static_cast<size_t>(src) * cols,
              a.data().begin() + static_cast<size_t>(src + 1) * cols,
              out.data().begin() + i * cols);
  }
  if (Capturing()) {
    graph::Record(out, {a}, "GatherRows",
                  [indices, cols](const float* const* in, float* const*,
                                  float* op, ThreadPool*) {
                    const float* xd = in[0];
                    for (size_t i = 0; i < indices.size(); ++i) {
                      std::copy(xd + static_cast<size_t>(indices[i]) * cols,
                                xd + static_cast<size_t>(indices[i] + 1) * cols,
                                op + i * cols);
                    }
                  });
  }
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
  constexpr float kInvSqrt2 = 0.7071067811865475f;
  constexpr float kInvSqrt2Pi = 0.3989422804014327f;
  return UnaryOp(
      a, "Gelu",
      [](float x) { return 0.5f * x * (1.0f + std::erf(x * kInvSqrt2)); },
      [](float x, float) {
        const float cdf = 0.5f * (1.0f + std::erf(x * kInvSqrt2));
        const float pdf = kInvSqrt2Pi * std::exp(-0.5f * x * x);
        return cdf + x * pdf;
      });
}

Tensor Exp(const Tensor& a) {
  return UnaryOp(
      a, "Exp", [](float x) { return std::exp(x); },
      [](float, float y) { return y; });
}

Tensor Log(const Tensor& a) {
  return UnaryOp(
      a, "Log", [](float x) { return std::log(std::max(x, 1e-12f)); },
      [](float x, float) { return 1.0f / std::max(x, 1e-12f); });
}

Tensor Sum(const Tensor& a) {
  const bool rg = AnyRequiresGrad(a);
  Tensor out = Tensor::MakeNode({1}, rg, {a});
  float total = 0.0f;
  for (float v : a.data()) total += v;
  out.data()[0] = total;
  if (Capturing()) {
    const size_t n = a.data().size();
    graph::Record(out, {a}, "Sum",
                  [n](const float* const* in, float* const*, float* op,
                      ThreadPool*) {
                    float total = 0.0f;
                    for (size_t i = 0; i < n; ++i) total += in[0][i];
                    op[0] = total;
                  });
  }
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
  backend::ColSumAccumulate(rows, cols, a.data().data(), out.data().data());
  if (Capturing()) {
    graph::Record(out, {a}, "SumRows",
                  [rows, cols](const float* const* in, float* const*,
                               float* op, ThreadPool*) {
                    std::fill(op, op + cols, 0.0f);
                    backend::ColSumAccumulate(rows, cols, in[0], op);
                  });
  }
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
  backend::SoftmaxRows(rows, cols, a.data().data(), out.data().data());
  if (Capturing()) {
    // ~5 FLOPs per element: max scan, subtract, exp, sum, divide.
    graph::Record(out, {a}, "Softmax",
                  [rows, cols](const float* const* in, float* const*,
                               float* op, ThreadPool* pool) {
                    backend::ParallelSoftmaxRows(pool, rows, cols, in[0], op);
                  },
                  {}, 5LL * rows * cols);
  }
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
  if (!rg) {
    // Inference path: the kernel still needs xhat/inv_std scratch, but
    // nothing outlives the call — borrow it from the pool.
    auto& pool = internal_tensor::BufferPool::ThreadLocal();
    std::vector<float> xhat = pool.Acquire(x.data().size());
    std::vector<float> inv_std = pool.Acquire(static_cast<size_t>(rows));
    backend::LayerNormRows(rows, cols, eps, x.data().data(),
                           gamma.data().data(), beta.data().data(),
                           out.data().data(), xhat.data(), inv_std.data());
    pool.Release(std::move(xhat));
    pool.Release(std::move(inv_std));
    if (Capturing()) {
      // ~8 FLOPs per element: mean, variance (two passes), normalize,
      // scale + shift.
      graph::Record(
          out, {x, gamma, beta}, "LayerNorm",
          [rows, cols, eps](const float* const* in, float* const* scratch,
                            float* op, ThreadPool* pool) {
            backend::ParallelLayerNormRows(pool, rows, cols, eps, in[0],
                                           in[1], in[2], op, scratch[0],
                                           scratch[1]);
          },
          {x.data().size(), static_cast<size_t>(rows)},
          8LL * rows * cols);
    }
    return out;
  }
  // Cache per-row inverse stddev and normalized values for backward.
  auto inv_std = std::make_shared<std::vector<float>>(
      static_cast<size_t>(rows));
  auto xhat = std::make_shared<std::vector<float>>(x.data().size());
  backend::LayerNormRows(rows, cols, eps, x.data().data(),
                         gamma.data().data(), beta.data().data(),
                         out.data().data(), xhat->data(), inv_std->data());
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
  backend::GemmNN(m, n, k, 1.0f, x.data().data(), w.data().data(),
                  out.data().data());
  if (has_bias) {
    backend::AddBiasRows(m, n, bias.data().data(), out.data().data());
  }
  if (Capturing()) {
    std::vector<Tensor> rec_inputs = {x, w};
    if (has_bias) rec_inputs.push_back(bias);
    graph::Record(out, rec_inputs, "Linear",
                  [m, n, k, has_bias](const float* const* in, float* const*,
                                      float* op, ThreadPool* pool) {
                    std::fill(op, op + static_cast<size_t>(m) * n, 0.0f);
                    backend::ParallelGemmNN(pool, m, n, k, 1.0f, in[0], in[1],
                                            op);
                    if (has_bias) backend::AddBiasRows(m, n, in[2], op);
                  },
                  {}, 2LL * m * n * k + (has_bias ? 1LL * m * n : 0));
  }
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
  float* od = out.data().data();
  backend::GemmNT(lq, lk, d, scale, q.data().data(), k.data().data(), od);
  if (has_mask) {
    backend::Accumulate(out.data().size(), mask.data().data(), od);
  }
  backend::SoftmaxRows(lq, lk, od, od);
  if (Capturing()) {
    std::vector<Tensor> rec_inputs = {q, k};
    if (has_mask) rec_inputs.push_back(mask);
    // Fused scaled GEMM-NT (2*lq*lk*d), optional mask add (lq*lk), and
    // row softmax (~5*lq*lk).
    graph::Record(out, rec_inputs, "AttentionScores",
                  [lq, lk, d, scale, has_mask](const float* const* in,
                                               float* const*, float* op,
                                               ThreadPool* pool) {
                    std::fill(op, op + static_cast<size_t>(lq) * lk, 0.0f);
                    backend::ParallelGemmNT(pool, lq, lk, d, scale, in[0],
                                            in[1], op);
                    if (has_mask) {
                      backend::Accumulate(static_cast<size_t>(lq) * lk, in[2],
                                          op);
                    }
                    backend::ParallelSoftmaxRows(pool, lq, lk, op, op);
                  },
                  {},
                  2LL * lq * lk * d + (has_mask ? 1LL * lq * lk : 0) +
                      5LL * lq * lk);
  }
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
