// Tensor-core micro-bench: throughput of the kernelized ops (GEMM,
// fused Linear, row-softmax, row-layernorm) at HierGAT-realistic shapes
// (token sequences of a few dozen rows, feature dims d in {64,128,256}),
// a head-to-head of the blocked SGEMM kernel against the seed i-k-j
// scalar loop it replaced, and per-call GEMM cost at the 2..8-row
// shapes the small LM scores with (gemm_small.*), and the blocking
// kernels against the loops they replaced (ann.*, embed.*). Emits
// hiergat-bench-v1 JSON via --json_out=PATH (validated by
// tools/check_bench_json.py).

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#endif

#include "bench_common.h"
#include "core/rng.h"
#include "tensor/backend.h"
#include "tensor/graph.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/pool.h"
#include "tensor/tensor.h"

namespace hiergat {
namespace {

double Seconds(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// The seed MatMul inner loop (pre-kernel ops.cc), kept verbatim as the
/// baseline the 2x acceptance bar is measured against.
void SeedGemmIkj(int m, int n, int k, const float* ad, const float* bd,
                 float* od) {
  for (int i = 0; i < m; ++i) {
    for (int kk = 0; kk < k; ++kk) {
      const float av = ad[static_cast<size_t>(i) * k + kk];
      if (av == 0.0f) continue;
      const float* brow = bd + static_cast<size_t>(kk) * n;
      float* orow = od + static_cast<size_t>(i) * n;
      for (int j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
}

/// int8 entries in [-127, 127], the ANN quantizer's range.
std::vector<int8_t> RandomI8(size_t n, Rng& rng) {
  std::vector<int8_t> v(n);
  for (int8_t& x : v) {
    x = static_cast<int8_t>(static_cast<int>(rng.NextUint64(255)) - 127);
  }
  return v;
}

/// The ANN index's int8 dot before the backend registry took it: one row
/// per call through a pointer picked at load time, the scalar loop or
/// AVX2 madd. Kept as the reference of ann.dot_i8_rows.*.
using LoopDotQ = int32_t (*)(const int8_t*, const int8_t*, int);

int32_t LoopDotQScalar(const int8_t* a, const int8_t* b, int dim) {
  int32_t s = 0;
  for (int i = 0; i < dim; ++i) {
    s += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
  }
  return s;
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
__attribute__((target("avx2"))) int32_t LoopDotQAvx2(const int8_t* a,
                                                     const int8_t* b,
                                                     int dim) {
  __m256i acc = _mm256_setzero_si256();
  int i = 0;
  for (; i + 32 <= dim; i += 32) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const __m256i alo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(va));
    const __m256i ahi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256(va, 1));
    const __m256i blo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(vb));
    const __m256i bhi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256(vb, 1));
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(alo, blo));
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(ahi, bhi));
  }
  __m128i quad = _mm_add_epi32(_mm256_castsi256_si128(acc),
                               _mm256_extracti128_si256(acc, 1));
  quad = _mm_add_epi32(quad, _mm_srli_si128(quad, 8));
  quad = _mm_add_epi32(quad, _mm_srli_si128(quad, 4));
  int32_t out = _mm_cvtsi128_si32(quad);
  for (; i < dim; ++i) {
    out += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
  }
  return out;
}
#endif

LoopDotQ PickLoopDotQ() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  if (std::strcmp(backend::ActiveName(), "scalar") != 0 &&
      __builtin_cpu_supports("avx2")) {
    return LoopDotQAvx2;
  }
#endif
  return LoopDotQScalar;
}

/// The word-vector generator before the counter form: one splitmix64
/// step per component. Kept as the reference of embed.ngram.*.
void SequentialNgram(uint64_t hash, int dim, float* acc) {
  uint64_t state = hash;
  for (int d = 0; d < dim; ++d) {
    state += 0x9e3779b97f4a7c15ULL;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    float sum = 0.0f;
    for (int i = 0; i < 4; ++i) {
      sum += static_cast<float>((z >> (i * 16)) & 0xffff) / 65536.0f;
    }
    acc[d] += (sum - 2.0f) * 1.732f;
  }
}

/// Median wall-seconds of `reps` timed calls to `fn` (after one warmup).
template <typename Fn>
std::vector<double> TimeReps(int reps, Fn fn) {
  fn();  // Warmup: page in buffers, prime the pool.
  std::vector<double> times;
  times.reserve(static_cast<size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    times.push_back(Seconds(start));
  }
  return times;
}

double Flops(int m, int n, int k) {
  return 2.0 * static_cast<double>(m) * n * k;
}

int main_impl(int argc, char** argv) {
  bench::PrintHeader(
      "Tensor op kernels",
      "blocked/unrolled SGEMM and fused Linear/softmax/layernorm kernels "
      "outperform the seed scalar loops at model-realistic shapes");

  const int reps = bench::IntEnv("HIERGAT_BENCH_TENSOR_REPS", 30);
  const int inner = bench::IntEnv("HIERGAT_BENCH_TENSOR_INNER", 8);
  Rng rng(42);

  bench::BenchResult result("tensor_ops");
  result.AddParam("reps", reps);
  result.AddParam("inner_iters", inner);
  result.AddParam("dims", "64,128,256");

  bench::Table table("Tensor op kernels (single thread)",
                     {"op", "shape", "p50 us/call", "GFLOP/s"});

  // -- Headline: kernel GEMM vs the seed i-k-j loop at [128x128]^2 ----
  const int kHead = 128;
  std::vector<float> a(static_cast<size_t>(kHead) * kHead);
  std::vector<float> b(a.size());
  std::vector<float> c(a.size(), 0.0f);
  for (float& v : a) v = rng.NextGaussian();
  for (float& v : b) v = rng.NextGaussian();

  const std::vector<double> seed_times = TimeReps(reps, [&] {
    for (int i = 0; i < inner; ++i)
      SeedGemmIkj(kHead, kHead, kHead, a.data(), b.data(), c.data());
  });
  const std::vector<double> kernel_times = TimeReps(reps, [&] {
    for (int i = 0; i < inner; ++i)
      kernels::GemmNN(kHead, kHead, kHead, 1.0f, a.data(), b.data(),
                      c.data());
  });
  const double seed_p50 = bench::PercentileOf(seed_times, 0.5) / inner;
  const double kern_p50 = bench::PercentileOf(kernel_times, 0.5) / inner;
  const double speedup = seed_p50 / kern_p50;
  const double kern_gflops = Flops(kHead, kHead, kHead) / kern_p50 / 1e9;
  table.AddRow({"gemm seed i-k-j", "[128,128]x[128,128]",
                bench::Fmt(seed_p50 * 1e6),
                bench::Fmt(Flops(kHead, kHead, kHead) / seed_p50 / 1e9, 2)});
  table.AddRow({"gemm kernel", "[128,128]x[128,128]",
                bench::Fmt(kern_p50 * 1e6), bench::Fmt(kern_gflops, 2)});
  table.AddSeparator();
  result.AddMetric("gemm128.seed_us", seed_p50 * 1e6);
  result.AddMetric("gemm128.kernel_us", kern_p50 * 1e6);
  result.AddMetric("gemm128.speedup_vs_seed", speedup);
  result.AddMetric("gemm128.kernel_gflops", kern_gflops);

  // Backward-shape variants at the same size.
  for (const char* variant : {"nt", "tn"}) {
    const bool nt = variant[0] == 'n';
    const std::vector<double> times = TimeReps(reps, [&] {
      for (int i = 0; i < inner; ++i) {
        if (nt) {
          kernels::GemmNT(kHead, kHead, kHead, 1.0f, a.data(), b.data(),
                          c.data());
        } else {
          kernels::GemmTN(kHead, kHead, kHead, 1.0f, a.data(), b.data(),
                          c.data());
        }
      }
    });
    const double p50 = bench::PercentileOf(times, 0.5) / inner;
    table.AddRow({std::string("gemm ") + variant + " (backward)",
                  "[128,128]x[128,128]", bench::Fmt(p50 * 1e6),
                  bench::Fmt(Flops(kHead, kHead, kHead) / p50 / 1e9, 2)});
    result.AddMetric(std::string("gemm128.") + variant + "_us", p50 * 1e6);
  }
  table.AddSeparator();

  // -- Small-shape GEMM at the scoring shapes -------------------------
  // The small LM (dim 32, two heads of 16, FFN 64) runs every GEMM over
  // 2..14-row sequences, so row counts that are not a multiple of the
  // 4-row micro-tile are the common case. The d64/128/256 rows above
  // all use 24 rows and cannot see a slow row remainder; these rows
  // time NN at m in {2,4,6,8} and the attention-score NT (L x L x 16).
  // The two ratios compare a row count against the next multiple of 4,
  // which does the same or more work: a healthy kernel keeps them <= ~1.
  // Per-call p50 us of each batch of `calls_per_batch` calls. The
  // batches run interleaved rep by rep, so a slow phase of a shared host
  // hits the variants a ratio compares alike.
  auto per_call_us = [&](const std::vector<std::function<void()>>& calls,
                         int calls_per_batch) {
    std::vector<std::vector<double>> times(calls.size());
    for (const auto& call : calls) call();  // Warmup.
    for (int r = 0; r < reps; ++r) {
      for (size_t c = 0; c < calls.size(); ++c) {
        const auto start = std::chrono::steady_clock::now();
        calls[c]();
        times[c].push_back(Seconds(start));
      }
    }
    std::vector<double> us;
    for (const auto& t : times) {
      us.push_back(bench::PercentileOf(t, 0.5) / calls_per_batch * 1e6);
    }
    return us;
  };
  bench::Table small_table("Small-shape GEMM (single thread)",
                           {"op", "shape", "p50 us/call", "GFLOP/s"});
  {
    const int small_inner = inner * 250;
    std::vector<float> sa(96 * 96), sb(96 * 96), sc(96 * 96, 0.0f);
    for (float& v : sa) v = rng.NextGaussian();
    for (float& v : sb) v = rng.NextGaussian();
    double m2_over_m4 = 0.0, m6_over_m8 = 0.0;
    struct KN {
      int k, n;
    };
    const int kRowCounts[] = {2, 4, 6, 8};
    for (const KN kn : {KN{32, 16}, KN{32, 96}, KN{64, 32}}) {
      std::vector<std::function<void()>> calls;
      for (const int m : kRowCounts) {
        calls.push_back([&, m] {
          for (int i = 0; i < small_inner; ++i) {
            backend::GemmNN(m, kn.n, kn.k, 1.0f, sa.data(), sb.data(),
                            sc.data());
          }
        });
      }
      const std::vector<double> us = per_call_us(calls, small_inner);
      for (size_t r = 0; r < us.size(); ++r) {
        const int m = kRowCounts[r];
        const std::string mkn = "m" + std::to_string(m) + "k" +
                                std::to_string(kn.k) + "n" +
                                std::to_string(kn.n);
        small_table.AddRow({"gemm nn", mkn, bench::Fmt(us[r], 3),
                            bench::Fmt(Flops(m, kn.n, kn.k) / us[r] / 1e3, 2)});
        result.AddMetric("gemm_small.nn." + mkn + "_us", us[r]);
      }
      if (kn.n == 16) m2_over_m4 = us[0] / us[1];
      if (kn.n == 96) m6_over_m8 = us[2] / us[3];
    }
    const int kLens[] = {4, 8, 12};
    std::vector<std::function<void()>> nt_calls;
    for (const int len : kLens) {
      nt_calls.push_back([&, len] {
        for (int i = 0; i < small_inner; ++i) {
          backend::GemmNT(len, len, 16, 0.25f, sa.data(), sb.data(),
                          sc.data());
        }
      });
    }
    const std::vector<double> nt_us = per_call_us(nt_calls, small_inner);
    for (size_t r = 0; r < nt_us.size(); ++r) {
      const int len = kLens[r];
      const std::string key = "L" + std::to_string(len) + "k16";
      small_table.AddRow({"gemm nt (scores)", key, bench::Fmt(nt_us[r], 3),
                          bench::Fmt(Flops(len, len, 16) / nt_us[r] / 1e3, 2)});
      result.AddMetric("gemm_small.nt." + key + "_us", nt_us[r]);
    }
    result.AddMetric("gemm_small.m6_over_m8_us", m6_over_m8);
    result.AddMetric("gemm_small.m2_over_m4_us", m2_over_m4);
    std::printf(
        "small-shape gemm: m=6 costs %.2fx m=8 at k=32 n=96, m=2 costs "
        "%.2fx m=4 at k=32 n=16\n\n",
        m6_over_m8, m2_over_m4);
  }

  // -- GELU: polynomial erf vs std::erf --------------------------------
  // The encoder FFN activation over [24, 64] rows: the Gelu op (the
  // active backend's vectorized polynomial erf, kernel_body.inc) against
  // the scalar std::erf loop it replaced, written out here.
  {
    const int gelu_inner = inner * 50;
    const Tensor x = Tensor::Randn({24, 64}, rng);
    const std::vector<float>& xs = x.data();
    std::vector<float> ys(xs.size());
    NoGradGuard guard;
    const std::vector<double> us = per_call_us(
        {[&] {
           for (int i = 0; i < gelu_inner; ++i) {
             Tensor out = Gelu(x);
             (void)out;
           }
         },
         [&] {
           for (int i = 0; i < gelu_inner; ++i) {
             for (size_t j = 0; j < xs.size(); ++j) {
               ys[j] = 0.5f * xs[j] *
                       (1.0f + std::erf(xs[j] * 0.7071067811865475f));
             }
             // Keeps the stores of every batch call.
             asm volatile("" : : "r"(ys.data()) : "memory");
           }
         }},
        gelu_inner);
    result.AddMetric("gelu.d64.us", us[0]);
    result.AddMetric("gelu.d64.std_us", us[1]);
    result.AddMetric("gelu.d64.speedup_vs_std", us[1] / us[0]);
    std::printf("gelu [24,64]: %.2f us/call vs %.2f us/call with std::erf "
                "(%.2fx)\n\n",
                us[0], us[1], us[1] / us[0]);
  }

  // -- Blocking kernels: batched int8 rows, counter-form n-grams -------
  // The ANN index build dots one query against a gathered list of int8
  // rows (a layer-0 list holds 48 at the bench's M 24, dim 128): the
  // active backend's one call per list against the per-row loop through
  // a dot pointer that the index ran before. The hashed word vectors add
  // one n-gram's 128 components per call: the active backend's counter
  // form against the sequential splitmix64 loop it replaced.
  {
    constexpr int kDim = 128;
    constexpr int kTableRows = 4096;
    constexpr int kListLen = 48;
    constexpr int kLists = 64;
    const std::vector<int8_t> table = RandomI8(
        static_cast<size_t>(kTableRows) * kDim, rng);
    const std::vector<int8_t> query = RandomI8(kDim, rng);
    std::vector<int32_t> slots(static_cast<size_t>(kLists) * kListLen);
    for (int32_t& slot : slots) {
      slot = static_cast<int32_t>(rng.NextUint64(kTableRows));
    }
    std::vector<int32_t> dots(kListLen);
    const LoopDotQ loop_dot = PickLoopDotQ();
    const int dot_inner = inner * 20;
    const std::vector<double> dot_us = per_call_us(
        {[&] {
           for (int i = 0; i < dot_inner; ++i) {
             backend::DotI8Rows(kDim, query.data(), table.data(),
                                slots.data() + (i % kLists) * kListLen,
                                kListLen, dots.data());
             asm volatile("" : : "r"(dots.data()) : "memory");
           }
         },
         [&] {
           for (int i = 0; i < dot_inner; ++i) {
             const int32_t* list = slots.data() + (i % kLists) * kListLen;
             for (int r = 0; r < kListLen; ++r) {
               dots[static_cast<size_t>(r)] = loop_dot(
                   query.data(),
                   table.data() + static_cast<size_t>(list[r]) * kDim, kDim);
             }
             asm volatile("" : : "r"(dots.data()) : "memory");
           }
         }},
        dot_inner * kListLen);
    result.AddMetric("ann.dot_i8_rows.d128.ns_per_row", dot_us[0] * 1e3);
    result.AddMetric("ann.dot_i8_rows.d128.loop_ns_per_row", dot_us[1] * 1e3);
    result.AddMetric("ann.dot_i8_rows.d128.speedup_vs_loop",
                     dot_us[1] / dot_us[0]);
    std::printf("int8 dot, 48 gathered rows of 128: %.2f ns/row batched vs "
                "%.2f ns/row per-row loop (%.2fx)\n",
                dot_us[0] * 1e3, dot_us[1] * 1e3, dot_us[1] / dot_us[0]);

    const int ngram_inner = inner * 100;
    std::vector<float> acc(kDim, 0.0f);
    const std::vector<double> ngram_us = per_call_us(
        {[&] {
           for (int i = 0; i < ngram_inner; ++i) {
             backend::HashedNgramAccumulate(static_cast<uint64_t>(i), kDim,
                                            acc.data());
             asm volatile("" : : "r"(acc.data()) : "memory");
           }
         },
         [&] {
           for (int i = 0; i < ngram_inner; ++i) {
             SequentialNgram(static_cast<uint64_t>(i), kDim, acc.data());
             asm volatile("" : : "r"(acc.data()) : "memory");
           }
         }},
        ngram_inner);
    result.AddMetric("embed.ngram.d128.us", ngram_us[0]);
    result.AddMetric("embed.ngram.d128.sequential_us", ngram_us[1]);
    result.AddMetric("embed.ngram.d128.speedup_vs_sequential",
                     ngram_us[1] / ngram_us[0]);
    std::printf("hashed n-gram, dim 128: %.3f us/n-gram counter form vs "
                "%.3f us sequential (%.2fx)\n\n",
                ngram_us[0], ngram_us[1], ngram_us[1] / ngram_us[0]);
  }

  // -- Graph-level ops at HierGAT-realistic shapes --------------------
  // Sequences of tokens (rows ~ 24, one attribute value) against weight
  // matrices of d in {64, 128, 256}.
  const int kRows = 24;
  std::vector<double> all_latencies;
  for (int d : {64, 128, 256}) {
    Tensor x = Tensor::Randn({kRows, d}, rng);
    Tensor w = Tensor::Randn({d, d}, rng);
    Tensor bias = Tensor::Randn({d}, rng);
    Tensor gamma = Tensor::Full({d}, 1.0f);
    Tensor beta = Tensor::Zeros({d});
    Tensor q = Tensor::Randn({kRows, d}, rng);
    Tensor k = Tensor::Randn({kRows, d}, rng);
    NoGradGuard guard;  // Inference path: value-only nodes, pooled churn.
    const std::string shape =
        "[" + std::to_string(kRows) + "," + std::to_string(d) + "]";
    struct OpCase {
      const char* name;
      std::function<Tensor()> run;
      double flops;
    };
    const OpCase cases[] = {
        {"MatMul", [&] { return MatMul(x, w); }, Flops(kRows, d, d)},
        {"Linear (fused)", [&] { return LinearOp(x, w, bias); },
         Flops(kRows, d, d)},
        {"AttentionScores", [&] { return AttentionScores(q, k, 0.125f); },
         Flops(kRows, kRows, d)},
        {"Softmax", [&] { return Softmax(x); },
         static_cast<double>(kRows) * d * 3},
        {"LayerNorm", [&] { return LayerNorm(x, gamma, beta); },
         static_cast<double>(kRows) * d * 4},
    };
    for (const OpCase& op : cases) {
      const std::vector<double> times = TimeReps(reps, [&] {
        for (int i = 0; i < inner; ++i) {
          Tensor out = op.run();
          (void)out;
        }
      });
      const double p50 = bench::PercentileOf(times, 0.5) / inner;
      all_latencies.push_back(p50);
      table.AddRow({op.name, shape + "x[" + std::to_string(d) + "]",
                    bench::Fmt(p50 * 1e6),
                    bench::Fmt(op.flops / p50 / 1e9, 2)});
      std::string key = op.name;
      for (char& ch : key) {
        if (ch == ' ' || ch == '(' || ch == ')') ch = '_';
      }
      result.AddMetric(key + ".d" + std::to_string(d) + ".us", p50 * 1e6);
    }
    table.AddSeparator();
  }

  // -- Compiled graph replay vs eager (DESIGN.md §11) -----------------
  // The same NoGrad op chains the scoring path runs, captured once via
  // GraphCapture and replayed through the planned arena, against eager
  // re-execution with its per-op Tensor/pool/dispatch traffic. Two
  // chains: a [24,d] encoder block (compute-leaning) and a [1,d]
  // compare/classify row chain (overhead-bound — where the planner's
  // win is largest).
  bench::Table graph_table(
      "Compiled graph replay vs eager (single thread)",
      {"chain", "shape", "eager us", "replay us", "speedup"});
  {
    NoGradGuard guard;
    const int d = 64;

    // Encoder block at [24,64]: attention + residual + feed-forward,
    // with a constant position table the capture folds away and a CLS
    // readout the planner elides to a view.
    Tensor w1 = Tensor::Randn({d, d}, rng);
    Tensor b1 = Tensor::Randn({d}, rng);
    Tensor w2 = Tensor::Randn({d, d}, rng);
    Tensor b2 = Tensor::Randn({d}, rng);
    Tensor gamma = Tensor::Full({d}, 1.0f);
    Tensor beta = Tensor::Zeros({d});
    Tensor pos = Tensor::Randn({kRows, d}, rng);
    auto encoder = [&](const Tensor& in) {
      Tensor x0 = Add(in, Scale(pos, 0.125f));
      Tensor h = LinearOp(x0, w1, b1);
      Tensor attn = Softmax(AttentionScores(h, h, 0.125f));
      Tensor mixed = LayerNorm(Add(MatMul(attn, h), x0), gamma, beta);
      Tensor ff = Relu(LinearOp(mixed, w2, b2));
      Tensor out = LayerNorm(Add(ff, mixed), gamma, beta);
      return SliceRows(out, 0, 1);
    };

    // Compare/classify row chain at [1,64]: elementwise features over a
    // summary pair, concat, two-layer classifier head, softmax.
    Tensor wc1 = Tensor::Randn({4 * d, d}, rng);
    Tensor bc1 = Tensor::Randn({d}, rng);
    Tensor wc2 = Tensor::Randn({d, 2}, rng);
    Tensor bc2 = Tensor::Randn({2}, rng);
    auto compare = [&](const Tensor& left, const Tensor& right) {
      Tensor features =
          ConcatCols({left, right, Mul(left, right), Sub(left, right)});
      Tensor hidden = Relu(LinearOp(features, wc1, bc1));
      return Softmax(LinearOp(hidden, wc2, bc2));
    };

    struct GraphCase {
      const char* name;
      std::string shape;
      std::vector<Tensor> live_inputs;
      std::unique_ptr<graph::CompiledGraph> compiled;
      std::function<Tensor()> eager;
    };
    std::vector<GraphCase> graph_cases;

    {
      GraphCase gcase;
      gcase.name = "encoder block";
      gcase.shape = "[24," + std::to_string(d) + "]";
      gcase.live_inputs = {Tensor::Randn({kRows, d}, rng)};
      graph::GraphCapture capture;
      Tensor traced = Tensor::Zeros({kRows, d});
      capture.MarkInput(traced);
      Tensor out = encoder(traced);
      capture.MarkOutput(out);
      auto compiled_or = capture.Finish();
      if (!compiled_or.ok()) {
        std::fprintf(stderr, "encoder capture failed: %s\n",
                     compiled_or.status().ToString().c_str());
        return 1;
      }
      gcase.compiled = std::move(compiled_or).value();
      gcase.eager = [&, inputs = gcase.live_inputs] {
        return encoder(inputs[0]);
      };
      graph_cases.push_back(std::move(gcase));
    }
    {
      GraphCase gcase;
      gcase.name = "compare+classify";
      gcase.shape = "[1," + std::to_string(d) + "]x2";
      gcase.live_inputs = {Tensor::Randn({1, d}, rng),
                           Tensor::Randn({1, d}, rng)};
      graph::GraphCapture capture;
      Tensor left = Tensor::Zeros({1, d});
      Tensor right = Tensor::Zeros({1, d});
      capture.MarkInput(left);
      capture.MarkInput(right);
      Tensor out = compare(left, right);
      capture.MarkOutput(out);
      auto compiled_or = capture.Finish();
      if (!compiled_or.ok()) {
        std::fprintf(stderr, "compare capture failed: %s\n",
                     compiled_or.status().ToString().c_str());
        return 1;
      }
      gcase.compiled = std::move(compiled_or).value();
      gcase.eager = [&, inputs = gcase.live_inputs] {
        return compare(inputs[0], inputs[1]);
      };
      graph_cases.push_back(std::move(gcase));
    }

    for (GraphCase& gcase : graph_cases) {
      std::vector<const float*> in_ptrs;
      for (const Tensor& t : gcase.live_inputs) {
        in_ptrs.push_back(t.data().data());
      }
      std::vector<float> out_buf(
          static_cast<size_t>(gcase.compiled->output_size(0)));
      float* out_ptr = out_buf.data();

      // Correctness guard: replay must be bit-identical to eager.
      const Tensor reference = gcase.eager();
      gcase.compiled->Run(in_ptrs.data(), &out_ptr);
      for (size_t i = 0; i < out_buf.size(); ++i) {
        if (out_buf[i] != reference.data()[i]) {
          std::fprintf(stderr, "%s: replay diverges from eager at %zu\n",
                       gcase.name, i);
          return 1;
        }
      }

      const std::vector<double> eager_times = TimeReps(reps, [&] {
        for (int i = 0; i < inner; ++i) {
          Tensor out = gcase.eager();
          (void)out;
        }
      });
      const std::vector<double> replay_times = TimeReps(reps, [&] {
        for (int i = 0; i < inner; ++i) {
          gcase.compiled->Run(in_ptrs.data(), &out_ptr);
        }
      });
      const double eager_p50 = bench::PercentileOf(eager_times, 0.5) / inner;
      const double replay_p50 = bench::PercentileOf(replay_times, 0.5) / inner;
      all_latencies.push_back(replay_p50);
      graph_table.AddRow({gcase.name, gcase.shape,
                          bench::Fmt(eager_p50 * 1e6),
                          bench::Fmt(replay_p50 * 1e6),
                          bench::Fmt(eager_p50 / replay_p50, 2) + "x"});

      const graph::PlanStats& stats = gcase.compiled->stats();
      std::string key = gcase.name[0] == 'e' ? "graph.encoder" : "graph.compare";
      result.AddMetric(key + ".eager_us", eager_p50 * 1e6);
      result.AddMetric(key + ".replay_us", replay_p50 * 1e6);
      result.AddMetric(key + ".speedup_vs_eager", eager_p50 / replay_p50);
      result.AddMetric(key + ".plan_bytes",
                       static_cast<double>(stats.plan_bytes));
      result.AddMetric(key + ".eager_bytes",
                       static_cast<double>(stats.eager_bytes));
      result.AddMetric(key + ".arena_reuse",
                       1.0 - static_cast<double>(stats.plan_bytes) /
                                 static_cast<double>(stats.eager_bytes));
      result.AddMetric(key + ".folded_nodes",
                       static_cast<double>(stats.num_folded));
      result.AddMetric(key + ".view_values",
                       static_cast<double>(stats.num_views));
      result.AddMetric(key + ".nodes", static_cast<double>(stats.num_nodes));
    }
  }

  // Pool engagement during the loop above (thread-local stats).
  const auto& pool_stats =
      internal_tensor::BufferPool::ThreadLocal().stats();
  result.AddMetric("pool.hits", static_cast<double>(pool_stats.hits));
  result.AddMetric("pool.misses", static_cast<double>(pool_stats.misses));
  result.AddMetric("pool.bytes_reused",
                   static_cast<double>(pool_stats.bytes_reused));

  table.Print();
  small_table.Print();
  graph_table.Print();
  std::printf(
      "\ngemm [128,128]x[128,128]: kernel %.1f us vs seed %.1f us "
      "(%.2fx)\npool: %lld hits / %lld misses\n",
      kern_p50 * 1e6, seed_p50 * 1e6, speedup,
      static_cast<long long>(pool_stats.hits),
      static_cast<long long>(pool_stats.misses));

  result.SetLatencies(all_latencies);
  result.set_throughput(Flops(kHead, kHead, kHead) / kern_p50);
  const std::string json_path = bench::JsonOutPath(argc, argv);
  if (!bench::WriteBenchJson(json_path, result)) return 1;
  return 0;
}

}  // namespace
}  // namespace hiergat

int main(int argc, char** argv) { return hiergat::main_impl(argc, argv); }
