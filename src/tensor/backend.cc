#include "tensor/backend.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>

#include "obs/log.h"
#include "tensor/kernels.h"
#include "tensor/threadpool.h"

namespace hiergat {
namespace backend {

#if defined(HIERGAT_HAVE_AVX2_TU)
// Defined in backend_avx2.cc (same kernel bodies, -mavx2).
const Kernels* Avx2Backend();
#endif

namespace {

/// The scalar reference table: the kernels:: symbols compiled at the
/// baseline ISA.
const Kernels* ScalarBackend() {
  static const Kernels table = {
      "scalar",
      &kernels::GemmNN,
      &kernels::GemmNT,
      &kernels::GemmTN,
      &kernels::Gemv,
      &kernels::Axpy,
      &kernels::Accumulate,
      &kernels::AddInto,
      &kernels::SubInto,
      &kernels::MulInto,
      &kernels::MulAccumulate,
      &kernels::ScaleInto,
      &kernels::GeluInto,
      &kernels::GeluBackwardAccumulate,
      &kernels::AddBiasRows,
      &kernels::ColSumAccumulate,
      &kernels::SoftmaxRows,
      &kernels::SoftmaxBackwardRows,
      &kernels::LayerNormRows,
      &kernels::LayerNormBackwardRows,
      &kernels::Dot,
      &kernels::DotI8Rows,
      &kernels::HashedNgramAccumulate,
  };
  return &table;
}

#if defined(__aarch64__)
/// On aarch64 the baseline ISA already includes NEON, so the compiler
/// vectorizes the reference TU with NEON and the "native" backend is
/// the same table under its ISA name.
const Kernels* NeonBackend() {
  static const Kernels table = [] {
    Kernels t = *ScalarBackend();
    t.name = "neon";
    return t;
  }();
  return &table;
}
#endif

/// Builds the registry: scalar first, then every native backend usable
/// on the running CPU (best last).
std::vector<const Kernels*> BuildRegistry() {
  std::vector<const Kernels*> backends;
  backends.push_back(ScalarBackend());
#if defined(HIERGAT_HAVE_AVX2_TU)
  if (__builtin_cpu_supports("avx2")) backends.push_back(Avx2Backend());
#endif
#if defined(__aarch64__)
  backends.push_back(NeonBackend());
#endif
  return backends;
}

/// Applies the HIERGAT_BACKEND override ("scalar" | "native" | exact
/// backend name); defaults to the best registered native backend.
const Kernels* ResolveActive() {
  const std::vector<const Kernels*>& backends = Registered();
  const Kernels* native = backends.back();
  const char* env = std::getenv("HIERGAT_BACKEND");
  if (env == nullptr || env[0] == '\0' ||
      std::strcmp(env, "native") == 0) {
    return native;
  }
  for (const Kernels* b : backends) {
    if (std::strcmp(env, b->name) == 0) return b;
  }
  HG_LOG(WARN) << "HIERGAT_BACKEND=" << env
               << " matches no registered backend; using "
               << native->name;
  return native;
}

}  // namespace

const std::vector<const Kernels*>& Registered() {
  static const std::vector<const Kernels*> backends = BuildRegistry();
  return backends;
}

const Kernels& Active() {
  static const Kernels* active = ResolveActive();
  return *active;
}

const char* ActiveName() { return Active().name; }

// -- Parallel wrappers ---------------------------------------------------

namespace {

// Minimum work before a kernel fans out: below this, dispatch overhead
// (one epoch bump + chunk claims) exceeds the compute being split.
constexpr int64_t kMinParallelFlops = 64 * 1024;  // multiply-adds
constexpr int64_t kMinParallelElems = 8 * 1024;   // row-op elements

// GEMM row chunks stay aligned to the 4-row micro-tile height (kMR in
// kernel_body.inc).
constexpr int kGemmRowMultiple = 4;

/// True when a parallel wrapper should just run the serial kernel.
bool RunSerial(const ThreadPool* pool, int rows, int64_t work,
               int64_t min_work) {
  return pool == nullptr || pool->num_threads() <= 1 || rows < 2 ||
         work < min_work || InParallelChunk();
}

/// Rows per chunk targeting ~4 chunks per lane, rounded up to
/// `multiple` with a floor of one multiple. Depends only on the shape
/// and the lane count, never on timing (chunk boundaries are part of
/// the bit-identity contract).
int64_t RowGrain(int rows, int lanes, int multiple) {
  const int64_t target =
      (static_cast<int64_t>(rows) + 4 * lanes - 1) / (4 * lanes);
  const int64_t aligned =
      (target + multiple - 1) / multiple * static_cast<int64_t>(multiple);
  return std::max<int64_t>(multiple, aligned);
}

}  // namespace

void ParallelGemmNN(ThreadPool* pool, int m, int n, int k, float alpha,
                    const float* a, const float* b, float* c) {
  const Kernels& kr = Active();
  const int64_t flops = static_cast<int64_t>(m) * n * k;
  if (RunSerial(pool, m, flops, kMinParallelFlops)) {
    kr.gemm_nn(m, n, k, alpha, a, b, c);
    return;
  }
  pool->ParallelFor(0, m,
                    RowGrain(m, pool->num_threads(), kGemmRowMultiple),
                    [=, &kr](int64_t r0, int64_t r1) {
                      kr.gemm_nn(static_cast<int>(r1 - r0), n, k, alpha,
                                 a + r0 * k, b, c + r0 * n);
                    });
}

void ParallelGemmNT(ThreadPool* pool, int m, int n, int k, float alpha,
                    const float* a, const float* b, float* c) {
  const Kernels& kr = Active();
  const int64_t flops = static_cast<int64_t>(m) * n * k;
  if (RunSerial(pool, m, flops, kMinParallelFlops)) {
    kr.gemm_nt(m, n, k, alpha, a, b, c);
    return;
  }
  pool->ParallelFor(0, m,
                    RowGrain(m, pool->num_threads(), kGemmRowMultiple),
                    [=, &kr](int64_t r0, int64_t r1) {
                      kr.gemm_nt(static_cast<int>(r1 - r0), n, k, alpha,
                                 a + r0 * k, b, c + r0 * n);
                    });
}

void ParallelSoftmaxRows(ThreadPool* pool, int rows, int cols,
                         const float* x, float* y) {
  const Kernels& kr = Active();
  const int64_t elems = static_cast<int64_t>(rows) * cols;
  if (RunSerial(pool, rows, elems, kMinParallelElems)) {
    kr.softmax_rows(rows, cols, x, y);
    return;
  }
  pool->ParallelFor(0, rows, RowGrain(rows, pool->num_threads(), 1),
                    [=, &kr](int64_t r0, int64_t r1) {
                      kr.softmax_rows(static_cast<int>(r1 - r0), cols,
                                      x + r0 * cols, y + r0 * cols);
                    });
}

void ParallelLayerNormRows(ThreadPool* pool, int rows, int cols, float eps,
                           const float* x, const float* gamma,
                           const float* beta, float* y, float* xhat,
                           float* inv_std) {
  const Kernels& kr = Active();
  const int64_t elems = static_cast<int64_t>(rows) * cols;
  if (RunSerial(pool, rows, elems, kMinParallelElems)) {
    kr.layer_norm_rows(rows, cols, eps, x, gamma, beta, y, xhat, inv_std);
    return;
  }
  pool->ParallelFor(0, rows, RowGrain(rows, pool->num_threads(), 1),
                    [=, &kr](int64_t r0, int64_t r1) {
                      kr.layer_norm_rows(static_cast<int>(r1 - r0), cols,
                                         eps, x + r0 * cols, gamma, beta,
                                         y + r0 * cols, xhat + r0 * cols,
                                         inv_std + r0);
                    });
}

}  // namespace backend
}  // namespace hiergat
