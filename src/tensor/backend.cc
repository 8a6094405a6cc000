#include "tensor/backend.h"

#include <cstdint>
#include <cstdlib>
#include <cstring>

#include "obs/log.h"
#include "tensor/kernels.h"

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

}  // namespace backend
}  // namespace hiergat
