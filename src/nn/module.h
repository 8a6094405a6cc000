#ifndef HIERGAT_NN_MODULE_H_
#define HIERGAT_NN_MODULE_H_

#include <vector>

#include "core/logging.h"
#include "core/serialize.h"
#include "tensor/tensor.h"

namespace hiergat {

/// Base class for neural-network building blocks.
///
/// A Module owns trainable Tensors (parameters) and names each of them
/// once, in RegisterParameters. That one registration drives saving,
/// loading and the optimizer's list (Parameters), so a tensor cannot be
/// trained without being checkpointed, or the other way round. Modules
/// are neither copyable nor movable once constructed (parameters are
/// shared state referenced by optimizers).
class Module {
 public:
  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;
  virtual ~Module() = default;

  /// Registers this module's parameters in `out` under stable dotted
  /// names ("encoder.layer0.attn.q0.weight", ...). Composite modules
  /// call AddModule per submodule. Registration order is the order of
  /// Parameters() and of the checkpoint.
  virtual void RegisterParameters(NamedParameters* out) const = 0;

  /// All trainable parameters of this module (recursively), as shared
  /// handles in registration order, so optimizers update them in place.
  std::vector<Tensor> Parameters() const {
    NamedParameters named;
    RegisterParameters(&named);
    HG_CHECK(named.status().ok()) << named.status().ToString();
    return named.tensors();
  }
};

/// Appends `extra` to `into` (helper for composing Parameters()).
inline void AppendParameters(std::vector<Tensor>* into,
                             const std::vector<Tensor>& extra) {
  into->insert(into->end(), extra.begin(), extra.end());
}

}  // namespace hiergat

#endif  // HIERGAT_NN_MODULE_H_
