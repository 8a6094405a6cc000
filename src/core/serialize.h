#ifndef HIERGAT_CORE_SERIALIZE_H_
#define HIERGAT_CORE_SERIALIZE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/status.h"
#include "tensor/tensor.h"

namespace hiergat {

/// Versioned binary checkpoint format ("HGCK"), little-endian on every
/// host:
///
///   u32  magic            "HGCK" (0x4B434748 read as LE u32)
///   u32  format_version   currently 1
///   str  model_tag        e.g. "HierGAT" (str = u32 length + bytes)
///   u32  meta_count
///        (str key, str value) x meta_count      -- config, vocab, ...
///   u32  tensor_count
///        per tensor:
///          str  name      stable dotted path, e.g. "lm.encoder.layer0.attn.q0.weight"
///          u8   dtype     0 = f32, 1 = f16 (stored precision;
///                         in-memory tensors are always f32)
///          u8   rank
///          i32  dims[rank]
///          u64  byte_len  numel * sizeof(dtype)
///          payload        byte_len bytes, element-wise little-endian
///   u32  crc32            over every preceding byte (poly 0xEDB88320)
///
/// Validation order on read: magic -> format version -> CRC -> bounds-
/// checked parse, so corrupt and future-version files fail loudly with a
/// Status (never UB) and a version bump is reported as such rather than
/// as a checksum mismatch.
inline constexpr uint32_t kCheckpointMagic = 0x4B434748u;  // "HGCK" on disk.
inline constexpr uint32_t kCheckpointFormatVersion = 1;

/// Stored element type of a checkpoint tensor. kF16 halves fixture size
/// (used by the golden checkpoints); kF32 is lossless and the default.
/// Any other dtype byte is refused on read (2 was the retired q8_0).
enum class DType : uint8_t {
  kF32 = 0,
  kF16 = 1,
};

/// CRC-32 (IEEE 802.3, poly 0xEDB88320, init/final 0xFFFFFFFF). Exposed
/// so tests can forge/verify footers.
uint32_t Crc32(const void* data, size_t len);
uint32_t Crc32(const std::string& bytes);

/// IEEE-754 binary16 conversion (round-to-nearest-even). f16 -> f32 ->
/// f16 round-trips exactly, which is what keeps save -> load -> save of
/// an f16 checkpoint byte-identical.
uint16_t FloatToHalf(float value);
float HalfToFloat(uint16_t bits);

/// Shortest decimal rendering of a float that parses back to the same
/// bits ("%.9g"); used for float-valued checkpoint metadata.
std::string FormatFloat(float value);

/// Writes `bytes` to `path` via a temporary file + rename, so readers
/// never observe a half-written checkpoint.
Status WriteFileAtomic(const std::string& path, const std::string& bytes);

/// An ordered name -> Tensor registry. Modules register their parameters
/// by stable dotted path (see Module::RegisterParameters); the same
/// registration drives both saving (TensorWriter::AddAll) and loading
/// (TensorReader::ReadAll writes into the registered handles in place).
class NamedParameters {
 public:
  /// Registers `tensor` under prefix + `name`. Duplicate names and
  /// undefined tensors are recorded as the first error (also returned).
  Status Add(const std::string& name, const Tensor& tensor);

  /// Registers every parameter of `module` under "name." — works for any
  /// type with a RegisterParameters(NamedParameters*) const member (the
  /// template keeps core free of an nn dependency).
  template <typename M>
  void AddModule(const std::string& name, const M& module) {
    prefix_ += name;
    prefix_ += '.';
    module.RegisterParameters(this);
    prefix_.resize(prefix_.size() - name.size() - 1);
  }

  /// Registration order is the serialization order.
  const std::vector<std::pair<std::string, Tensor>>& items() const {
    return items_;
  }

  /// The registered tensors alone, in registration order (shared
  /// handles: the optimizer's parameter list).
  std::vector<Tensor> tensors() const;

  /// The registered tensor, or nullptr if absent.
  const Tensor* Find(const std::string& name) const;

  /// First error recorded by Add (duplicate name / undefined tensor).
  const Status& status() const { return status_; }

 private:
  std::string prefix_;
  std::vector<std::pair<std::string, Tensor>> items_;
  std::unordered_map<std::string, size_t> index_;
  Status status_;
};

/// Serializes named tensors plus string metadata into the checkpoint
/// format above. Everything is buffered; WriteFile is atomic.
class TensorWriter {
 public:
  explicit TensorWriter(std::string model_tag)
      : model_tag_(std::move(model_tag)) {}

  /// Sets (or overwrites) a metadata entry. Insertion order is the
  /// serialization order, so repeated Save calls are byte-stable.
  void SetMeta(const std::string& key, std::string value);
  void SetMetaInt(const std::string& key, int64_t value);
  void SetMetaFloat(const std::string& key, float value);
  void SetMetaBool(const std::string& key, bool value);

  /// Adds one tensor (values are copied). Duplicate names, undefined
  /// tensors, and rank > 8 are InvalidArgument.
  Status Add(const std::string& name, const Tensor& tensor,
             DType dtype = DType::kF32);

  /// Adds every registered tensor, failing on any registration error.
  Status AddAll(const NamedParameters& params, DType dtype = DType::kF32);

  /// The complete serialized checkpoint (header, tensors, CRC footer).
  std::string SerializeToString() const;

  /// Serializes and writes atomically to `path`.
  Status WriteFile(const std::string& path) const;

 private:
  struct Entry {
    std::string name;
    Shape shape;
    std::vector<float> values;
    DType dtype;
  };

  std::string model_tag_;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::unordered_map<std::string, size_t> meta_index_;
  std::vector<Entry> entries_;
  std::unordered_map<std::string, size_t> entry_index_;
};

/// Parses and validates a checkpoint, then serves tensor reads into
/// pre-allocated tensors (the reader never constructs tensors itself, so
/// core needs no tensor-library symbols at link time).
class TensorReader {
 public:
  /// Reads and validates `path`. Truncated/corrupt files, wrong magic,
  /// and future format versions all return descriptive errors.
  static StatusOr<TensorReader> Open(const std::string& path);

  /// Same, over an in-memory image (takes ownership of the bytes).
  static StatusOr<TensorReader> Parse(std::string bytes);

  const std::string& model_tag() const { return model_tag_; }

  /// Metadata value, or nullptr if the key is absent.
  const std::string* FindMeta(const std::string& key) const;

  /// Metadata accessors that fail with NotFound / InvalidArgument.
  StatusOr<std::string> GetMeta(const std::string& key) const;
  StatusOr<int64_t> GetMetaInt(const std::string& key) const;
  StatusOr<float> GetMetaFloat(const std::string& key) const;
  StatusOr<bool> GetMetaBool(const std::string& key) const;

  bool Contains(const std::string& name) const;

  /// Shape of a stored tensor, or nullptr if absent.
  const Shape* FindShape(const std::string& name) const;

  /// Decodes tensor `name` into `out`'s existing storage. Fails with
  /// NotFound for unknown names and InvalidArgument on shape mismatch.
  Status ReadInto(const std::string& name, Tensor* out) const;

  /// Strict bulk load: the registered name set must exactly equal the
  /// checkpoint's (missing and unexpected tensors are both errors), and
  /// every shape must match. Values are decoded into the registered
  /// handles in place.
  Status ReadAll(const NamedParameters& params) const;

  /// Total size of the validated checkpoint image.
  size_t file_bytes() const { return bytes_.size(); }

 private:
  struct Entry {
    Shape shape;
    DType dtype;
    size_t payload_offset;
    int64_t numel;
  };

  TensorReader() = default;
  Status ParseImage();

  std::string bytes_;
  std::string model_tag_;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::unordered_map<std::string, size_t> meta_index_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, Entry> entries_;
};

}  // namespace hiergat

#endif  // HIERGAT_CORE_SERIALIZE_H_
