#include "core/serialize.h"

#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "core/logging.h"

namespace hiergat {

namespace {

// The checkpoint format caps ranks at 8 (this library only uses 1-2) and
// tensor payloads at 1 GiB — both are corruption tripwires, not real
// limits.
constexpr int kMaxRank = 8;
constexpr uint64_t kMaxPayloadBytes = 1ull << 30;

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU16(std::string* out, uint16_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutI32(std::string* out, int32_t v) {
  PutU32(out, static_cast<uint32_t>(v));
}

void PutString(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

void PutF32(std::string* out, float v) {
  uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU32(out, bits);
}

/// Bounds-checked sequential reader over a byte image. Every read
/// returns an error instead of walking past `limit`, so even an image
/// whose CRC was forged cannot cause out-of-bounds access.
class Cursor {
 public:
  Cursor(const std::string& bytes, size_t limit)
      : bytes_(bytes), limit_(limit) {}

  size_t pos() const { return pos_; }
  size_t remaining() const { return limit_ - pos_; }

  Status ReadU8(uint8_t* out) {
    HG_RETURN_IF_ERROR(Require(1));
    *out = static_cast<uint8_t>(bytes_[pos_++]);
    return Status::Ok();
  }

  Status ReadU32(uint32_t* out) {
    HG_RETURN_IF_ERROR(Require(4));
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(bytes_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    *out = v;
    return Status::Ok();
  }

  Status ReadU64(uint64_t* out) {
    HG_RETURN_IF_ERROR(Require(8));
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(bytes_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    *out = v;
    return Status::Ok();
  }

  Status ReadI32(int32_t* out) {
    uint32_t v = 0;
    HG_RETURN_IF_ERROR(ReadU32(&v));
    *out = static_cast<int32_t>(v);
    return Status::Ok();
  }

  Status ReadString(std::string* out) {
    uint32_t len = 0;
    HG_RETURN_IF_ERROR(ReadU32(&len));
    HG_RETURN_IF_ERROR(Require(len));
    out->assign(bytes_, pos_, len);
    pos_ += len;
    return Status::Ok();
  }

  Status Skip(size_t n) {
    HG_RETURN_IF_ERROR(Require(n));
    pos_ += n;
    return Status::Ok();
  }

 private:
  Status Require(size_t n) {
    if (n > limit_ - pos_) {
      return Status::IOError("checkpoint truncated at offset " +
                             std::to_string(pos_));
    }
    return Status::Ok();
  }

  const std::string& bytes_;
  size_t limit_;
  size_t pos_ = 0;
};

std::string LocalShapeString(const Shape& shape) {
  std::string out = "[";
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(shape[i]);
  }
  out += "]";
  return out;
}

/// Per-element size of a stored dtype.
size_t DTypeSize(DType dtype) { return dtype == DType::kF16 ? 2 : 4; }

}  // namespace

uint32_t Crc32(const void* data, size_t len) {
  static const auto table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ p[i]) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

uint32_t Crc32(const std::string& bytes) {
  return Crc32(bytes.data(), bytes.size());
}

uint16_t FloatToHalf(float value) {
  uint32_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  const uint32_t sign = (bits >> 16) & 0x8000u;
  const int32_t exponent =
      static_cast<int32_t>((bits >> 23) & 0xffu) - 127 + 15;
  uint32_t mantissa = bits & 0x7fffffu;

  if (exponent >= 0x1f) {
    // Overflow -> inf; NaN keeps a mantissa bit.
    const bool is_nan = ((bits & 0x7fffffffu) > 0x7f800000u);
    return static_cast<uint16_t>(sign | 0x7c00u | (is_nan ? 0x200u : 0));
  }
  if (exponent <= 0) {
    if (exponent < -10) return static_cast<uint16_t>(sign);  // Underflow.
    // Subnormal: shift in the implicit leading 1, round to nearest even.
    mantissa |= 0x800000u;
    const int shift = 14 - exponent;
    uint32_t half_mantissa = mantissa >> shift;
    const uint32_t rem = mantissa & ((1u << shift) - 1);
    const uint32_t halfway = 1u << (shift - 1);
    if (rem > halfway || (rem == halfway && (half_mantissa & 1))) {
      ++half_mantissa;
    }
    return static_cast<uint16_t>(sign | half_mantissa);
  }
  uint32_t half = sign | (static_cast<uint32_t>(exponent) << 10) |
                  (mantissa >> 13);
  const uint32_t rem = mantissa & 0x1fffu;
  if (rem > 0x1000u || (rem == 0x1000u && (half & 1))) {
    ++half;  // Rounding may carry into the exponent; that is correct.
  }
  return static_cast<uint16_t>(half);
}

float HalfToFloat(uint16_t bits) {
  const uint32_t sign = static_cast<uint32_t>(bits & 0x8000u) << 16;
  const uint32_t exponent = (bits >> 10) & 0x1fu;
  const uint32_t mantissa = bits & 0x3ffu;
  uint32_t out;
  if (exponent == 0) {
    if (mantissa == 0) {
      out = sign;  // Signed zero.
    } else {
      // Subnormal half: normalize into a f32 exponent. A leading 1 at
      // mantissa bit p encodes 2^(p-24), i.e. f32 biased exponent
      // 103 + p = 112 - e after e = 9 - p shifts.
      int e = -1;
      uint32_t m = mantissa;
      do {
        ++e;
        m <<= 1;
      } while ((m & 0x400u) == 0);
      out = sign | (static_cast<uint32_t>(112 - e) << 23) |
            ((m & 0x3ffu) << 13);
    }
  } else if (exponent == 0x1f) {
    out = sign | 0x7f800000u | (mantissa << 13);  // Inf / NaN.
  } else {
    out = sign | ((exponent + 112) << 23) | (mantissa << 13);
  }
  float value;
  std::memcpy(&value, &out, sizeof(value));
  return value;
}

std::string FormatFloat(float value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", static_cast<double>(value));
  return buf;
}

Status WriteFileAtomic(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::IOError("cannot open '" + tmp + "' for writing");
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out) {
      return Status::IOError("short write to '" + tmp + "'");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("cannot rename '" + tmp + "' to '" + path + "'");
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------
// NamedParameters

Status NamedParameters::Add(const std::string& name, const Tensor& tensor) {
  Status status;
  const std::string full = prefix_ + name;
  if (!tensor.defined()) {
    status = Status::InvalidArgument("undefined tensor registered as '" +
                                     full + "'");
  } else if (index_.count(full) > 0) {
    status = Status::InvalidArgument("duplicate parameter name '" + full +
                                     "'");
  } else {
    index_.emplace(full, items_.size());
    items_.emplace_back(full, tensor);
    return Status::Ok();
  }
  if (status_.ok()) status_ = status;
  return status;
}

std::vector<Tensor> NamedParameters::tensors() const {
  std::vector<Tensor> out;
  out.reserve(items_.size());
  for (const auto& item : items_) out.push_back(item.second);
  return out;
}

const Tensor* NamedParameters::Find(const std::string& name) const {
  const auto it = index_.find(name);
  if (it == index_.end()) return nullptr;
  return &items_[it->second].second;
}

// ---------------------------------------------------------------------
// TensorWriter

void TensorWriter::SetMeta(const std::string& key, std::string value) {
  const auto it = meta_index_.find(key);
  if (it != meta_index_.end()) {
    meta_[it->second].second = std::move(value);
    return;
  }
  meta_index_.emplace(key, meta_.size());
  meta_.emplace_back(key, std::move(value));
}

void TensorWriter::SetMetaInt(const std::string& key, int64_t value) {
  SetMeta(key, std::to_string(value));
}

void TensorWriter::SetMetaFloat(const std::string& key, float value) {
  SetMeta(key, FormatFloat(value));
}

void TensorWriter::SetMetaBool(const std::string& key, bool value) {
  SetMeta(key, value ? "1" : "0");
}

Status TensorWriter::Add(const std::string& name, const Tensor& tensor,
                         DType dtype) {
  if (!tensor.defined()) {
    return Status::InvalidArgument("cannot serialize undefined tensor '" +
                                   name + "'");
  }
  if (entry_index_.count(name) > 0) {
    return Status::InvalidArgument("duplicate tensor name '" + name + "'");
  }
  if (tensor.rank() > kMaxRank) {
    return Status::InvalidArgument("tensor '" + name + "' has rank " +
                                   std::to_string(tensor.rank()));
  }
  entry_index_.emplace(name, entries_.size());
  entries_.push_back({name, tensor.shape(), tensor.data(), dtype});
  return Status::Ok();
}

Status TensorWriter::AddAll(const NamedParameters& params, DType dtype) {
  HG_RETURN_IF_ERROR(params.status());
  for (const auto& [name, tensor] : params.items()) {
    HG_RETURN_IF_ERROR(Add(name, tensor, dtype));
  }
  return Status::Ok();
}

std::string TensorWriter::SerializeToString() const {
  std::string out;
  PutU32(&out, kCheckpointMagic);
  PutU32(&out, kCheckpointFormatVersion);
  PutString(&out, model_tag_);
  PutU32(&out, static_cast<uint32_t>(meta_.size()));
  for (const auto& [key, value] : meta_) {
    PutString(&out, key);
    PutString(&out, value);
  }
  PutU32(&out, static_cast<uint32_t>(entries_.size()));
  for (const Entry& entry : entries_) {
    PutString(&out, entry.name);
    PutU8(&out, static_cast<uint8_t>(entry.dtype));
    PutU8(&out, static_cast<uint8_t>(entry.shape.size()));
    for (int d : entry.shape) PutI32(&out, d);
    PutU64(&out, entry.values.size() * DTypeSize(entry.dtype));
    if (entry.dtype == DType::kF16) {
      for (float v : entry.values) PutU16(&out, FloatToHalf(v));
    } else {
      for (float v : entry.values) PutF32(&out, v);
    }
  }
  PutU32(&out, Crc32(out));
  return out;
}

Status TensorWriter::WriteFile(const std::string& path) const {
  return WriteFileAtomic(path, SerializeToString());
}

// ---------------------------------------------------------------------
// TensorReader

StatusOr<TensorReader> TensorReader::Open(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError("cannot open checkpoint '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!in.good() && !in.eof()) {
    return Status::IOError("error reading checkpoint '" + path + "'");
  }
  return Parse(std::move(buffer).str());
}

StatusOr<TensorReader> TensorReader::Parse(std::string bytes) {
  TensorReader reader;
  reader.bytes_ = std::move(bytes);
  HG_RETURN_IF_ERROR(reader.ParseImage());
  return reader;
}

Status TensorReader::ParseImage() {
  // Header checks first: a wrong-magic or future-version file gets a
  // precise diagnosis instead of a generic checksum failure.
  if (bytes_.size() < 12) {
    return Status::IOError("checkpoint too small (" +
                           std::to_string(bytes_.size()) + " bytes)");
  }
  Cursor header(bytes_, bytes_.size());
  uint32_t magic = 0;
  uint32_t version = 0;
  HG_RETURN_IF_ERROR(header.ReadU32(&magic));
  HG_RETURN_IF_ERROR(header.ReadU32(&version));
  if (magic != kCheckpointMagic) {
    return Status::InvalidArgument("not a hiergat checkpoint (bad magic)");
  }
  if (version > kCheckpointFormatVersion) {
    return Status::InvalidArgument(
        "checkpoint format version " + std::to_string(version) +
        " is newer than supported version " +
        std::to_string(kCheckpointFormatVersion));
  }

  // CRC covers everything but the 4-byte footer.
  const size_t body_len = bytes_.size() - 4;
  Cursor footer(bytes_, bytes_.size());
  HG_RETURN_IF_ERROR(footer.Skip(body_len));
  uint32_t stored_crc = 0;
  HG_RETURN_IF_ERROR(footer.ReadU32(&stored_crc));
  const uint32_t actual_crc = Crc32(bytes_.data(), body_len);
  if (stored_crc != actual_crc) {
    return Status::IOError("checkpoint checksum mismatch (corrupt or "
                           "truncated file)");
  }

  Cursor cursor(bytes_, body_len);
  HG_RETURN_IF_ERROR(cursor.Skip(8));  // magic + version, checked above
  HG_RETURN_IF_ERROR(cursor.ReadString(&model_tag_));

  uint32_t meta_count = 0;
  HG_RETURN_IF_ERROR(cursor.ReadU32(&meta_count));
  for (uint32_t i = 0; i < meta_count; ++i) {
    std::string key, value;
    HG_RETURN_IF_ERROR(cursor.ReadString(&key));
    HG_RETURN_IF_ERROR(cursor.ReadString(&value));
    if (meta_index_.count(key) > 0) {
      return Status::InvalidArgument("duplicate metadata key '" + key + "'");
    }
    meta_index_.emplace(key, meta_.size());
    meta_.emplace_back(std::move(key), std::move(value));
  }

  uint32_t tensor_count = 0;
  HG_RETURN_IF_ERROR(cursor.ReadU32(&tensor_count));
  for (uint32_t i = 0; i < tensor_count; ++i) {
    std::string name;
    HG_RETURN_IF_ERROR(cursor.ReadString(&name));
    uint8_t dtype_byte = 0;
    uint8_t rank = 0;
    HG_RETURN_IF_ERROR(cursor.ReadU8(&dtype_byte));
    HG_RETURN_IF_ERROR(cursor.ReadU8(&rank));
    if (dtype_byte > static_cast<uint8_t>(DType::kF16)) {
      return Status::InvalidArgument("tensor '" + name +
                                     "' has unknown dtype " +
                                     std::to_string(dtype_byte));
    }
    if (rank > kMaxRank) {
      return Status::InvalidArgument("tensor '" + name + "' has rank " +
                                     std::to_string(rank));
    }
    Entry entry;
    entry.dtype = static_cast<DType>(dtype_byte);
    entry.numel = 1;
    for (uint8_t d = 0; d < rank; ++d) {
      int32_t dim = 0;
      HG_RETURN_IF_ERROR(cursor.ReadI32(&dim));
      if (dim < 0) {
        return Status::InvalidArgument("tensor '" + name +
                                       "' has negative dimension");
      }
      entry.shape.push_back(dim);
      entry.numel *= dim;
    }
    uint64_t byte_len = 0;
    HG_RETURN_IF_ERROR(cursor.ReadU64(&byte_len));
    const uint64_t expected =
        static_cast<uint64_t>(entry.numel) * DTypeSize(entry.dtype);
    if (byte_len != expected || byte_len > kMaxPayloadBytes) {
      return Status::InvalidArgument(
          "tensor '" + name + "' payload length " + std::to_string(byte_len) +
          " does not match shape " + LocalShapeString(entry.shape));
    }
    entry.payload_offset = cursor.pos();
    HG_RETURN_IF_ERROR(cursor.Skip(static_cast<size_t>(byte_len)));
    if (entries_.count(name) > 0) {
      return Status::InvalidArgument("duplicate tensor name '" + name + "'");
    }
    names_.push_back(name);
    entries_.emplace(std::move(name), std::move(entry));
  }
  if (cursor.remaining() != 0) {
    return Status::InvalidArgument(
        "checkpoint has " + std::to_string(cursor.remaining()) +
        " trailing bytes before the CRC footer");
  }
  return Status::Ok();
}

const std::string* TensorReader::FindMeta(const std::string& key) const {
  const auto it = meta_index_.find(key);
  if (it == meta_index_.end()) return nullptr;
  return &meta_[it->second].second;
}

StatusOr<std::string> TensorReader::GetMeta(const std::string& key) const {
  const std::string* value = FindMeta(key);
  if (value == nullptr) {
    return Status::NotFound("checkpoint metadata key '" + key +
                            "' is missing");
  }
  return *value;
}

StatusOr<int64_t> TensorReader::GetMetaInt(const std::string& key) const {
  const std::string* value = FindMeta(key);
  if (value == nullptr) {
    return Status::NotFound("checkpoint metadata key '" + key +
                            "' is missing");
  }
  char* end = nullptr;
  const long long parsed = std::strtoll(value->c_str(), &end, 10);
  if (value->empty() || end != value->c_str() + value->size()) {
    return Status::InvalidArgument("metadata '" + key + "' = '" + *value +
                                   "' is not an integer");
  }
  return static_cast<int64_t>(parsed);
}

StatusOr<float> TensorReader::GetMetaFloat(const std::string& key) const {
  const std::string* value = FindMeta(key);
  if (value == nullptr) {
    return Status::NotFound("checkpoint metadata key '" + key +
                            "' is missing");
  }
  char* end = nullptr;
  const float parsed = std::strtof(value->c_str(), &end);
  if (value->empty() || end != value->c_str() + value->size()) {
    return Status::InvalidArgument("metadata '" + key + "' = '" + *value +
                                   "' is not a float");
  }
  return parsed;
}

StatusOr<bool> TensorReader::GetMetaBool(const std::string& key) const {
  const std::string* value = FindMeta(key);
  if (value == nullptr) {
    return Status::NotFound("checkpoint metadata key '" + key +
                            "' is missing");
  }
  if (*value == "1") return true;
  if (*value == "0") return false;
  return Status::InvalidArgument("metadata '" + key + "' = '" + *value +
                                 "' is not a bool (0/1)");
}

bool TensorReader::Contains(const std::string& name) const {
  return entries_.count(name) > 0;
}

const Shape* TensorReader::FindShape(const std::string& name) const {
  const auto it = entries_.find(name);
  if (it == entries_.end()) return nullptr;
  return &it->second.shape;
}

Status TensorReader::ReadInto(const std::string& name, Tensor* out) const {
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    return Status::NotFound("tensor '" + name + "' not in checkpoint");
  }
  const Entry& entry = it->second;
  if (out == nullptr || !out->defined()) {
    return Status::InvalidArgument("ReadInto('" + name +
                                   "') needs a pre-allocated tensor");
  }
  if (out->shape() != entry.shape) {
    return Status::InvalidArgument(
        "tensor '" + name + "' has shape " + LocalShapeString(entry.shape) +
        " in the checkpoint but " + LocalShapeString(out->shape()) +
        " in the model");
  }
  std::vector<float>& dst = out->data();
  HG_CHECK_EQ(static_cast<int64_t>(dst.size()), entry.numel);
  const char* src = bytes_.data() + entry.payload_offset;
  if (entry.dtype == DType::kF16) {
    for (int64_t i = 0; i < entry.numel; ++i) {
      const auto lo = static_cast<uint16_t>(
          static_cast<uint8_t>(src[2 * i]));
      const auto hi = static_cast<uint16_t>(
          static_cast<uint8_t>(src[2 * i + 1]));
      dst[static_cast<size_t>(i)] =
          HalfToFloat(static_cast<uint16_t>(lo | (hi << 8)));
    }
  } else {
    for (int64_t i = 0; i < entry.numel; ++i) {
      uint32_t bits = 0;
      for (int b = 0; b < 4; ++b) {
        bits |= static_cast<uint32_t>(
                    static_cast<uint8_t>(src[4 * i + b]))
                << (8 * b);
      }
      float v;
      std::memcpy(&v, &bits, sizeof(v));
      dst[static_cast<size_t>(i)] = v;
    }
  }
  return Status::Ok();
}

Status TensorReader::ReadAll(const NamedParameters& params) const {
  HG_RETURN_IF_ERROR(params.status());
  for (const auto& [name, tensor] : params.items()) {
    if (!Contains(name)) {
      return Status::NotFound("model parameter '" + name +
                              "' is missing from the checkpoint");
    }
  }
  if (params.items().size() != entries_.size()) {
    for (const std::string& name : names_) {
      if (params.Find(name) == nullptr) {
        return Status::InvalidArgument("checkpoint tensor '" + name +
                                       "' is not a model parameter");
      }
    }
  }
  for (const auto& [name, tensor] : params.items()) {
    Tensor handle = tensor;  // Shared handle; decodes into model storage.
    HG_RETURN_IF_ERROR(ReadInto(name, &handle));
  }
  return Status::Ok();
}

}  // namespace hiergat
