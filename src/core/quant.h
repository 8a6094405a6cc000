#ifndef HIERGAT_CORE_QUANT_H_
#define HIERGAT_CORE_QUANT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hiergat {
namespace q8 {

// Q8_0 block quantization (ggml-style): each run of 32 consecutive
// row elements stores one f32 scale plus 32 int8 quants, so a weight
// row costs 36 bytes per 32 floats instead of 128 — a 3.56x smaller
// checkpoint. Rows quantize independently (a rank-2 [rows, cols]
// tensor has ceil(cols / 32) blocks per row; rank-1 is a single row),
// so a partial trailing block never straddles two rows.
//
// Q8_0 is a storage format only: QuantizeAll and the checkpoint loader
// write the dequantized values into the f32 weight tensors, and every
// kernel computes in f32 (DESIGN.md §13).
//
// The codec here is scalar and the only one: serialization and
// in-place checkpoint quantization always use it, so checkpoint bytes
// do not depend on the host that wrote them.

constexpr int kBlockSize = 32;
/// On-disk bytes per block: 4-byte little-endian f32 scale + 32 int8.
constexpr size_t kWireBytes = 36;

/// Stated bound on how far a score from Q8_0-quantized weights may
/// drift from the f32 model's score (golden_test pins the committed
/// fixtures to it; the README and DESIGN.md §13 cite it). Per-block
/// rounding error is ~0.5% of each weight's block amax, but it
/// accumulates through every projection of the LM encoder and the
/// downstream heads: the measured worst probe drift for the committed
/// fixtures is ~7.5e-3 (an MSE-optimal per-block scale search was tried
/// and did not reduce it — the drift is accumulation-dominated, not
/// rounding-dominated). 1e-2 bounds that with headroom while still
/// catching any real regression, which would show up orders of
/// magnitude larger.
constexpr float kScoreTolerance = 1e-2f;

struct Block {
  float scale;
  int8_t q[kBlockSize];
};

inline int BlocksPerRow(int cols) {
  return (cols + kBlockSize - 1) / kBlockSize;
}

/// Quantizes `cols` floats into blocks[0 .. BlocksPerRow(cols)).
/// scale = max|x| / 127 per block; q = round(x / scale) in [-127, 127].
/// An all-zero block stores scale 0 (DequantizeRow maps it back to 0).
void QuantizeRow(const float* x, int cols, Block* blocks);

/// Expands one quantized row back to `cols` floats: out[j] = scale * q.
void DequantizeRow(const Block* blocks, int cols, float* out);

/// Quantized weight storage attached to a parameter tensor. The blocks
/// — not the dequantized floats — are the source of truth: Save writes
/// the stored blocks verbatim and Load copies file blocks straight in,
/// so quantized checkpoints are byte-stable across save→load→save even
/// though quantize∘dequantize is not an identity.
class QuantizedTensor {
 public:
  bool active() const { return active_; }
  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int blocks_per_row() const { return BlocksPerRow(cols_); }
  size_t wire_bytes() const { return blocks_.size() * kWireBytes; }
  const std::vector<Block>& blocks() const { return blocks_; }
  std::vector<Block>& mutable_blocks() { return blocks_; }

  /// Sizes the block table for a [rows, cols] tensor and marks the
  /// storage active; contents are zeroed until filled.
  void Resize(int rows, int cols);

  /// Quantizes a dense row-major [rows, cols] buffer with the scalar
  /// reference codec and activates the storage.
  void QuantizeFrom(const float* x, int rows, int cols);

  /// Dequantizes every row into a dense row-major [rows, cols] buffer.
  void DequantizeTo(float* out) const;

  /// Drops the blocks and deactivates (e.g. after an f32 checkpoint
  /// load replaces a previously quantized weight).
  void Clear();

 private:
  int rows_ = 0;
  int cols_ = 0;
  bool active_ = false;
  std::vector<Block> blocks_;
};

}  // namespace q8
}  // namespace hiergat

#endif  // HIERGAT_CORE_QUANT_H_
