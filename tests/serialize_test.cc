#include "core/serialize.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/quant.h"
#include "core/rng.h"
#include "tensor/tensor.h"

namespace hiergat {
namespace {

// A small but representative checkpoint image: meta of every kind plus
// two tensors of different ranks.
std::string MakeImage() {
  TensorWriter writer("TestModel");
  writer.SetMeta("note", "hello");
  writer.SetMetaInt("count", 42);
  writer.SetMetaFloat("ratio", 0.25f);
  writer.SetMetaBool("flag", true);
  EXPECT_TRUE(writer
                  .Add("encoder.weight",
                       Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6}))
                  .ok());
  EXPECT_TRUE(
      writer.Add("encoder.bias", Tensor::FromVector({3}, {7, 8, 9})).ok());
  return writer.SerializeToString();
}

// Recomputes the trailing CRC so deliberately edited images stay
// self-consistent (exercises validation beyond the checksum).
std::string Recrc(std::string bytes) {
  bytes.resize(bytes.size() - 4);
  const uint32_t crc = Crc32(bytes);
  for (int i = 0; i < 4; ++i) {
    bytes.push_back(static_cast<char>((crc >> (8 * i)) & 0xff));
  }
  return bytes;
}

TEST(SerializeTest, RoundTripPreservesMetaAndTensors) {
  const std::string bytes = MakeImage();
  auto reader_or = TensorReader::Parse(bytes);
  ASSERT_TRUE(reader_or.ok()) << reader_or.status().ToString();
  const TensorReader& reader = reader_or.value();

  EXPECT_EQ(reader.model_tag(), "TestModel");
  EXPECT_EQ(reader.GetMeta("note").value(), "hello");
  EXPECT_EQ(reader.GetMetaInt("count").value(), 42);
  EXPECT_FLOAT_EQ(reader.GetMetaFloat("ratio").value(), 0.25f);
  EXPECT_TRUE(reader.GetMetaBool("flag").value());
  EXPECT_FALSE(reader.GetMeta("absent").ok());

  const Shape* weight_shape = reader.FindShape("encoder.weight");
  ASSERT_NE(weight_shape, nullptr);
  EXPECT_EQ(*weight_shape, (Shape{2, 3}));
  const Shape* bias_shape = reader.FindShape("encoder.bias");
  ASSERT_NE(bias_shape, nullptr);
  EXPECT_EQ(*bias_shape, (Shape{3}));
  Tensor weight = Tensor::Zeros({2, 3});
  ASSERT_TRUE(reader.ReadInto("encoder.weight", &weight).ok());
  EXPECT_FLOAT_EQ(weight.data()[0], 1.0f);
  EXPECT_FLOAT_EQ(weight.data()[5], 6.0f);
}

TEST(SerializeTest, TruncationAtEveryOffsetFailsCleanly) {
  const std::string bytes = MakeImage();
  for (size_t len = 0; len < bytes.size(); ++len) {
    auto reader_or = TensorReader::Parse(bytes.substr(0, len));
    EXPECT_FALSE(reader_or.ok()) << "truncation to " << len
                                 << " bytes parsed successfully";
  }
}

TEST(SerializeTest, EveryFlippedByteFailsTheChecksum) {
  const std::string bytes = MakeImage();
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x40);
    auto reader_or = TensorReader::Parse(corrupt);
    EXPECT_FALSE(reader_or.ok()) << "flip at byte " << i << " parsed";
  }
}

TEST(SerializeTest, BadMagicIsReportedBeforeChecksum) {
  std::string bytes = MakeImage();
  bytes[0] = 'X';
  auto reader_or = TensorReader::Parse(Recrc(bytes));
  ASSERT_FALSE(reader_or.ok());
  EXPECT_NE(reader_or.status().message().find("magic"), std::string::npos);
}

TEST(SerializeTest, FutureFormatVersionIsRejected) {
  std::string bytes = MakeImage();
  bytes[4] = static_cast<char>(kCheckpointFormatVersion + 1);
  auto reader_or = TensorReader::Parse(Recrc(bytes));
  ASSERT_FALSE(reader_or.ok());
  EXPECT_NE(reader_or.status().message().find("version"),
            std::string::npos);
}

TEST(SerializeTest, MissingTensorNameFailsStrictReadAll) {
  const std::string bytes = MakeImage();
  auto reader_or = TensorReader::Parse(bytes);
  ASSERT_TRUE(reader_or.ok());

  NamedParameters params;
  Tensor weight = Tensor::Zeros({2, 3});
  Tensor bias = Tensor::Zeros({3});
  Tensor extra = Tensor::Zeros({1});
  ASSERT_TRUE(params.Add("encoder.weight", weight).ok());
  ASSERT_TRUE(params.Add("encoder.bias", bias).ok());
  ASSERT_TRUE(params.Add("decoder.weight", extra).ok());
  const Status status = reader_or.value().ReadAll(params);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("decoder.weight"), std::string::npos);
}

TEST(SerializeTest, ExtraCheckpointTensorFailsStrictReadAll) {
  const std::string bytes = MakeImage();
  auto reader_or = TensorReader::Parse(bytes);
  ASSERT_TRUE(reader_or.ok());

  NamedParameters params;
  Tensor weight = Tensor::Zeros({2, 3});
  ASSERT_TRUE(params.Add("encoder.weight", weight).ok());
  const Status status = reader_or.value().ReadAll(params);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("encoder.bias"), std::string::npos);
}

TEST(SerializeTest, ShapeMismatchIsRejected) {
  const std::string bytes = MakeImage();
  auto reader_or = TensorReader::Parse(bytes);
  ASSERT_TRUE(reader_or.ok());
  Tensor wrong = Tensor::Zeros({3, 2});
  EXPECT_FALSE(reader_or.value().ReadInto("encoder.weight", &wrong).ok());
}

TEST(SerializeTest, DuplicateParameterNameIsAnError) {
  NamedParameters params;
  Tensor t = Tensor::Zeros({2});
  EXPECT_TRUE(params.Add("w", t).ok());
  EXPECT_FALSE(params.Add("w", t).ok());
  EXPECT_FALSE(params.status().ok());
}

TEST(SerializeTest, DuplicateTensorNameInWriterIsAnError) {
  TensorWriter writer("TestModel");
  Tensor t = Tensor::FromVector({2}, {1, 2});
  EXPECT_TRUE(writer.Add("w", t).ok());
  EXPECT_FALSE(writer.Add("w", t).ok());
}

TEST(SerializeTest, HalfPrecisionRoundTripsExactly) {
  // Every finite f16 value survives f16 -> f32 -> f16 bit-exactly; this
  // is what makes re-saving a loaded f16 fixture reproduce it.
  for (uint32_t bits = 0; bits < 0x10000u; ++bits) {
    const uint16_t half = static_cast<uint16_t>(bits);
    const float f = HalfToFloat(half);
    if (f != f) continue;  // NaN payloads may legitimately canonicalize.
    EXPECT_EQ(FloatToHalf(f), half) << "half bits 0x" << std::hex << bits;
  }
  // Spot-check rounding of values not representable in f16.
  EXPECT_EQ(HalfToFloat(FloatToHalf(1.0f)), 1.0f);
  EXPECT_EQ(HalfToFloat(FloatToHalf(-2.5f)), -2.5f);
  EXPECT_NEAR(HalfToFloat(FloatToHalf(0.1f)), 0.1f, 1e-4f);
}

TEST(SerializeTest, F16TensorPayloadRoundTrips) {
  TensorWriter writer("TestModel");
  Tensor t = Tensor::FromVector({4}, {0.5f, -1.25f, 3.0f, 0.0f});
  ASSERT_TRUE(writer.Add("w", t, DType::kF16).ok());
  auto reader_or = TensorReader::Parse(writer.SerializeToString());
  ASSERT_TRUE(reader_or.ok()) << reader_or.status().ToString();
  Tensor back = Tensor::Zeros({4});
  ASSERT_TRUE(reader_or.value().ReadInto("w", &back).ok());
  for (int i = 0; i < 4; ++i) {
    EXPECT_FLOAT_EQ(back.data()[i], t.data()[i]);
  }
}

TEST(SerializeTest, OpenMissingFileIsAnIOError) {
  auto reader_or = TensorReader::Open("/nonexistent/dir/model.ckpt");
  ASSERT_FALSE(reader_or.ok());
  EXPECT_EQ(reader_or.status().code(), StatusCode::kIOError);
}

TEST(SerializeTest, WriteFileAtomicToMissingDirectoryFails) {
  EXPECT_FALSE(WriteFileAtomic("/nonexistent/dir/model.ckpt", "x").ok());
}

TEST(SerializeTest, EmptyAndGarbageInputsAreRejected) {
  EXPECT_FALSE(TensorReader::Parse("").ok());
  EXPECT_FALSE(TensorReader::Parse("not a checkpoint at all").ok());
  EXPECT_FALSE(TensorReader::Parse(std::string(12, '\0')).ok());
}

TEST(SerializeTest, UndefinedTensorCannotBeRegistered) {
  NamedParameters params;
  Tensor undefined;
  EXPECT_FALSE(params.Add("w", undefined).ok());
}

// -- Q8_0 quantized payloads --------------------------------------------

Tensor RandomTensor(const Shape& shape, uint64_t seed) {
  Rng rng(seed);
  return Tensor::Randn(shape, rng);
}

// Mixed-precision image: one q8 matrix (odd cols: partial trailing
// block), one q8 vector, one dense f32 tensor.
std::string MakeQ8Image() {
  TensorWriter writer("TestModel");
  writer.SetMeta("note", "quantized");
  EXPECT_TRUE(
      writer.Add("w", RandomTensor({3, 33}, 5), DType::kQ8_0).ok());
  EXPECT_TRUE(writer.Add("v", RandomTensor({32}, 6), DType::kQ8_0).ok());
  EXPECT_TRUE(writer.Add("b", RandomTensor({4}, 7)).ok());
  return writer.SerializeToString();
}

TEST(SerializeQ8Test, RoundTripWithinHalfScale) {
  Tensor w = RandomTensor({3, 33}, 5);
  TensorWriter writer("TestModel");
  ASSERT_TRUE(writer.Add("w", w, DType::kQ8_0).ok());
  auto reader_or = TensorReader::Parse(writer.SerializeToString());
  ASSERT_TRUE(reader_or.ok()) << reader_or.status().ToString();

  Tensor back = Tensor::Zeros({3, 33});
  ASSERT_TRUE(reader_or.value().ReadInto("w", &back).ok());
  // Bound the error by the worst per-row half-step of the codec.
  for (int r = 0; r < 3; ++r) {
    std::vector<q8::Block> blocks(q8::BlocksPerRow(33));
    q8::QuantizeRow(w.data().data() + r * 33, 33, blocks.data());
    for (int c = 0; c < 33; ++c) {
      const float scale = blocks[static_cast<size_t>(c) / 32].scale;
      EXPECT_LE(std::abs(back.at(r, c) - w.at(r, c)), scale * 0.5f + 1e-7f)
          << "(" << r << ", " << c << ")";
    }
  }
}

TEST(SerializeQ8Test, WireSizeBeats3p5xOverF32) {
  // 128 f32 bytes per 32 elements become 36: the checkpoint itself must
  // show the >= 3.5x weight-bytes reduction Q8_0 storage exists for.
  Tensor w = RandomTensor({64, 64}, 8);
  TensorWriter f32_writer("TestModel");
  ASSERT_TRUE(f32_writer.Add("w", w).ok());
  TensorWriter q8_writer("TestModel");
  ASSERT_TRUE(q8_writer.Add("w", w, DType::kQ8_0).ok());
  const size_t f32_payload = 64 * 64 * 4;
  const size_t q8_payload = 64 * q8::BlocksPerRow(64) * q8::kWireBytes;
  EXPECT_EQ(q8_writer.SerializeToString().size() - q8_payload,
            f32_writer.SerializeToString().size() - f32_payload);
  EXPECT_GE(static_cast<double>(f32_payload) /
                static_cast<double>(q8_payload),
            3.5);
}

TEST(SerializeQ8Test, TruncationAtEveryOffsetFailsCleanly) {
  const std::string bytes = MakeQ8Image();
  for (size_t len = 0; len < bytes.size(); ++len) {
    auto reader_or = TensorReader::Parse(bytes.substr(0, len));
    EXPECT_FALSE(reader_or.ok()) << "truncation to " << len
                                 << " bytes parsed successfully";
  }
}

TEST(SerializeQ8Test, EveryFlippedByteFailsTheChecksum) {
  const std::string bytes = MakeQ8Image();
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x40);
    auto reader_or = TensorReader::Parse(corrupt);
    EXPECT_FALSE(reader_or.ok()) << "flip at byte " << i << " parsed";
  }
}

TEST(SerializeQ8Test, NonFiniteBlockScaleIsRejected) {
  // The last tensor's payload sits right before the CRC footer, so the
  // final block's scale starts 4 + kWireBytes bytes from the end. Forge
  // a NaN there, fix the CRC, and the decode (not the parse) must
  // reject it.
  TensorWriter writer("TestModel");
  Tensor w = RandomTensor({2, 32}, 9);
  ASSERT_TRUE(writer.Add("w", w, DType::kQ8_0).ok());
  std::string bytes = writer.SerializeToString();
  const size_t scale_offset = bytes.size() - 4 - q8::kWireBytes;
  bytes[scale_offset + 0] = 0;
  bytes[scale_offset + 1] = 0;
  bytes[scale_offset + 2] = static_cast<char>(0xC0);
  bytes[scale_offset + 3] = static_cast<char>(0x7F);  // f32 NaN, LE.
  auto reader_or = TensorReader::Parse(Recrc(bytes));
  ASSERT_TRUE(reader_or.ok()) << reader_or.status().ToString();
  Tensor back = Tensor::Zeros({2, 32});
  const Status status = reader_or.value().ReadInto("w", &back);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("non-finite"), std::string::npos);
}

TEST(SerializeQ8Test, BlockTableLengthMismatchIsRejected) {
  // Grow the stored cols from 32 to 33 (adds a block to the expected
  // table) without touching the payload: byte_len no longer matches.
  TensorWriter writer("TestModel");
  ASSERT_TRUE(writer.Add("w", RandomTensor({32}, 10), DType::kQ8_0).ok());
  std::string bytes = writer.SerializeToString();
  const size_t payload = q8::kWireBytes;  // One row, one block.
  const size_t dim_offset = bytes.size() - 4 - payload - 8 - 4;
  ASSERT_EQ(static_cast<uint8_t>(bytes[dim_offset]), 32);
  bytes[dim_offset] = 33;
  auto reader_or = TensorReader::Parse(Recrc(bytes));
  ASSERT_FALSE(reader_or.ok());
  EXPECT_NE(reader_or.status().message().find("payload length"),
            std::string::npos);
}

TEST(SerializeQ8Test, QuantizedSlotSaveLoadSaveIsByteStable) {
  // Quantize -> save -> load into a fresh model -> save again: the two
  // images must be byte-identical, because the loaded blocks — not a
  // requantization of the dequantized floats — are what gets written.
  Tensor w = RandomTensor({4, 40}, 11);
  Tensor b = RandomTensor({5}, 12);
  auto slot = std::make_shared<q8::QuantizedTensor>();
  NamedParameters params;
  ASSERT_TRUE(params.AddQuantizable("w", w, slot).ok());
  ASSERT_TRUE(params.Add("b", b).ok());
  ASSERT_TRUE(params.QuantizeAll().ok());
  ASSERT_TRUE(slot->active());

  TensorWriter writer1("TestModel");
  ASSERT_TRUE(writer1.AddAll(params).ok());
  const std::string bytes1 = writer1.SerializeToString();

  Tensor w2 = Tensor::Zeros({4, 40});
  Tensor b2 = Tensor::Zeros({5});
  auto slot2 = std::make_shared<q8::QuantizedTensor>();
  NamedParameters params2;
  ASSERT_TRUE(params2.AddQuantizable("w", w2, slot2).ok());
  ASSERT_TRUE(params2.Add("b", b2).ok());
  auto reader_or = TensorReader::Parse(bytes1);
  ASSERT_TRUE(reader_or.ok()) << reader_or.status().ToString();
  ASSERT_TRUE(reader_or.value().ReadAll(params2).ok());
  ASSERT_TRUE(slot2->active());

  // The dequantized f32 weights match exactly (same blocks, same
  // scalar codec) — QuantizeAll wrote them back into `w` already.
  for (size_t i = 0; i < w.data().size(); ++i) {
    EXPECT_EQ(w2.data()[i], w.data()[i]) << "element " << i;
  }

  TensorWriter writer2("TestModel");
  ASSERT_TRUE(writer2.AddAll(params2).ok());
  EXPECT_EQ(writer2.SerializeToString(), bytes1);
}

TEST(SerializeQ8Test, DenseLoadDeactivatesQuantSlot) {
  Tensor w = RandomTensor({2, 32}, 13);
  // Plain f32 image of the same parameter set.
  TensorWriter writer("TestModel");
  ASSERT_TRUE(writer.Add("w", w).ok());
  auto reader_or = TensorReader::Parse(writer.SerializeToString());
  ASSERT_TRUE(reader_or.ok());

  Tensor w2 = Tensor::Zeros({2, 32});
  auto slot = std::make_shared<q8::QuantizedTensor>();
  slot->QuantizeFrom(w2.data().data(), 2, 32);  // Stale quantized state.
  ASSERT_TRUE(slot->active());
  NamedParameters params;
  ASSERT_TRUE(params.AddQuantizable("w", w2, slot).ok());
  ASSERT_TRUE(reader_or.value().ReadAll(params).ok());
  EXPECT_FALSE(slot->active()) << "f32 load must supersede q8 state";
}

TEST(SerializeQ8Test, QuantizeAllWithoutSlotsIsFailedPrecondition) {
  NamedParameters params;
  Tensor t = Tensor::Zeros({2});
  ASSERT_TRUE(params.Add("w", t).ok());
  const Status status = params.QuantizeAll();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(SerializeQ8Test, NullSlotCannotBeRegistered) {
  NamedParameters params;
  Tensor t = Tensor::Zeros({2});
  EXPECT_FALSE(params.AddQuantizable("w", t, nullptr).ok());
  EXPECT_FALSE(params.status().ok());
}

}  // namespace
}  // namespace hiergat
