#include "core/serialize.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

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

}  // namespace
}  // namespace hiergat
