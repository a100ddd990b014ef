// Codec conformance + corruption battery (ctest label: codec).
//
// Pins the offload-codec contract at three levels: the frame format
// (round-trip exactness, CRC rejection of every single-bit flip), each
// codec's payload transform (identity, fp16 demotion, top-k sparse),
// and the TransferEngine integration (encoded-byte accounting, pooled
// frame buffers with zero steady-state allocations, the lossy-flow
// cache rule, and the planner's compression-aware SSD term).

#include "xfer/codec.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "autograd/transformer.h"
#include "common/fp16.h"
#include "common/rng.h"
#include "common/units.h"
#include "core/activation_planner.h"
#include "core/cost_model.h"
#include "hw/catalog.h"
#include "model/transformer_config.h"
#include "runtime/dataset.h"
#include "runtime/ratel_trainer.h"
#include "simd/simd.h"
#include "xfer/transfer_engine.h"
#include "tests/scoped_temp_dir.h"

namespace ratel {
namespace {

std::vector<uint8_t> RandomBytes(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> data(n);
  for (auto& b : data) b = static_cast<uint8_t>(rng.NextU64());
  return data;
}

std::vector<float> RandomFloats(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.NextGaussian());
  return v;
}

std::vector<uint8_t> EncodeToFrame(const Codec& codec,
                                   const uint8_t* src, int64_t logical) {
  std::vector<uint8_t> frame(FrameSizeFor(codec, logical));
  EncodeFrame(codec, src, logical, frame.data());
  return frame;
}

std::vector<uint8_t> AsBytes(const std::vector<float>& v) {
  std::vector<uint8_t> bytes(v.size() * sizeof(float));
  std::memcpy(bytes.data(), v.data(), bytes.size());
  return bytes;
}

// ---------- Frame format ----------

TEST(CodecFrameTest, IdentityRoundTripIsExactAcrossSizes) {
  auto codec = MakeIdentityCodec();
  // Empty, one byte, odd lengths, exact float multiples, a big blob.
  for (int64_t n : {0, 1, 3, 4, 7, 4096, 4099}) {
    const std::vector<uint8_t> data = RandomBytes(n, 100 + n);
    const std::vector<uint8_t> frame =
        EncodeToFrame(*codec, data.data(), n);
    EXPECT_EQ(static_cast<int64_t>(frame.size()),
              kCodecFrameHeaderBytes + n);
    std::vector<uint8_t> out(n, 0xCC);
    ASSERT_TRUE(
        DecodeFrame(frame.data(), frame.size(), out.data(), n).ok())
        << "n=" << n;
    EXPECT_EQ(out, data) << "n=" << n;
  }
}

TEST(CodecFrameTest, CheckFrameParsesTheHeaderItWrote) {
  auto codec = MakeFp16Codec();
  const std::vector<uint8_t> data = RandomBytes(130, 7);  // 32 floats + 2 tail
  const std::vector<uint8_t> frame =
      EncodeToFrame(*codec, data.data(), data.size());
  auto info = CheckFrame(frame.data(), frame.size());
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->codec, CodecId::kFp16);
  EXPECT_EQ(info->logical_bytes, 130);
  EXPECT_EQ(info->payload_bytes,
            static_cast<int64_t>(frame.size()) - kCodecFrameHeaderBytes);
}

TEST(CodecFrameTest, SingleBitFlipAtEveryByteOffsetIsRejected) {
  // The anti-silent-garbage guarantee: flip one bit in *every* byte of
  // a small frame — header and payload alike — and the frame must fail
  // verification with kDataLoss each time. No offset may slip through.
  auto codec = MakeIdentityCodec();
  const std::vector<uint8_t> data = RandomBytes(24, 41);
  const std::vector<uint8_t> frame =
      EncodeToFrame(*codec, data.data(), data.size());
  std::vector<uint8_t> out(data.size());
  ASSERT_TRUE(
      DecodeFrame(frame.data(), frame.size(), out.data(), data.size()).ok());

  for (size_t offset = 0; offset < frame.size(); ++offset) {
    for (int bit : {0, 3, 7}) {
      std::vector<uint8_t> corrupt = frame;
      corrupt[offset] ^= static_cast<uint8_t>(1u << bit);
      const Status s = DecodeFrame(corrupt.data(), corrupt.size(),
                                   out.data(), data.size());
      EXPECT_EQ(s.code(), StatusCode::kDataLoss)
          << "flip at byte " << offset << " bit " << bit
          << " decoded silently";
    }
  }
}

TEST(CodecFrameTest, TruncationAndWrongLogicalSizeAreRejected) {
  auto codec = MakeIdentityCodec();
  const std::vector<uint8_t> data = RandomBytes(64, 5);
  const std::vector<uint8_t> frame = EncodeToFrame(*codec, data.data(), 64);
  std::vector<uint8_t> out(64);
  // Torn prefix: every truncation point fails, including mid-header.
  for (int64_t cut : {0, 1, 16, 31, 32, 40, 95}) {
    EXPECT_EQ(DecodeFrame(frame.data(), cut, out.data(), 64).code(),
              StatusCode::kDataLoss)
        << "cut=" << cut;
  }
  // A reader expecting a different logical size must not get bytes.
  EXPECT_EQ(DecodeFrame(frame.data(), frame.size(), out.data(), 63).code(),
            StatusCode::kDataLoss);
}

// ---------- fp16 codec ----------

TEST(Fp16CodecTest, HalfRepresentableValuesRoundTripExactly) {
  auto codec = MakeFp16Codec();
  // Every value here is exactly representable in binary16, so the
  // demotion must be bit-exact after promotion back to float32.
  const std::vector<float> vals = {0.0f,   -0.0f, 1.0f,    -1.0f,  0.5f,
                                   2.0f,   1024.0f, -65504.0f, 0.25f,
                                   -0.125f, 3.5f,  0.0999755859375f};
  const std::vector<uint8_t> bytes = AsBytes(vals);
  const std::vector<uint8_t> frame =
      EncodeToFrame(*codec, bytes.data(), bytes.size());
  // 2 bytes per float + header: the advertised 2x demotion.
  EXPECT_EQ(static_cast<int64_t>(frame.size()),
            kCodecFrameHeaderBytes +
                static_cast<int64_t>(vals.size()) * 2);
  std::vector<float> out(vals.size());
  ASSERT_TRUE(DecodeFrame(frame.data(), frame.size(),
                          reinterpret_cast<uint8_t*>(out.data()),
                          bytes.size())
                  .ok());
  for (size_t i = 0; i < vals.size(); ++i) {
    EXPECT_EQ(out[i], vals[i]) << "value " << i << " not half-exact";
  }
  // Signed zero survives with its sign bit.
  EXPECT_TRUE(std::signbit(out[1]));
  EXPECT_FALSE(std::signbit(out[0]));
}

TEST(Fp16CodecTest, OddLengthTailRidesAlongVerbatim) {
  auto codec = MakeFp16Codec();
  // 5 floats + 3 trailing bytes that are not a whole float.
  std::vector<uint8_t> bytes = AsBytes({1.0f, -2.0f, 0.5f, 4.0f, -8.0f});
  bytes.push_back(0xAB);
  bytes.push_back(0xCD);
  bytes.push_back(0xEF);
  const std::vector<uint8_t> frame =
      EncodeToFrame(*codec, bytes.data(), bytes.size());
  EXPECT_EQ(static_cast<int64_t>(frame.size()),
            kCodecFrameHeaderBytes + 5 * 2 + 3);
  std::vector<uint8_t> out(bytes.size());
  ASSERT_TRUE(
      DecodeFrame(frame.data(), frame.size(), out.data(), bytes.size()).ok());
  EXPECT_EQ(out[out.size() - 3], 0xAB);
  EXPECT_EQ(out[out.size() - 2], 0xCD);
  EXPECT_EQ(out[out.size() - 1], 0xEF);
}

TEST(Fp16CodecTest, EmptyAndSingleElementTensors) {
  auto codec = MakeFp16Codec();
  {
    const std::vector<uint8_t> frame = EncodeToFrame(*codec, nullptr, 0);
    EXPECT_EQ(static_cast<int64_t>(frame.size()), kCodecFrameHeaderBytes);
    ASSERT_TRUE(DecodeFrame(frame.data(), frame.size(), nullptr, 0).ok());
  }
  {
    const float v = 0.75f;  // half-exact
    const std::vector<uint8_t> frame = EncodeToFrame(
        *codec, reinterpret_cast<const uint8_t*>(&v), sizeof(v));
    float out = 0.0f;
    ASSERT_TRUE(DecodeFrame(frame.data(), frame.size(),
                            reinterpret_cast<uint8_t*>(&out), sizeof(out))
                    .ok());
    EXPECT_EQ(out, v);
  }
}

TEST(Fp16CodecTest, MatchesScalarHalfConversionOnRandomData) {
  auto codec = MakeFp16Codec();
  const std::vector<float> vals = RandomFloats(257, 19);
  const std::vector<uint8_t> bytes = AsBytes(vals);
  const std::vector<uint8_t> frame =
      EncodeToFrame(*codec, bytes.data(), bytes.size());
  std::vector<float> out(vals.size());
  ASSERT_TRUE(DecodeFrame(frame.data(), frame.size(),
                          reinterpret_cast<uint8_t*>(out.data()),
                          bytes.size())
                  .ok());
  for (size_t i = 0; i < vals.size(); ++i) {
    // The codec is exactly FloatToHalf -> HalfToFloat, nothing fancier.
    EXPECT_EQ(out[i], HalfToFloat(FloatToHalf(vals[i]))) << i;
  }
}

// The codec runs the simd conversion kernels; in every available mode it
// must equal common/fp16.h bitwise: on all 65,536 half patterns (decode,
// and encode of their exact float values) and on random non-NaN floats
// (encode), with NaN staying NaN. 65,539 elements leave a partial vector
// at the end.
TEST(Fp16CodecTest, BitwiseEqualToCommonFp16InEverySimdMode) {
  auto codec = MakeFp16Codec();
  const simd::Mode saved = simd::ActiveMode();
  std::vector<simd::Mode> modes = {simd::Mode::kScalar};
  if (simd::HostHasAvx2()) modes.push_back(simd::Mode::kAvx2);

  std::vector<Fp16> halves(65539);
  for (size_t i = 0; i < halves.size(); ++i) {
    halves[i] = static_cast<Fp16>(i & 0xFFFF);
  }
  std::vector<float> widened(halves.size());
  for (size_t i = 0; i < halves.size(); ++i) {
    widened[i] = HalfToFloat(halves[i]);
  }
  Rng rng(23);
  std::vector<float> randoms(100003);
  for (float& v : randoms) {
    // Random bit patterns span every exponent; NaNs are redrawn.
    do {
      const uint32_t bits = static_cast<uint32_t>(rng.NextU64());
      std::memcpy(&v, &bits, sizeof(v));
    } while (std::isnan(v));
  }

  for (const simd::Mode mode : modes) {
    SCOPED_TRACE(simd::ModeName(mode));
    ASSERT_TRUE(simd::SetMode(mode));
    // Decode: the half patterns as an fp16 payload behind a frame.
    {
      const int64_t logical = static_cast<int64_t>(4 * halves.size());
      std::vector<uint8_t> frame(FrameSizeFor(*codec, logical));
      // Encoding the exact widened values reproduces the patterns
      // (NaNs may come back with another payload; they stay NaN).
      EncodeFrame(*codec, reinterpret_cast<const uint8_t*>(widened.data()),
                  logical, frame.data());
      const auto* encoded = reinterpret_cast<const Fp16*>(
          frame.data() + kCodecFrameHeaderBytes);
      std::vector<float> out(halves.size());
      ASSERT_TRUE(DecodeFrame(frame.data(), frame.size(),
                              reinterpret_cast<uint8_t*>(out.data()), logical)
                      .ok());
      for (size_t i = 0; i < halves.size(); ++i) {
        if (std::isnan(widened[i])) {
          ASSERT_TRUE(std::isnan(HalfToFloat(encoded[i]))) << i;
          ASSERT_TRUE(std::isnan(out[i])) << i;
          continue;
        }
        ASSERT_EQ(encoded[i], halves[i]) << "half pattern " << i;
        uint32_t got, want;
        std::memcpy(&got, &out[i], sizeof(got));
        std::memcpy(&want, &widened[i], sizeof(want));
        ASSERT_EQ(got, want) << "half pattern " << i;
      }
    }
    // Encode: random non-NaN floats narrow exactly like FloatToHalf.
    {
      const int64_t logical = static_cast<int64_t>(4 * randoms.size());
      std::vector<uint8_t> frame(FrameSizeFor(*codec, logical));
      EncodeFrame(*codec, reinterpret_cast<const uint8_t*>(randoms.data()),
                  logical, frame.data());
      const auto* encoded = reinterpret_cast<const Fp16*>(
          frame.data() + kCodecFrameHeaderBytes);
      for (size_t i = 0; i < randoms.size(); ++i) {
        ASSERT_EQ(encoded[i], FloatToHalf(randoms[i])) << "float " << i;
      }
    }
  }
  simd::SetMode(saved);
}

// ---------- top-k codec ----------

TEST(TopKCodecTest, IndicesAreStrictlyAscendingAndInRange) {
  const int64_t k = 8;
  auto codec = MakeTopKCodec(k);
  const std::vector<float> vals = RandomFloats(100, 23);
  const std::vector<uint8_t> bytes = AsBytes(vals);
  const std::vector<uint8_t> frame =
      EncodeToFrame(*codec, bytes.data(), bytes.size());
  // Payload: k (index, value) pairs of 8 bytes each.
  EXPECT_EQ(static_cast<int64_t>(frame.size()),
            kCodecFrameHeaderBytes + k * 8);
  const uint8_t* payload = frame.data() + kCodecFrameHeaderBytes;
  uint32_t prev = 0;
  for (int64_t i = 0; i < k; ++i) {
    uint32_t index;
    std::memcpy(&index, payload + i * 8, sizeof(index));
    if (i > 0) {
      EXPECT_GT(index, prev) << "pair " << i << " not ascending";
    }
    EXPECT_LT(index, vals.size());
    prev = index;
  }
}

TEST(TopKCodecTest, DenseReconstructionKeepsLargestAndZeroFillsRest) {
  const int64_t k = 4;
  auto codec = MakeTopKCodec(k);
  // Hand-built magnitudes: the top-4 by |value| are at 1, 3, 6, 9.
  const std::vector<float> vals = {0.1f, -9.0f, 0.2f, 7.5f, -0.3f,
                                   0.4f, 8.25f, -0.5f, 0.6f, -7.75f};
  const std::vector<uint8_t> bytes = AsBytes(vals);
  const std::vector<uint8_t> frame =
      EncodeToFrame(*codec, bytes.data(), bytes.size());
  std::vector<float> out(vals.size(), 42.0f);
  ASSERT_TRUE(DecodeFrame(frame.data(), frame.size(),
                          reinterpret_cast<uint8_t*>(out.data()),
                          bytes.size())
                  .ok());
  for (size_t i = 0; i < vals.size(); ++i) {
    if (i == 1 || i == 3 || i == 6 || i == 9) {
      EXPECT_EQ(out[i], vals[i]) << "kept value " << i << " not exact";
    } else {
      EXPECT_EQ(out[i], 0.0f) << "dropped value " << i << " not zeroed";
    }
  }
}

TEST(TopKCodecTest, KLargerThanTensorKeepsEverythingExactly) {
  auto codec = MakeTopKCodec(1000);
  const std::vector<float> vals = RandomFloats(10, 31);
  const std::vector<uint8_t> bytes = AsBytes(vals);
  const std::vector<uint8_t> frame =
      EncodeToFrame(*codec, bytes.data(), bytes.size());
  // Only min(k, n) pairs are stored.
  EXPECT_EQ(static_cast<int64_t>(frame.size()),
            kCodecFrameHeaderBytes + 10 * 8);
  std::vector<float> out(vals.size());
  ASSERT_TRUE(DecodeFrame(frame.data(), frame.size(),
                          reinterpret_cast<uint8_t*>(out.data()),
                          bytes.size())
                  .ok());
  EXPECT_EQ(0, std::memcmp(out.data(), vals.data(),
                           vals.size() * sizeof(float)));
}

TEST(TopKCodecTest, EmptySingleElementAndOddLengthTensors) {
  auto codec = MakeTopKCodec(3);
  {
    const std::vector<uint8_t> frame = EncodeToFrame(*codec, nullptr, 0);
    ASSERT_TRUE(DecodeFrame(frame.data(), frame.size(), nullptr, 0).ok());
  }
  {
    const float v = -2.5f;
    const std::vector<uint8_t> frame = EncodeToFrame(
        *codec, reinterpret_cast<const uint8_t*>(&v), sizeof(v));
    float out = 0.0f;
    ASSERT_TRUE(DecodeFrame(frame.data(), frame.size(),
                            reinterpret_cast<uint8_t*>(&out), sizeof(out))
                    .ok());
    EXPECT_EQ(out, v);  // 1 element, k=3: kept exactly
  }
  {
    // 2 floats + 1 tail byte; tail must survive even with k pruning.
    std::vector<uint8_t> bytes = AsBytes({5.0f, -0.001f});
    bytes.push_back(0x5A);
    const std::vector<uint8_t> frame =
        EncodeToFrame(*codec, bytes.data(), bytes.size());
    std::vector<uint8_t> out(bytes.size());
    ASSERT_TRUE(DecodeFrame(frame.data(), frame.size(), out.data(),
                            bytes.size())
                    .ok());
    EXPECT_EQ(out.back(), 0x5A);
    float f0, f1;
    std::memcpy(&f0, out.data(), 4);
    std::memcpy(&f1, out.data() + 4, 4);
    EXPECT_EQ(f0, 5.0f);
    EXPECT_EQ(f1, -0.001f);
  }
}

// ---------- Spec parsing, registry, env overlay ----------

TEST(CodecSpecTest, RawSpecsYieldNoCodec) {
  for (const char* spec : {"", "raw", "off", "none"}) {
    auto codec = MakeCodec(spec);
    ASSERT_TRUE(codec.ok()) << spec;
    EXPECT_EQ(*codec, nullptr) << spec;
  }
}

TEST(CodecSpecTest, NamedSpecsYieldTheRightCodec) {
  auto identity = MakeCodec("identity");
  ASSERT_TRUE(identity.ok());
  ASSERT_NE(*identity, nullptr);
  EXPECT_EQ((*identity)->id(), CodecId::kIdentity);
  EXPECT_TRUE((*identity)->lossless());

  auto fp16 = MakeCodec("fp16");
  ASSERT_TRUE(fp16.ok());
  ASSERT_NE(*fp16, nullptr);
  EXPECT_EQ((*fp16)->id(), CodecId::kFp16);
  EXPECT_FALSE((*fp16)->lossless());

  auto topk = MakeCodec("topk:16");
  ASSERT_TRUE(topk.ok());
  ASSERT_NE(*topk, nullptr);
  EXPECT_EQ((*topk)->id(), CodecId::kTopK);
  EXPECT_FALSE((*topk)->lossless());
}

TEST(CodecSpecTest, BadSpecsAreInvalidArgument) {
  for (const char* spec :
       {"gzip", "topk", "topk:", "topk:0", "topk:-3", "topk:abc",
        "topk: 32", "topk:+32", "identity "}) {
    auto codec = MakeCodec(spec);
    EXPECT_FALSE(codec.ok()) << spec;
    EXPECT_EQ(codec.status().code(), StatusCode::kInvalidArgument) << spec;
  }
}

TEST(CodecSpecTest, RegistryCreateNamesTheBadFlow) {
  CodecConfig config;
  config.spec(FlowClass::kGradState) = "topk:0";
  auto registry = CodecRegistry::Create(config);
  ASSERT_FALSE(registry.ok());
  EXPECT_EQ(registry.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(registry.status().message().find("grad_state"),
            std::string::npos)
      << registry.status().message();
}

TEST(CodecSpecTest, EnvKnobsOverlayOntoBaseConfig) {
  TrainerOptions options;
  // No knob for the checkpoint flow: its spec must survive.
  options.codec.spec(FlowClass::kCheckpoint) = "identity";
  ASSERT_TRUE(ApplyEnvKnobs({{"RATEL_CODEC_ACTIVATION_SPILL", "fp16"},
                             {"RATEL_CODEC_GRAD_STATE", "topk:32"}},
                            &options)
                  .ok());
  const CodecConfig& cfg = options.codec;

  EXPECT_EQ(cfg.spec(FlowClass::kActivationSpill), "fp16");
  EXPECT_EQ(cfg.spec(FlowClass::kGradState), "topk:32");
  EXPECT_EQ(cfg.spec(FlowClass::kCheckpoint), "identity");
  EXPECT_EQ(cfg.spec(FlowClass::kParamFetch), "");
  EXPECT_TRUE(cfg.any());
  EXPECT_FALSE(CodecConfig{}.any());
}

TEST(CodecSpecTest, ExpectedCompressionRatioMatchesFrameSizes) {
  auto fp16 = MakeFp16Codec();
  // Big blob: ratio approaches 2x; the 32-byte header is the only drag.
  const int64_t big = 1 << 20;
  EXPECT_NEAR(ExpectedCompressionRatio(*fp16, big), 2.0, 0.01);
  EXPECT_DOUBLE_EQ(
      ExpectedCompressionRatio(*fp16, big),
      static_cast<double>(big) /
          static_cast<double>(FrameSizeFor(*fp16, big)));
  // Tiny blob: framing overhead can push the ratio below 1.
  EXPECT_LT(ExpectedCompressionRatio(*fp16, 8), 1.0);
  EXPECT_DOUBLE_EQ(ExpectedCompressionRatio(*fp16, 0), 1.0);
}

// ---------- Engine integration ----------

TransferOptions EngineOptions(const std::string& dir) {
  TransferOptions opts;
  opts.dir = dir;
  opts.num_stripes = 4;
  opts.chunk_bytes = 4096;
  opts.io_workers = 2;
  return opts;
}

using CodecEngineTest = TempDirTest;
TEST_F(CodecEngineTest, OpenRejectsBadCodecSpec) {
  TransferOptions opts = EngineOptions(tmp.Sub("badspec"));
  opts.codec.spec(FlowClass::kActivationSpill) = "lz4";
  auto engine = TransferEngine::Open(opts);
  EXPECT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CodecEngineTest, IdentityCodecRoundTripsWithFrameAccounting) {
  TransferOptions opts = EngineOptions(tmp.Sub("id_acct"));
  opts.codec.spec(FlowClass::kCheckpoint) = "identity";
  auto engine = TransferEngine::Open(opts);
  ASSERT_TRUE(engine.ok());

  const int64_t kBytes = 3 * 4096 + 17;
  const int kBlobs = 4;
  auto identity = MakeIdentityCodec();
  const int64_t frame_bytes = FrameSizeFor(*identity, kBytes);
  for (int i = 0; i < kBlobs; ++i) {
    const std::vector<uint8_t> data = RandomBytes(kBytes, 500 + i);
    const std::string key = "ck/" + std::to_string(i);
    ASSERT_TRUE(
        (*engine)->Write(FlowClass::kCheckpoint, key, data.data(), kBytes)
            .ok());
    std::vector<uint8_t> out(kBytes);
    ASSERT_TRUE(
        (*engine)->Read(FlowClass::kCheckpoint, key, out.data(), kBytes)
            .ok());
    EXPECT_EQ(out, data) << "blob " << i;
  }

  const TransferStats stats = (*engine)->stats();
  const FlowCounters& c = stats.Flow(FlowClass::kCheckpoint);
  // Logical counters stay logical; encoded counters carry the framing.
  EXPECT_EQ(c.bytes_written, kBlobs * kBytes);
  EXPECT_EQ(c.bytes_read, kBlobs * kBytes);
  EXPECT_EQ(c.encoded_bytes_written, kBlobs * frame_bytes);
  EXPECT_EQ(c.encoded_bytes_read, kBlobs * frame_bytes);
  EXPECT_EQ(c.encodes, kBlobs);
  EXPECT_EQ(c.decodes, kBlobs);
  EXPECT_EQ(c.decode_failures, 0);
  EXPECT_EQ(c.errors, 0);
  // Identity framing *adds* header bytes: ratio just under 1 — and it
  // reconciles exactly against the raw counters.
  EXPECT_DOUBLE_EQ(c.WriteCompressionRatio(),
                   static_cast<double>(c.bytes_written) /
                       static_cast<double>(c.encoded_bytes_written));
  // The store saw frames, not logical blobs.
  EXPECT_EQ(stats.store_bytes_written, kBlobs * frame_bytes);
  EXPECT_EQ(stats.store_bytes_read, kBlobs * frame_bytes);
}

TEST_F(CodecEngineTest, Fp16FlowHalvesStoreBytes) {
  TransferOptions opts = EngineOptions(tmp.Sub("fp16_bytes"));
  opts.codec.spec(FlowClass::kActivationSpill) = "fp16";
  auto engine = TransferEngine::Open(opts);
  ASSERT_TRUE(engine.ok());

  const int64_t kFloats = 4096;
  const int64_t kBytes = kFloats * 4;
  const std::vector<float> vals = RandomFloats(kFloats, 77);
  ASSERT_TRUE((*engine)
                  ->Write(FlowClass::kActivationSpill, "act", vals.data(),
                          kBytes)
                  .ok());
  std::vector<float> out(kFloats);
  ASSERT_TRUE(
      (*engine)->Read(FlowClass::kActivationSpill, "act", out.data(), kBytes)
          .ok());
  // The reader observes exactly the demoted values.
  for (int64_t i = 0; i < kFloats; ++i) {
    ASSERT_EQ(out[i], HalfToFloat(FloatToHalf(vals[i]))) << i;
  }

  const TransferStats stats = (*engine)->stats();
  const FlowCounters& c = stats.Flow(FlowClass::kActivationSpill);
  EXPECT_EQ(c.bytes_written, kBytes);
  EXPECT_EQ(c.encoded_bytes_written, kBytes / 2 + kCodecFrameHeaderBytes);
  EXPECT_GT(c.WriteCompressionRatio(), 1.9);
  EXPECT_GT(c.encode_seconds, 0.0);
  EXPECT_GT(c.decode_seconds, 0.0);
}

TEST_F(CodecEngineTest, LossyCodecSkipsWriteSideCacheAdmit) {
  // The lossy cache rule: a reader must observe decode(encode(x)) no
  // matter whether the blob was still DRAM-resident — so the write-side
  // admit is skipped for lossy codecs and the first read is a store
  // miss. The decoded bytes may then be promoted (re-reading them is
  // consistent), making the *second* read a hit with identical bytes.
  TransferOptions opts = EngineOptions(tmp.Sub("lossy_cache"));
  opts.host_cache_bytes = 1 << 20;
  opts.codec.spec(FlowClass::kActivationSpill) = "fp16";
  auto engine = TransferEngine::Open(opts);
  ASSERT_TRUE(engine.ok());

  const int64_t kFloats = 512;
  const int64_t kBytes = kFloats * 4;
  const std::vector<float> vals = RandomFloats(kFloats, 91);
  ASSERT_TRUE((*engine)
                  ->Write(FlowClass::kActivationSpill, "act", vals.data(),
                          kBytes)
                  .ok());

  std::vector<float> first(kFloats), second(kFloats);
  ASSERT_TRUE((*engine)
                  ->Read(FlowClass::kActivationSpill, "act", first.data(),
                         kBytes)
                  .ok());
  ASSERT_TRUE((*engine)
                  ->Read(FlowClass::kActivationSpill, "act", second.data(),
                         kBytes)
                  .ok());
  const TransferStats stats = (*engine)->stats();
  const FlowCounters& c = stats.Flow(FlowClass::kActivationSpill);
  EXPECT_EQ(c.cache_misses, 1);  // write-side admit was skipped
  EXPECT_EQ(c.cache_hits, 1);    // promotion-after-decode served read 2
  for (int64_t i = 0; i < kFloats; ++i) {
    const float expect = HalfToFloat(FloatToHalf(vals[i]));
    ASSERT_EQ(first[i], expect) << i;
    ASSERT_EQ(second[i], expect) << i;
  }

  // Contrast: a *lossless* framed flow still admits at write time.
  const std::vector<uint8_t> blob = RandomBytes(kBytes, 92);
  TransferOptions opts2 = EngineOptions(tmp.Sub("lossless_cache"));
  opts2.host_cache_bytes = 1 << 20;
  opts2.codec.spec(FlowClass::kCheckpoint) = "identity";
  auto engine2 = TransferEngine::Open(opts2);
  ASSERT_TRUE(engine2.ok());
  ASSERT_TRUE(
      (*engine2)->Write(FlowClass::kCheckpoint, "ck", blob.data(), kBytes)
          .ok());
  std::vector<uint8_t> out(kBytes);
  ASSERT_TRUE(
      (*engine2)->Read(FlowClass::kCheckpoint, "ck", out.data(), kBytes)
          .ok());
  EXPECT_EQ(out, blob);
  const TransferStats stats2 = (*engine2)->stats();
  EXPECT_EQ(stats2.Flow(FlowClass::kCheckpoint).cache_hits, 1);
}

TEST_F(CodecEngineTest, LossyOverwriteInvalidatesThePromotedCacheEntry) {
  // The other half of the lossy cache rule: reading a lossy key
  // promotes its *decoded* bytes into the DRAM tier, so overwriting
  // that key must invalidate the promoted entry — otherwise every
  // later read would serve the previous value from DRAM. This is
  // exactly the trainer's spill pattern: the same "act/i" keys are
  // rewritten every step and read back within the step.
  TransferOptions opts = EngineOptions(tmp.Sub("lossy_overwrite"));
  opts.host_cache_bytes = 1 << 20;
  opts.codec.spec(FlowClass::kActivationSpill) = "fp16";
  auto engine = TransferEngine::Open(opts);
  ASSERT_TRUE(engine.ok());

  const int64_t kFloats = 512;
  const int64_t kBytes = kFloats * 4;
  std::vector<float> out(kFloats);
  for (int step = 0; step < 3; ++step) {
    const std::vector<float> vals = RandomFloats(kFloats, 700 + step);
    ASSERT_TRUE((*engine)
                    ->Write(FlowClass::kActivationSpill, "act", vals.data(),
                            kBytes)
                    .ok());
    // Read twice: the first decodes this step's frame from the store
    // (the overwrite dropped the previous step's promoted entry), the
    // second may hit the fresh promotion — both must deliver *this*
    // step's demoted values.
    for (int pass = 0; pass < 2; ++pass) {
      SCOPED_TRACE("step " + std::to_string(step) + " pass " +
                   std::to_string(pass));
      ASSERT_TRUE((*engine)
                      ->Read(FlowClass::kActivationSpill, "act", out.data(),
                             kBytes)
                      .ok());
      for (int64_t i = 0; i < kFloats; ++i) {
        ASSERT_EQ(out[i], HalfToFloat(FloatToHalf(vals[i]))) << i;
      }
    }
  }
  const TransferStats stats = (*engine)->stats();
  const FlowCounters& c = stats.Flow(FlowClass::kActivationSpill);
  EXPECT_EQ(c.cache_misses, 3);  // one store decode per overwrite
  EXPECT_EQ(c.cache_hits, 3);    // one promoted hit per overwrite
  EXPECT_EQ(c.decodes, 3);
}

TEST_F(CodecEngineTest, PooledFrameBuffersReachZeroSteadyStateAllocs) {
  // The zero-copy acceptance criterion extended to codec frames: after
  // a warmup round populates the pool's size classes, further codec
  // writes and reads lease every frame and every decode destination
  // from the free lists — the allocation counter must not move.
  TransferOptions opts = EngineOptions(tmp.Sub("pool"));
  opts.codec.spec(FlowClass::kActivationSpill) = "fp16";
  auto engine = TransferEngine::Open(opts);
  ASSERT_TRUE(engine.ok());

  const int64_t kBytes = 16 * 1024;
  std::vector<uint8_t> data = RandomBytes(kBytes, 11);
  std::vector<uint8_t> out(kBytes);
  auto round = [&](int i) {
    const std::string key = "act/" + std::to_string(i % 2);
    ASSERT_TRUE((*engine)
                    ->Write(FlowClass::kActivationSpill, key, data.data(),
                            kBytes)
                    .ok());
    ASSERT_TRUE((*engine)
                    ->Read(FlowClass::kActivationSpill, key, out.data(),
                           kBytes)
                    .ok());
  };
  for (int i = 0; i < 4; ++i) round(i);  // warmup: classes populate
  ASSERT_TRUE((*engine)->Drain().ok());
  const BufferPool::Stats warm = (*engine)->buffer_pool().stats();
  for (int i = 0; i < 16; ++i) round(i);
  ASSERT_TRUE((*engine)->Drain().ok());
  const BufferPool::Stats steady = (*engine)->buffer_pool().stats();
  EXPECT_EQ(steady.allocations, warm.allocations)
      << "codec path allocated in steady state";
  EXPECT_GT(steady.reuses, warm.reuses);
}

TEST_F(CodecEngineTest, BufferReadOverloadDecodesThroughTheCodecPath) {
  TransferOptions opts = EngineOptions(tmp.Sub("bufread"));
  opts.codec.spec(FlowClass::kGradState) = "identity";
  auto engine = TransferEngine::Open(opts);
  ASSERT_TRUE(engine.ok());
  const int64_t kBytes = 2048;
  const std::vector<uint8_t> data = RandomBytes(kBytes, 13);
  ASSERT_TRUE(
      (*engine)->Write(FlowClass::kGradState, "g", data.data(), kBytes).ok());
  auto buf = (*engine)->ReadBuffer(FlowClass::kGradState, "g", kBytes);
  ASSERT_TRUE(buf.ok());
  ASSERT_EQ(buf->size(), kBytes);
  EXPECT_EQ(0, std::memcmp(buf->data(), data.data(), kBytes));
  // Zero-copy delivery: the Buffer overload hands the decoded buffer
  // out by reference, so no payload memcpy is charged to the flow.
  const TransferStats stats = (*engine)->stats();
  const FlowCounters& c = stats.Flow(FlowClass::kGradState);
  EXPECT_EQ(c.decodes, 1);
  EXPECT_EQ(c.decode_failures, 0);
}

// ---------- Planner integration ----------

TEST(CodecPlannerTest, CompressionRatioShrinksTheSsdTermOnly) {
  auto cfg = LlmFromTableIV("13B");
  ASSERT_TRUE(cfg.ok());
  const WorkloadProfile wl = WorkloadProfile::Build(*cfg, 32);
  const ServerConfig server =
      catalog::EvaluationServer(catalog::Rtx4090(), 768 * kGiB, 12);
  auto hw = HardwareProfiler(server).Profile(wl);
  ASSERT_TRUE(hw.ok());
  CostModel cm(*hw, wl);

  const double overflow = static_cast<double>(hw->mem_avail_m) + 8e9;
  ASSERT_DOUBLE_EQ(cm.SsdActivationBytes(overflow), 8e9);
  cm.SetActivationCompressionRatio(2.0);
  EXPECT_DOUBLE_EQ(cm.SsdActivationBytes(overflow), 4e9);
  // Below the memory watermark nothing spills either way.
  EXPECT_DOUBLE_EQ(cm.SsdActivationBytes(1.0), 0.0);
  EXPECT_DOUBLE_EQ(cm.activation_compression_ratio(), 2.0);
}

TEST(CodecPlannerTest, PlannerSwapsAtLeastAsMuchUnderCompression) {
  // Halving the SSD leg of the spill flow can only make swapping
  // cheaper: Algorithm 1's inflection point moves to swap >= as many
  // activation bytes, and the predicted iteration time cannot get
  // worse. On a memory-tight profile the SSD term binds, so the plan
  // actually changes.
  auto cfg = LlmFromTableIV("30B");
  ASSERT_TRUE(cfg.ok());
  const WorkloadProfile wl = WorkloadProfile::Build(*cfg, 32);
  const ServerConfig server =
      catalog::EvaluationServer(catalog::Rtx4090(), 256 * kGiB, 2);
  auto hw = HardwareProfiler(server).Profile(wl);
  ASSERT_TRUE(hw.ok());

  CostModel raw(*hw, wl);
  const ActivationPlan plan_raw = ActivationPlanner(raw).Plan();

  CostModel compressed(*hw, wl);
  auto fp16 = MakeFp16Codec();
  compressed.SetActivationCompressionRatio(
      ExpectedCompressionRatio(*fp16, 64 << 20));
  const ActivationPlan plan_fp16 = ActivationPlanner(compressed).Plan();

  EXPECT_GE(plan_fp16.a_g2m, plan_raw.a_g2m);
  EXPECT_LE(plan_fp16.predicted_iter_time,
            plan_raw.predicted_iter_time + 1e-9);
  // Algorithm 1 still matches the exhaustive reference under the
  // modified cost surface (convexity is preserved by a constant
  // positive scale on one max() term).
  const ActivationPlan exhaustive =
      ActivationPlanner(compressed).PlanByExhaustiveSearch();
  EXPECT_EQ(plan_fp16.a_g2m, exhaustive.a_g2m);
}

// ---------- Trainer lossy-flow rule ----------

using CodecTrainerTest = TempDirTest;
TEST_F(CodecTrainerTest, LossyCodecRejectedOffTheActivationFlow) {
  ag::TinyGptConfig cfg;
  cfg.vocab_size = 32;
  cfg.seq_len = 8;
  cfg.hidden_dim = 16;
  cfg.num_heads = 2;
  cfg.num_layers = 2;
  ag::TinyGpt model(cfg, 71);
  TrainerOptions opts;
  opts.store_dir = tmp.Sub("lossy_rule");
  opts.codec.spec(FlowClass::kGradState) = "fp16";
  auto trainer = RatelTrainer::Create(&model, opts);
  ASSERT_FALSE(trainer.ok());
  EXPECT_EQ(trainer.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(trainer.status().message().find("grad_state"),
            std::string::npos);
}

TEST_F(CodecTrainerTest, LossyCodecAcceptedOnActivationSpillAndTrains) {
  ag::TinyGptConfig cfg;
  cfg.vocab_size = 32;
  cfg.seq_len = 8;
  cfg.hidden_dim = 16;
  cfg.num_heads = 2;
  cfg.num_layers = 2;
  ag::TinyGpt model(cfg, 72);
  TrainerOptions opts;
  opts.store_dir = tmp.Sub("lossy_ok");
  opts.spill_activations = true;
  opts.codec.spec(FlowClass::kActivationSpill) = "fp16";
  auto trainer = RatelTrainer::Create(&model, opts);
  ASSERT_TRUE(trainer.ok()) << trainer.status().message();
  SyntheticDataset ds(SyntheticTask::kAffineMap, 32, 8, 12);
  const TokenBatch b = ds.NextBatch(2);
  auto loss = (*trainer)->TrainStep(b.ids, b.targets, 2);
  ASSERT_TRUE(loss.ok());
  EXPECT_TRUE(std::isfinite(*loss));
  // The spill flow really went through the codec.
  const TransferStats stats = (*trainer)->transfer_stats();
  const FlowCounters& c = stats.Flow(FlowClass::kActivationSpill);
  EXPECT_GT(c.encodes, 0);
  EXPECT_GT(c.decodes, 0);
  EXPECT_GT(c.WriteCompressionRatio(), 1.0);
}

}  // namespace
}  // namespace ratel
