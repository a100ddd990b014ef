#include "xfer/codec.h"

#include <charconv>
#include <cstring>

#include "common/checksum.h"
#include "common/logging.h"

namespace ratel {

namespace {

// Little-endian field accessors. The emulated store only ever moves
// host memory around, but fixing the byte order keeps frames portable
// across the store directory being copied between machines.
void PutU32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}

uint32_t GetU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

void PutI64(uint8_t* p, int64_t v) {
  const uint64_t u = static_cast<uint64_t>(v);
  PutU32(p, static_cast<uint32_t>(u));
  PutU32(p + 4, static_cast<uint32_t>(u >> 32));
}

int64_t GetI64(const uint8_t* p) {
  const uint64_t lo = GetU32(p);
  const uint64_t hi = GetU32(p + 4);
  return static_cast<int64_t>(lo | (hi << 32));
}

}  // namespace

int64_t FrameSizeFor(const Codec& codec, int64_t logical) {
  RATEL_CHECK(logical >= 0);
  return kCodecFrameHeaderBytes + codec.EncodedPayloadSize(logical);
}

double ExpectedCompressionRatio(const Codec& codec, int64_t logical) {
  if (logical <= 0) return 1.0;
  return static_cast<double>(logical) /
         static_cast<double>(FrameSizeFor(codec, logical));
}

void EncodeFrame(const Codec& codec, const uint8_t* src, int64_t logical,
                 uint8_t* frame) {
  const int64_t payload = codec.EncodedPayloadSize(logical);
  codec.EncodePayload(src, logical, frame + kCodecFrameHeaderBytes);
  PutU32(frame, kCodecFrameMagic);
  frame[4] = kCodecFrameVersion;
  frame[5] = static_cast<uint8_t>(codec.id());
  frame[6] = 0;
  frame[7] = 0;
  PutI64(frame + 8, logical);
  PutI64(frame + 16, payload);
  PutU32(frame + 24, Crc32c(frame + kCodecFrameHeaderBytes,
                            static_cast<size_t>(payload)));
  PutU32(frame + 28, Crc32c(frame, 28));
}

Result<FrameInfo> CheckFrame(const uint8_t* frame, int64_t frame_bytes) {
  if (frame_bytes < kCodecFrameHeaderBytes) {
    return Status::DataLoss("codec frame truncated below header size (" +
                            std::to_string(frame_bytes) + " bytes)");
  }
  if (Crc32c(frame, 28) != GetU32(frame + 28)) {
    return Status::DataLoss("codec frame header CRC mismatch");
  }
  // Header bytes are now trustworthy: field checks after the CRC only
  // catch honest mismatches (wrong key, version skew), not corruption.
  if (GetU32(frame) != kCodecFrameMagic) {
    return Status::DataLoss("codec frame magic mismatch (not a frame?)");
  }
  if (frame[4] != kCodecFrameVersion) {
    return Status::DataLoss("codec frame version " +
                            std::to_string(frame[4]) + " unsupported");
  }
  FrameInfo info;
  info.codec = static_cast<CodecId>(frame[5]);
  info.logical_bytes = GetI64(frame + 8);
  info.payload_bytes = GetI64(frame + 16);
  if (info.logical_bytes < 0 || info.payload_bytes < 0 ||
      info.payload_bytes != frame_bytes - kCodecFrameHeaderBytes) {
    return Status::DataLoss(
        "codec frame size mismatch: header says payload " +
        std::to_string(info.payload_bytes) + ", blob holds " +
        std::to_string(frame_bytes - kCodecFrameHeaderBytes));
  }
  if (Crc32c(frame + kCodecFrameHeaderBytes,
             static_cast<size_t>(info.payload_bytes)) != GetU32(frame + 24)) {
    return Status::DataLoss("codec frame payload CRC mismatch");
  }
  return info;
}

namespace codec_internal {
// Payload decoders, implemented next to their encoders in
// src/xfer/codecs/. Dispatch lives here so DecodeFrame stays
// registry-free (the frame header alone determines the decoder).
Status DecodeIdentityPayload(const uint8_t* payload, int64_t payload_bytes,
                             uint8_t* dst, int64_t logical);
Status DecodeFp16Payload(const uint8_t* payload, int64_t payload_bytes,
                         uint8_t* dst, int64_t logical);
Status DecodeTopKPayload(const uint8_t* payload, int64_t payload_bytes,
                         uint8_t* dst, int64_t logical);
}  // namespace codec_internal

Status DecodeFrame(const uint8_t* frame, int64_t frame_bytes, uint8_t* dst,
                   int64_t logical_bytes) {
  RATEL_ASSIGN_OR_RETURN(FrameInfo info, CheckFrame(frame, frame_bytes));
  if (info.logical_bytes != logical_bytes) {
    return Status::DataLoss("codec frame holds " +
                            std::to_string(info.logical_bytes) +
                            " logical bytes, caller expected " +
                            std::to_string(logical_bytes));
  }
  const uint8_t* payload = frame + kCodecFrameHeaderBytes;
  switch (info.codec) {
    case CodecId::kIdentity:
      return codec_internal::DecodeIdentityPayload(payload, info.payload_bytes,
                                                   dst, logical_bytes);
    case CodecId::kFp16:
      return codec_internal::DecodeFp16Payload(payload, info.payload_bytes,
                                               dst, logical_bytes);
    case CodecId::kTopK:
      return codec_internal::DecodeTopKPayload(payload, info.payload_bytes,
                                               dst, logical_bytes);
  }
  return Status::DataLoss("codec frame names unknown codec id " +
                          std::to_string(static_cast<int>(info.codec)));
}

bool CodecConfig::any() const {
  for (const std::string& spec : flow_spec) {
    if (!spec.empty() && spec != "raw" && spec != "off" && spec != "none") {
      return true;
    }
  }
  return false;
}

Result<std::shared_ptr<const Codec>> MakeCodec(const std::string& spec) {
  if (spec.empty() || spec == "raw" || spec == "off" || spec == "none") {
    return std::shared_ptr<const Codec>();
  }
  if (spec == "identity") return MakeIdentityCodec();
  if (spec == "fp16") return MakeFp16Codec();
  if (spec.rfind("topk:", 0) == 0) {
    const char* arg = spec.c_str() + 5;
    const char* last = spec.c_str() + spec.size();
    int64_t k = 0;
    const auto [end, ec] = std::from_chars(arg, last, k);
    if (ec != std::errc() || end != last || k < 1) {
      return Status::InvalidArgument("codec spec \"" + spec +
                                     "\": topk needs an integer k >= 1");
    }
    return MakeTopKCodec(k);
  }
  return Status::InvalidArgument(
      "unknown codec spec \"" + spec +
      "\" (want identity | fp16 | topk:<k> | raw)");
}

Result<CodecRegistry> CodecRegistry::Create(const CodecConfig& config) {
  CodecRegistry registry;
  for (int i = 0; i < kNumFlowClasses; ++i) {
    const FlowClass flow = static_cast<FlowClass>(i);
    auto codec = MakeCodec(config.spec(flow));
    if (!codec.ok()) {
      return Status::InvalidArgument(std::string(FlowClassName(flow)) + ": " +
                                     codec.status().message());
    }
    registry.codecs_[static_cast<size_t>(i)] = std::move(codec).value();
  }
  return registry;
}

bool CodecRegistry::any() const {
  for (const auto& codec : codecs_) {
    if (codec != nullptr) return true;
  }
  return false;
}

}  // namespace ratel
