#ifndef RATEL_XFER_CODEC_H_
#define RATEL_XFER_CODEC_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "xfer/flow.h"

namespace ratel {

/// Transform codecs on the TransferEngine store path — the "move fewer
/// bytes" lever (LSP-Offload / SSDTrain) complementing the paper's
/// "move them at the right time". A codec turns a logical blob into a
/// CRC-32C-protected *frame* before the store write and back after the
/// store read; the DRAM tier above always holds logical (decoded)
/// bytes, so only the SSD leg shrinks.
///
/// Frame layout (little-endian, 32-byte header + payload):
///
///   offset  size  field
///        0     4  magic 'RTCF'
///        4     1  frame version (1)
///        5     1  codec id (CodecId)
///        6     2  reserved (0)
///        8     8  logical_bytes  (decoded size)
///       16     8  payload_bytes  (== frame size - 32)
///       24     4  payload CRC-32C
///       28     4  header CRC-32C (over bytes [0, 28))
///
/// Both CRCs reuse the checkpoint-v2 checksum machinery
/// (common/checksum.h). A single-bit flip anywhere in the frame fails
/// one of the two CRCs, so a torn or bit-rotted frame can never decode
/// to silent garbage — CheckFrame surfaces kDataLoss instead.
inline constexpr uint32_t kCodecFrameMagic = 0x52544346u;  // "RTCF"
inline constexpr uint8_t kCodecFrameVersion = 1;
inline constexpr int64_t kCodecFrameHeaderBytes = 32;

/// Wire identifier of a codec, persisted in every frame header so
/// decode is self-describing (reading back never needs the registry —
/// or the top-k `k` — that produced the frame).
enum class CodecId : uint8_t {
  kIdentity = 0,
  kFp16 = 1,
  kTopK = 2,
};

/// One transform. Implementations are stateless and thread-safe; the
/// engine calls them concurrently from submit threads and I/O workers.
///
/// EncodedPayloadSize must be *content-independent* (a function of the
/// logical size only): the engine leases the frame buffer at its exact
/// final size before encoding — zero-copy publish-once, no scratch
/// staging — and a reader derives the frame size it must fetch from
/// the logical size it wants, without a metadata round trip.
class Codec {
 public:
  virtual ~Codec() = default;

  virtual const char* name() const = 0;
  virtual CodecId id() const = 0;
  /// True when decode(encode(x)) == x for every input. Lossy codecs are
  /// only admissible on recomputable/transient flows (activation
  /// spills); see the trainer's lossy-flow rule.
  virtual bool lossless() const = 0;

  /// Exact payload size (frame size minus header) for `logical` input
  /// bytes. Content-independent by contract.
  virtual int64_t EncodedPayloadSize(int64_t logical) const = 0;

  /// Encodes `src[0, logical)` into `dst[0, EncodedPayloadSize(logical))`.
  virtual void EncodePayload(const uint8_t* src, int64_t logical,
                             uint8_t* dst) const = 0;
};

/// Built-in codec factories (implemented in src/xfer/codecs/).
std::shared_ptr<const Codec> MakeIdentityCodec();
std::shared_ptr<const Codec> MakeFp16Codec();
/// Keeps the `k` largest-magnitude float32 elements as (index, value)
/// pairs, indices strictly ascending. k >= 1.
std::shared_ptr<const Codec> MakeTopKCodec(int64_t k);

/// Total frame size (header + payload) `codec` produces for `logical`
/// input bytes.
int64_t FrameSizeFor(const Codec& codec, int64_t logical);

/// Logical bytes per encoded byte — the planner-facing ratio (>= or <
/// 1; framing overhead can push tiny blobs above 1 encoded byte per
/// logical byte). Returns 1.0 for logical == 0.
double ExpectedCompressionRatio(const Codec& codec, int64_t logical);

/// Encodes `src[0, logical)` into `frame[0, FrameSizeFor(codec,
/// logical))`: header, payload, both CRCs. Infallible — sizes are
/// precomputed and encode has no data-dependent failure mode.
void EncodeFrame(const Codec& codec, const uint8_t* src, int64_t logical,
                 uint8_t* frame);

/// Parsed, CRC-verified frame header.
struct FrameInfo {
  CodecId codec = CodecId::kIdentity;
  int64_t logical_bytes = 0;
  int64_t payload_bytes = 0;
};

/// Validates `frame[0, frame_bytes)`: magic, version, header CRC,
/// size consistency, payload CRC. Any mismatch — a torn prefix, a
/// flipped bit, a truncated blob — returns kDataLoss (the scheduler
/// retries the read like a torn write before surfacing it).
Result<FrameInfo> CheckFrame(const uint8_t* frame, int64_t frame_bytes);

/// Decodes a frame into `dst[0, logical_bytes)`. Verifies the frame
/// first (CheckFrame) and that its recorded logical size matches the
/// caller's expectation; dispatches on the header's codec id, so no
/// registry is needed to read data back. kDataLoss on any mismatch.
Status DecodeFrame(const uint8_t* frame, int64_t frame_bytes, uint8_t* dst,
                   int64_t logical_bytes);

/// Per-flow codec selection, as spec strings:
///   ""/"raw"/"off"/"none"  — no codec: today's byte-identical store
///                            path, no framing (the default)
///   "identity"             — framed verbatim bytes (CRC protection at
///                            the cost of one frame-encode copy)
///   "fp16"                 — float32 -> float16 demotion (lossy)
///   "topk:<k>"             — k largest-|value| floats as sparse
///                            (index, value) pairs (lossy)
/// Trailing non-float bytes (logical % 4) ride along verbatim in the
/// lossy codecs, so odd-length blobs round-trip their tail exactly.
struct CodecConfig {
  std::array<std::string, kNumFlowClasses> flow_spec{};

  std::string& spec(FlowClass flow) {
    return flow_spec[static_cast<size_t>(flow)];
  }
  const std::string& spec(FlowClass flow) const {
    return flow_spec[static_cast<size_t>(flow)];
  }
  /// True when any flow names a codec (vs. all-raw).
  bool any() const;
};

/// Parses one spec string. Returns a null pointer (no codec — raw
/// passthrough) for the empty/raw specs; kInvalidArgument for anything
/// unrecognized (including topk with k < 1).
Result<std::shared_ptr<const Codec>> MakeCodec(const std::string& spec);

/// Immutable per-flow codec table the engine consults on every submit.
class CodecRegistry {
 public:
  CodecRegistry() = default;

  /// Parses every flow's spec; kInvalidArgument names the bad flow.
  static Result<CodecRegistry> Create(const CodecConfig& config);

  /// The codec of `flow`, or null for the raw passthrough path.
  const Codec* ForFlow(FlowClass flow) const {
    return codecs_[static_cast<size_t>(flow)].get();
  }
  bool any() const;

 private:
  std::array<std::shared_ptr<const Codec>, kNumFlowClasses> codecs_{};
};

}  // namespace ratel

#endif  // RATEL_XFER_CODEC_H_
