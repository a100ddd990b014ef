#ifndef RATEL_RUNTIME_CHECKPOINT_H_
#define RATEL_RUNTIME_CHECKPOINT_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "runtime/async_update_engine.h"

namespace ratel {

/// Binary checkpoint of the fp32 master parameters (P32), drained and
/// read out of the optimizer's transfer engine (FlowClass::kCheckpoint
/// traffic) into a single file — what a user keeps after fine-tuning.
///
/// Format (little-endian):
///   magic "RATELCKP" (8 bytes) | version u32 | tensor count u32
///   per tensor: name length u32 | name bytes | element count u64 |
///               fp32 payload
namespace checkpoint {

/// Writes the master copies of `names` (in order) from `adam` to `path`.
Status Save(AsyncUpdateEngine& adam, const std::vector<std::string>& names,
            const std::string& path);

/// One restored tensor.
struct Entry {
  std::string name;
  std::vector<float> values;
};

/// Reads every tensor from a checkpoint file.
Result<std::vector<Entry>> Load(const std::string& path);

// ----- Crash-consistent training state (format v2) -----
//
// Format (little-endian):
//   magic "RATELCKP" | version u32 = 2 | trainer step u64 |
//   tensor count u32 | header CRC-32C u32
//   per tensor: name length u32 | name | element count u64 |
//               adam step u64 | fp32 p32 | fp32 m | fp32 v |
//               shard CRC-32C u32
//
// Every shard carries a CRC-32C over its bytes, so a torn write (power
// cut mid-file) or bit rot is *detected* at load instead of silently
// resuming from garbage.

/// Complete optimizer state of one tensor.
struct TensorState {
  std::string name;
  int64_t adam_step = 0;
  std::vector<float> p32;
  std::vector<float> m;
  std::vector<float> v;
};

/// Everything needed to resume training bitwise-identically.
struct TrainState {
  int64_t step = 0;  // trainer's global step
  std::vector<TensorState> tensors;
};

/// Non-owning view of one tensor's complete optimizer state — the
/// zero-copy analogue of TensorState. The pointed-at arrays (typically
/// published Buffer refs from AsyncUpdateEngine::ExportStateBuffers) must
/// stay alive until the save call returns; all three hold `n` floats.
struct TensorStateView {
  std::string name;
  int64_t adam_step = 0;
  const float* p32 = nullptr;
  const float* m = nullptr;
  const float* v = nullptr;
  int64_t n = 0;
};

/// View-of-everything counterpart of TrainState.
struct TrainStateView {
  int64_t step = 0;  // trainer's global step
  std::vector<TensorStateView> tensors;
};

/// Writes `state` to `path` crash-consistently: bytes go to
/// `path + ".tmp"`, are flushed and fsync'd, then the shadow file is
/// atomically renamed over `path`. A crash at any point leaves either
/// the previous checkpoint or the complete new one — never a torn mix
/// under the published name. Shard payloads stream from the caller's
/// buffers straight into the file — no staging vectors.
Status SaveStateViews(const TrainStateView& state, const std::string& path);

/// Reads a v2 checkpoint, verifying the header and every shard CRC.
/// Truncation or corruption returns kDataLoss (callers fall back to an
/// older checkpoint).
Result<TrainState> LoadState(const std::string& path);

/// `dir/step_<N>.ckpt` — the versioned checkpoint naming scheme.
std::string VersionedPath(const std::string& dir, int64_t step);

/// Writes `state` as `dir/step_<state.step>.ckpt` (SaveStateViews
/// semantics; `dir` is created if absent).
Status SaveVersionedViews(const std::string& dir,
                          const TrainStateView& state);

/// Loads the newest valid checkpoint in `dir`, skipping files that fail
/// verification (a torn latest checkpoint falls back to the previous
/// epoch). kNotFound when no valid checkpoint exists.
Result<TrainState> LoadLatest(const std::string& dir);

}  // namespace checkpoint
}  // namespace ratel

#endif  // RATEL_RUNTIME_CHECKPOINT_H_
