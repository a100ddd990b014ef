#include "runtime/checkpoint.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "common/checksum.h"
#include "common/logging.h"

namespace ratel {
namespace checkpoint {

namespace {

constexpr char kMagic[8] = {'R', 'A', 'T', 'E', 'L', 'C', 'K', 'P'};
constexpr uint32_t kVersion = 1;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

Status WriteBytes(std::FILE* f, const void* data, size_t n) {
  if (std::fwrite(data, 1, n, f) != n) {
    return Status::IoError("checkpoint write failed");
  }
  return Status::Ok();
}

Status ReadBytes(std::FILE* f, void* data, size_t n) {
  if (std::fread(data, 1, n, f) != n) {
    return Status::IoError("checkpoint truncated");
  }
  return Status::Ok();
}

// Bytes between the read position and the end of `f`. Every length
// field is checked against this before anything is sized from it, so a
// corrupt length fails as kDataLoss instead of allocating.
uint64_t BytesLeft(std::FILE* f) {
  struct stat st;
  const long pos = std::ftell(f);
  if (pos < 0 || ::fstat(::fileno(f), &st) != 0 || st.st_size < pos) return 0;
  return static_cast<uint64_t>(st.st_size - pos);
}

}  // namespace

Status Save(AsyncUpdateEngine& adam, const std::vector<std::string>& names,
            const std::string& path) {
  // Barrier: any state writeback still queued behind the engine must
  // land before the master copies are read out.
  RATEL_RETURN_IF_ERROR(adam.engine().Drain());
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) return Status::IoError("cannot open '" + path + "' for writing");
  RATEL_RETURN_IF_ERROR(WriteBytes(f.get(), kMagic, sizeof(kMagic)));
  RATEL_RETURN_IF_ERROR(WriteBytes(f.get(), &kVersion, sizeof(kVersion)));
  const uint32_t count = static_cast<uint32_t>(names.size());
  RATEL_RETURN_IF_ERROR(WriteBytes(f.get(), &count, sizeof(count)));
  std::vector<float> values;
  for (const std::string& name : names) {
    RATEL_RETURN_IF_ERROR(adam.FetchMasterParams(name, &values));
    const uint32_t name_len = static_cast<uint32_t>(name.size());
    RATEL_RETURN_IF_ERROR(WriteBytes(f.get(), &name_len, sizeof(name_len)));
    RATEL_RETURN_IF_ERROR(WriteBytes(f.get(), name.data(), name.size()));
    const uint64_t n = values.size();
    RATEL_RETURN_IF_ERROR(WriteBytes(f.get(), &n, sizeof(n)));
    RATEL_RETURN_IF_ERROR(
        WriteBytes(f.get(), values.data(), 4 * values.size()));
  }
  if (std::fflush(f.get()) != 0) return Status::IoError("flush failed");
  return Status::Ok();
}

Result<std::vector<Entry>> Load(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return Status::NotFound("cannot open '" + path + "'");
  char magic[8];
  RATEL_RETURN_IF_ERROR(ReadBytes(f.get(), magic, sizeof(magic)));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("'" + path + "' is not a Ratel checkpoint");
  }
  uint32_t version = 0;
  RATEL_RETURN_IF_ERROR(ReadBytes(f.get(), &version, sizeof(version)));
  if (version != kVersion) {
    return Status::InvalidArgument("unsupported checkpoint version " +
                                   std::to_string(version));
  }
  uint32_t count = 0;
  RATEL_RETURN_IF_ERROR(ReadBytes(f.get(), &count, sizeof(count)));
  // An entry is at least its name length (u32) and element count (u64).
  if (count > BytesLeft(f.get()) / 12) {
    return Status::DataLoss("corrupt checkpoint: entry count exceeds file");
  }
  std::vector<Entry> entries;
  entries.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t name_len = 0;
    RATEL_RETURN_IF_ERROR(ReadBytes(f.get(), &name_len, sizeof(name_len)));
    if (name_len > 4096) {
      return Status::InvalidArgument("corrupt checkpoint: name too long");
    }
    Entry e;
    e.name.resize(name_len);
    RATEL_RETURN_IF_ERROR(ReadBytes(f.get(), e.name.data(), name_len));
    uint64_t n = 0;
    RATEL_RETURN_IF_ERROR(ReadBytes(f.get(), &n, sizeof(n)));
    if (n > BytesLeft(f.get()) / 4) {
      return Status::DataLoss("corrupt checkpoint: tensor exceeds file");
    }
    e.values.resize(n);
    RATEL_RETURN_IF_ERROR(ReadBytes(f.get(), e.values.data(), 4 * n));
    entries.push_back(std::move(e));
  }
  return entries;
}

// ----- Crash-consistent training state (format v2) -----

namespace {

constexpr uint32_t kVersion2 = 2;

// A writer that checksums everything it emits; each shard's CRC is
// flushed right behind the shard's bytes.
class ChecksummedWriter {
 public:
  explicit ChecksummedWriter(std::FILE* f) : f_(f) {}

  Status Write(const void* data, size_t n) {
    crc_.Update(data, n);
    return WriteBytes(f_, data, n);
  }

  /// Emits the CRC of everything written since the last FlushCrc and
  /// resets the accumulator.
  Status FlushCrc() {
    const uint32_t crc = crc_.value();
    crc_.Reset();
    return WriteBytes(f_, &crc, sizeof(crc));
  }

 private:
  std::FILE* f_;
  Crc32cAccumulator crc_;
};

// Read side: truncation and checksum mismatch are both kDataLoss — the
// caller treats either as a torn checkpoint and falls back.
class ChecksummedReader {
 public:
  ChecksummedReader(std::FILE* f, std::string path)
      : f_(f), path_(std::move(path)) {}

  Status Read(void* data, size_t n) {
    if (std::fread(data, 1, n, f_) != n) {
      return Status::DataLoss("checkpoint '" + path_ + "' truncated (torn)");
    }
    crc_.Update(data, n);
    return Status::Ok();
  }

  /// Reads the stored CRC and checks it against everything read since
  /// the last VerifyCrc.
  Status VerifyCrc(const char* what) {
    const uint32_t expected = crc_.value();
    crc_.Reset();
    uint32_t stored = 0;
    if (std::fread(&stored, 1, sizeof(stored), f_) != sizeof(stored)) {
      return Status::DataLoss("checkpoint '" + path_ + "' truncated (torn)");
    }
    if (stored != expected) {
      return Status::DataLoss("checkpoint '" + path_ + "': " +
                              std::string(what) + " checksum mismatch");
    }
    return Status::Ok();
  }

 private:
  std::FILE* f_;
  std::string path_;
  Crc32cAccumulator crc_;
};

Status FsyncFile(std::FILE* f, const std::string& path) {
  if (std::fflush(f) != 0) {
    return Status::IoError("flush '" + path + "' failed");
  }
  if (::fsync(::fileno(f)) != 0) {
    return Status::IoError("fsync '" + path + "': " + std::strerror(errno));
  }
  return Status::Ok();
}

// fsync the directory so the rename itself is durable.
void FsyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." :
                          path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd >= 0) {
    (void)::fsync(fd);
    ::close(fd);
  }
}

}  // namespace

Status SaveStateViews(const TrainStateView& state, const std::string& path) {
  // Shadow write + atomic publish: the published name never refers to a
  // partially written file. Shard payloads stream straight from the
  // caller's (possibly engine-shared) buffers — no staging vectors.
  const std::string tmp = path + ".tmp";
  {
    FilePtr f(std::fopen(tmp.c_str(), "wb"));
    if (!f) return Status::IoError("cannot open '" + tmp + "' for writing");
    ChecksummedWriter w(f.get());
    RATEL_RETURN_IF_ERROR(WriteBytes(f.get(), kMagic, sizeof(kMagic)));
    RATEL_RETURN_IF_ERROR(w.Write(&kVersion2, sizeof(kVersion2)));
    const uint64_t step = static_cast<uint64_t>(state.step);
    RATEL_RETURN_IF_ERROR(w.Write(&step, sizeof(step)));
    const uint32_t count = static_cast<uint32_t>(state.tensors.size());
    RATEL_RETURN_IF_ERROR(w.Write(&count, sizeof(count)));
    RATEL_RETURN_IF_ERROR(w.FlushCrc());
    for (const TensorStateView& t : state.tensors) {
      if (t.n > 0 &&
          (t.p32 == nullptr || t.m == nullptr || t.v == nullptr)) {
        return Status::InvalidArgument("tensor '" + t.name +
                                       "' has null state views");
      }
      const uint32_t name_len = static_cast<uint32_t>(t.name.size());
      RATEL_RETURN_IF_ERROR(w.Write(&name_len, sizeof(name_len)));
      RATEL_RETURN_IF_ERROR(w.Write(t.name.data(), t.name.size()));
      const uint64_t n = static_cast<uint64_t>(t.n);
      RATEL_RETURN_IF_ERROR(w.Write(&n, sizeof(n)));
      const uint64_t adam_step = static_cast<uint64_t>(t.adam_step);
      RATEL_RETURN_IF_ERROR(w.Write(&adam_step, sizeof(adam_step)));
      RATEL_RETURN_IF_ERROR(w.Write(t.p32, 4 * n));
      RATEL_RETURN_IF_ERROR(w.Write(t.m, 4 * n));
      RATEL_RETURN_IF_ERROR(w.Write(t.v, 4 * n));
      RATEL_RETURN_IF_ERROR(w.FlushCrc());
    }
    RATEL_RETURN_IF_ERROR(FsyncFile(f.get(), tmp));
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IoError("rename '" + tmp + "' -> '" + path +
                           "': " + std::strerror(errno));
  }
  FsyncParentDir(path);
  return Status::Ok();
}

Result<TrainState> LoadState(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return Status::NotFound("cannot open '" + path + "'");
  char magic[8];
  if (std::fread(magic, 1, sizeof(magic), f.get()) != sizeof(magic) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::DataLoss("'" + path + "' is not a Ratel checkpoint");
  }
  ChecksummedReader r(f.get(), path);
  uint32_t version = 0;
  RATEL_RETURN_IF_ERROR(r.Read(&version, sizeof(version)));
  if (version != kVersion2) {
    return Status::InvalidArgument("unsupported checkpoint version " +
                                   std::to_string(version));
  }
  uint64_t step = 0;
  RATEL_RETURN_IF_ERROR(r.Read(&step, sizeof(step)));
  uint32_t count = 0;
  RATEL_RETURN_IF_ERROR(r.Read(&count, sizeof(count)));
  RATEL_RETURN_IF_ERROR(r.VerifyCrc("header"));
  // A shard is at least its name length, n, adam_step and CRC.
  if (count > BytesLeft(f.get()) / 24) {
    return Status::DataLoss("checkpoint '" + path +
                            "': tensor count exceeds file");
  }
  TrainState state;
  state.step = static_cast<int64_t>(step);
  state.tensors.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t name_len = 0;
    RATEL_RETURN_IF_ERROR(r.Read(&name_len, sizeof(name_len)));
    if (name_len > 4096) {
      return Status::DataLoss("checkpoint '" + path + "': name too long");
    }
    TensorState t;
    t.name.resize(name_len);
    RATEL_RETURN_IF_ERROR(r.Read(t.name.data(), name_len));
    uint64_t n = 0;
    RATEL_RETURN_IF_ERROR(r.Read(&n, sizeof(n)));
    // p32, m and v: 12 bytes per element.
    if (n > BytesLeft(f.get()) / 12) {
      return Status::DataLoss("checkpoint '" + path + "': tensor exceeds file");
    }
    uint64_t adam_step = 0;
    RATEL_RETURN_IF_ERROR(r.Read(&adam_step, sizeof(adam_step)));
    t.adam_step = static_cast<int64_t>(adam_step);
    t.p32.resize(n);
    t.m.resize(n);
    t.v.resize(n);
    RATEL_RETURN_IF_ERROR(r.Read(t.p32.data(), 4 * n));
    RATEL_RETURN_IF_ERROR(r.Read(t.m.data(), 4 * n));
    RATEL_RETURN_IF_ERROR(r.Read(t.v.data(), 4 * n));
    RATEL_RETURN_IF_ERROR(r.VerifyCrc("shard"));
    state.tensors.push_back(std::move(t));
  }
  return state;
}

std::string VersionedPath(const std::string& dir, int64_t step) {
  return dir + "/step_" + std::to_string(step) + ".ckpt";
}

Status SaveVersionedViews(const std::string& dir,
                          const TrainStateView& state) {
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IoError("mkdir '" + dir + "': " + std::strerror(errno));
  }
  return SaveStateViews(state, VersionedPath(dir, state.step));
}

Result<TrainState> LoadLatest(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return Status::NotFound("no checkpoint directory '" + dir + "'");
  }
  std::vector<int64_t> steps;
  while (struct dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name.size() > 10 && name.compare(0, 5, "step_") == 0 &&
        name.compare(name.size() - 5, 5, ".ckpt") == 0) {
      char* end = nullptr;
      const long long step = std::strtoll(name.c_str() + 5, &end, 10);
      if (end != nullptr && std::string(end) == ".ckpt") {
        steps.push_back(step);
      }
    }
  }
  ::closedir(d);
  std::sort(steps.rbegin(), steps.rend());
  for (int64_t step : steps) {
    const std::string path = VersionedPath(dir, step);
    Result<TrainState> state = LoadState(path);
    if (state.ok()) return state;
    // Torn or corrupt — fall back to the previous epoch.
    RATEL_LOG(Warning) << "skipping invalid checkpoint " << path << ": "
                       << state.status().ToString();
  }
  return Status::NotFound("no valid checkpoint in '" + dir + "'");
}

}  // namespace checkpoint
}  // namespace ratel
