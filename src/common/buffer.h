#ifndef RATEL_COMMON_BUFFER_H_
#define RATEL_COMMON_BUFFER_H_

#include <cstdint>
#include <memory>
#include <vector>

namespace ratel {

namespace internal {
struct BufferBlock;
struct BufferPoolState;
}  // namespace internal

/// Ref-counted byte span — the unit of zero-copy data movement. A
/// Buffer is *mutable while private* (between Lease/Allocate and the
/// first share) and *immutable after publish*: once a second reference
/// exists (the buffer was handed to the TransferEngine, admitted into
/// the TierCache, or copied by any holder), no holder may write through
/// `mutable_data()` again. Copying a Buffer copies the reference, never
/// the bytes; the backing block is released — back to its BufferPool,
/// or to the heap for standalone buffers — when the last reference
/// drops.
///
/// The class itself is a value type: concurrent operations on
/// *distinct* Buffer objects (even ones sharing a block) are safe;
/// mutating one Buffer object from two threads is not, exactly like
/// std::shared_ptr.
class Buffer {
 public:
  Buffer();
  ~Buffer();
  Buffer(const Buffer&);
  Buffer& operator=(const Buffer&);
  Buffer(Buffer&&) noexcept;
  Buffer& operator=(Buffer&&) noexcept;

  /// Standalone (pool-less) heap-backed buffer of `size` bytes. The
  /// contents are uninitialized.
  static Buffer Allocate(int64_t size);

  /// Standalone buffer holding a copy of `[data, data + size)`.
  static Buffer CopyOf(const void* data, int64_t size);

  /// Adopts `bytes` (moved, no copy) as a standalone buffer.
  static Buffer FromVector(std::vector<uint8_t> bytes);

  const uint8_t* data() const { return data_; }
  int64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Writable view. Only valid while this is the sole reference to the
  /// block (`shared()` is false) — after publishing the buffer to the
  /// engine or cache, the bytes are frozen.
  uint8_t* mutable_data() { return data_; }

  /// True when more than one Buffer currently references the block.
  bool shared() const { return block_.use_count() > 1; }

  /// References to the backing block (diagnostics/tests).
  int64_t use_count() const { return block_.use_count(); }

  const uint8_t* begin() const { return data_; }
  const uint8_t* end() const { return data_ + size_; }

  /// Drops this reference (the block is released when it was the last).
  void reset();

 private:
  friend class BufferPool;
  Buffer(std::shared_ptr<internal::BufferBlock> block, int64_t size);

  std::shared_ptr<internal::BufferBlock> block_;
  uint8_t* data_ = nullptr;
  int64_t size_ = 0;
};

/// Size-class recycling arena for movement-path staging buffers — the
/// software stand-in for the pinned host staging pool a real
/// GPU<->SSD pipeline keeps (SSDTrain's recycled transfer buffers,
/// MemAscend's pinned-memory economy). Leases round up to a size class
/// (see SizeClassFor) and are served LIFO from a per-class free list, so a
/// steady-state training loop whose working set has stabilized performs
/// **zero** heap allocations on the movement path: every Lease is a
/// reuse, every release a return.
///
/// Blocks flow back automatically: when the last Buffer reference
/// drops, the block re-enters its class's free list (or is freed if the
/// pool died first — buffers may outlive the pool). Thread-safe.
class BufferPool {
 public:
  static constexpr int64_t kDefaultMinBlockBytes = 256;

  explicit BufferPool(int64_t min_block_bytes = kDefaultMinBlockBytes);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// A private (use_count == 1) buffer of exactly `size` logical bytes,
  /// backed by a block of SizeClassFor(size) capacity. size == 0 yields
  /// an empty Buffer without touching the pool.
  Buffer Lease(int64_t size);

  /// Capacity a lease of `size` rounds up to. Up to kFineClassBytes the
  /// classes are the powers of two >= min_block_bytes; above it each
  /// octave (2^k, 2^(k+1)] splits into 16 equal steps, so a lease
  /// wastes at most 1/16 of its size (a 64 KiB payload plus a 32-byte
  /// frame header takes 68 KiB, not 128 KiB).
  int64_t SizeClassFor(int64_t size) const;

  static constexpr int64_t kFineClassBytes = 2048;

  /// Frees every block sitting in the free lists (outstanding leases
  /// are unaffected and still return — to the now-empty lists).
  void Trim();

  struct Stats {
    /// Fresh heap blocks created — the pool-miss count. Zero deltas
    /// here in steady state is the "no allocations on the movement
    /// path" acceptance criterion.
    int64_t allocations = 0;
    /// Leases served from a free list (pool hits).
    int64_t reuses = 0;
    /// Blocks returned to a free list by the last reference dropping.
    int64_t returns = 0;
    /// Block capacity currently leased out (not yet returned).
    int64_t outstanding_bytes = 0;
    /// Block capacity sitting in free lists, ready for reuse.
    int64_t pooled_bytes = 0;
    int64_t leases() const { return allocations + reuses; }
  };
  Stats stats() const;

 private:
  std::shared_ptr<internal::BufferPoolState> state_;
  int64_t min_block_bytes_ = kDefaultMinBlockBytes;
};

}  // namespace ratel

#endif  // RATEL_COMMON_BUFFER_H_
