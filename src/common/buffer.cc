#include "common/buffer.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace ratel {
namespace internal {

/// One backing allocation of `capacity` bytes; `origin` points back to
/// the pool that leased it (empty for standalone buffers).
struct BufferBlock {
  std::unique_ptr<uint8_t[]> bytes;
  int64_t capacity = 0;
  std::weak_ptr<BufferPoolState> origin;
};

struct BufferPoolState {
  std::mutex mu;
  // capacity -> LIFO free list of raw allocations of exactly that size.
  std::unordered_map<int64_t, std::vector<std::unique_ptr<uint8_t[]>>> free;
  BufferPool::Stats stats;
};

namespace {

/// Custom deleter: a pooled block flows back to its pool's free list;
/// a standalone (or pool-outliving) block frees its memory.
void ReleaseBlock(BufferBlock* block) {
  if (std::shared_ptr<BufferPoolState> pool = block->origin.lock()) {
    std::lock_guard<std::mutex> lock(pool->mu);
    pool->stats.outstanding_bytes -= block->capacity;
    pool->stats.pooled_bytes += block->capacity;
    ++pool->stats.returns;
    pool->free[block->capacity].push_back(std::move(block->bytes));
  }
  delete block;
}

}  // namespace
}  // namespace internal

Buffer::Buffer() = default;
Buffer::~Buffer() = default;
Buffer::Buffer(const Buffer&) = default;
Buffer& Buffer::operator=(const Buffer&) = default;

Buffer::Buffer(Buffer&& other) noexcept
    : block_(std::move(other.block_)),
      data_(other.data_),
      size_(other.size_) {
  other.data_ = nullptr;
  other.size_ = 0;
}

Buffer& Buffer::operator=(Buffer&& other) noexcept {
  if (this != &other) {
    block_ = std::move(other.block_);
    data_ = other.data_;
    size_ = other.size_;
    other.data_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

Buffer::Buffer(std::shared_ptr<internal::BufferBlock> block, int64_t size)
    : block_(std::move(block)), size_(size) {
  data_ = block_ != nullptr ? block_->bytes.get() : nullptr;
}

void Buffer::reset() {
  block_.reset();
  data_ = nullptr;
  size_ = 0;
}

Buffer Buffer::Allocate(int64_t size) {
  RATEL_CHECK(size >= 0);
  if (size == 0) return Buffer();
  auto* block = new internal::BufferBlock();
  block->bytes = std::make_unique<uint8_t[]>(static_cast<size_t>(size));
  block->capacity = size;
  return Buffer(
      std::shared_ptr<internal::BufferBlock>(block, &internal::ReleaseBlock),
      size);
}

Buffer Buffer::CopyOf(const void* data, int64_t size) {
  Buffer buffer = Allocate(size);
  if (size > 0) std::memcpy(buffer.mutable_data(), data, size);
  return buffer;
}

BufferPool::BufferPool(int64_t min_block_bytes)
    : state_(std::make_shared<internal::BufferPoolState>()) {
  RATEL_CHECK(min_block_bytes > 0);
  min_block_bytes_ = min_block_bytes;
}

BufferPool::~BufferPool() = default;

int64_t BufferPool::SizeClassFor(int64_t size) const {
  int64_t cls = min_block_bytes_;
  while (cls < size && cls < kFineClassBytes) cls *= 2;
  if (cls >= size) return cls;
  // size > kFineClassBytes: round up to 1/16 of the octave below it.
  const int64_t octave = std::bit_floor(static_cast<uint64_t>(size - 1));
  const int64_t step = octave / 16;
  return (size + step - 1) / step * step;
}

Buffer BufferPool::Lease(int64_t size) {
  RATEL_CHECK(size >= 0);
  if (size == 0) return Buffer();
  const int64_t capacity = SizeClassFor(size);
  auto* block = new internal::BufferBlock();
  block->capacity = capacity;
  block->origin = state_;
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    auto it = state_->free.find(capacity);
    if (it != state_->free.end() && !it->second.empty()) {
      block->bytes = std::move(it->second.back());
      it->second.pop_back();
      state_->stats.pooled_bytes -= capacity;
      ++state_->stats.reuses;
    } else {
      ++state_->stats.allocations;
    }
    state_->stats.outstanding_bytes += capacity;
  }
  if (block->bytes == nullptr) {
    block->bytes = std::make_unique<uint8_t[]>(static_cast<size_t>(capacity));
  }
  return Buffer(
      std::shared_ptr<internal::BufferBlock>(block, &internal::ReleaseBlock),
      size);
}

void BufferPool::Trim() {
  std::lock_guard<std::mutex> lock(state_->mu);
  state_->free.clear();
  state_->stats.pooled_bytes = 0;
}

BufferPool::Stats BufferPool::stats() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->stats;
}

}  // namespace ratel
