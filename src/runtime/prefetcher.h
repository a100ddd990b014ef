#ifndef RATEL_RUNTIME_PREFETCHER_H_
#define RATEL_RUNTIME_PREFETCHER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "xfer/transfer_engine.h"

namespace ratel {

/// Bounded-lookahead asynchronous prefetcher walking an ordered key
/// list, loading each blob into a bounded window of buffers the
/// consumer drains in order — the software analogue of the M->G
/// parameter prefetch stream of the forward stage (Section IV-A), where
/// compute on block i overlaps the fetch of blocks i+1..i+depth.
///
/// Up to `depth` asynchronous reads are kept in flight on a
/// TransferEngine under a given flow class; there is no extra thread —
/// the engine's I/O workers provide the overlap.
///
/// Usage:
///   Prefetcher pf(&engine, FlowClass::kParamFetch,
///                 {{key0, size0}, {key1, size1}, ...}, depth);
///   for (...) { auto item = pf.Next(); /* item.data */ }
class Prefetcher {
 public:
  /// One fetched blob, delivered in key order. `data` is a published
  /// buffer ref — zero-copy when the engine served it from the DRAM
  /// tier — so holders must treat the bytes as read-only.
  struct Item {
    std::string key;
    Buffer data;
    Status status;  // non-OK if this key's fetch failed
  };

  /// Unit of work: a blob key and its exact size. The optional `gate`
  /// is invoked (on the consumer thread) right before this key's read
  /// is submitted — the per-tensor dependency hook the async optimizer
  /// uses so a parameter fetch never overtakes that tensor's in-flight
  /// deferred update. A failing gate surfaces as the item's status; the
  /// read is not submitted.
  struct Request {
    std::string key;
    int64_t size = 0;
    std::function<Status()> gate;
  };

  /// Starts fetching immediately, keeping at most `depth` reads in
  /// flight on `engine` (not owned). All reads are tagged `flow` and
  /// ride the engine's DRAM tier and priority classes.
  Prefetcher(TransferEngine* engine, FlowClass flow,
             std::vector<Request> requests, int depth);

  /// Waits out the in-flight reads; undrained items are discarded.
  ~Prefetcher();

  Prefetcher(const Prefetcher&) = delete;
  Prefetcher& operator=(const Prefetcher&) = delete;

  /// Blocks until the next item (in the original key order) is ready.
  /// Must be called exactly once per key.
  Item Next();

  /// Keys not yet drained by Next().
  int64_t remaining() const;

 private:
  struct Pending {
    Item item;
    /// Engine ticket of the in-flight read; kNoTicket when the request
    /// never reached the engine (its gate failed — status pre-set).
    static constexpr TransferEngine::Ticket kNoTicket = -1;
    TransferEngine::Ticket ticket = kNoTicket;
  };

  void SubmitNextLocked();

  TransferEngine* engine_;
  FlowClass flow_;
  std::vector<Request> requests_;
  size_t depth_;
  std::deque<Pending> pending_;  // deque: stable buffer addresses
  size_t submitted_ = 0;

  mutable std::mutex mu_;
  size_t consumed_ = 0;
};

}  // namespace ratel

#endif  // RATEL_RUNTIME_PREFETCHER_H_
