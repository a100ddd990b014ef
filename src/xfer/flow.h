#ifndef RATEL_XFER_FLOW_H_
#define RATEL_XFER_FLOW_H_

namespace ratel {

/// Traffic class of a transfer — the paper's holistic view (§IV-C/IV-D)
/// made an enforced runtime boundary: every byte the training loop moves
/// between host and the SSD array is tagged with the leg it belongs to,
/// so one component can arbitrate and account competing flows.
///
/// Split out of transfer_engine.h so flow-keyed configuration (codec
/// specs, fault scopes) can name flows without pulling in the engine.
enum class FlowClass {
  kParamFetch = 0,      // P32 fetch before forward, narrowed to P16 (§IV-A)
  kGradState,           // P32/OS32 stream of the out-of-core Adam (§IV-C)
  kActivationSpill,     // A16 swap-out/swap-in around backward (§IV-D)
  kCheckpoint,          // master-weight snapshots (beyond-paper traffic)
  kDeferredState,       // deferred-tail optimizer writebacks (ZenFlow-style
                        // background epochs; must never block a param fetch)
};

inline constexpr int kNumFlowClasses = 5;

/// Stable lowercase name, e.g. "param_fetch".
const char* FlowClassName(FlowClass flow);

}  // namespace ratel

#endif  // RATEL_XFER_FLOW_H_
