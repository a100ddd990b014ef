#include "runtime/ratel_trainer.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <mutex>
#include <unordered_map>

#include "common/logging.h"
#include "runtime/checkpoint.h"
#include "runtime/prefetcher.h"
#include "runtime/workload_map.h"
#include "simd/simd.h"
#include "xfer/tenant.h"

namespace ratel {

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Elements narrowed per pass of the fetch's P32 -> P16 -> fp32 round
// trip: the fp16 staging block stays in L1 however large the tensor.
constexpr int64_t kNarrowBlock = 4096;

}  // namespace

Status ApplyEnvKnobs(const knobs::Env& env, TrainerOptions* options) {
  Status status = knobs::Validate(env);
  // One knob onto one field; the first error sticks.
  const auto overlay = [&](const char* name, auto* field,
                           double divisor = 1.0) {
    if (status.ok()) status = knobs::Overlay(env, name, field, divisor);
  };
  FaultConfig& fault = options->fault;
  overlay("RATEL_FAULT_SEED", &fault.seed);
  overlay("RATEL_FAULT_READ_ERROR_EVERY", &fault.read_error_every);
  overlay("RATEL_FAULT_WRITE_ERROR_EVERY", &fault.write_error_every);
  overlay("RATEL_FAULT_LATENCY_SPIKE_EVERY", &fault.latency_spike_every);
  overlay("RATEL_FAULT_LATENCY_SPIKE_MS", &fault.latency_spike_s, 1e3);
  overlay("RATEL_FAULT_TORN_WRITE_EVERY", &fault.torn_write_every);
  overlay("RATEL_FAULT_DEAD_STRIPE", &fault.dead_stripe);
  overlay("RATEL_FAULT_KEY_PREFIX", &fault.key_prefix);
  overlay("RATEL_ASYNC_OPTIM", &options->async_optimizer);
  overlay("RATEL_ASYNC_HOT_FRACTION", &options->async_hot_fraction);
  ReplanConfig& replan = options->replan;
  overlay("RATEL_REPLAN", &replan.enabled);
  overlay("RATEL_REPLAN_THRESHOLD_PCT", &replan.deviation_threshold, 100.0);
  overlay("RATEL_REPLAN_HYSTERESIS", &replan.hysteresis_windows);
  overlay("RATEL_REPLAN_COOLDOWN", &replan.cooldown_windows);
  overlay("RATEL_REPLAN_EWMA_ALPHA", &replan.ewma_alpha);
  overlay("RATEL_REPLAN_WINDOWS", &replan.window_capacity);
  RATEL_RETURN_IF_ERROR(status);
  // RATEL_CODEC_<FLOW> holds a MakeCodec spec; RATEL_FAULT_FLOWS is
  // "all" or a list of FlowClass names, one bit each.
  RATEL_ASSIGN_OR_RETURN(
      const std::optional<std::vector<std::string>> flows,
      knobs::Get<std::vector<std::string>>(env, "RATEL_FAULT_FLOWS"));
  if (flows.has_value()) fault.flow_mask = 0;
  for (const std::string& name : flows.value_or(std::vector<std::string>{})) {
    int i = 0;
    while (i < kNumFlowClasses &&
           name != FlowClassName(static_cast<FlowClass>(i))) {
      ++i;
    }
    if (name != "all" && i == kNumFlowClasses) {
      return Status::InvalidArgument("RATEL_FAULT_FLOWS='" +
                                     env.at("RATEL_FAULT_FLOWS") +
                                     "': unknown flow '" + name + "'");
    }
    fault.flow_mask |= name == "all" ? 0xFFFFFFFFu : 1u << i;
  }
  for (int i = 0; i < kNumFlowClasses; ++i) {
    std::string name = "RATEL_CODEC_";
    for (const char* p = FlowClassName(static_cast<FlowClass>(i)); *p != '\0';
         ++p) {
      name.push_back(
          static_cast<char>(std::toupper(static_cast<unsigned char>(*p))));
    }
    RATEL_ASSIGN_OR_RETURN(const std::optional<std::string> spec,
                           knobs::Get<std::string>(env, name));
    if (!spec.has_value()) continue;
    if (const auto codec = MakeCodec(*spec); !codec.ok()) {
      return Status::InvalidArgument(name + "='" + *spec +
                                     "': " + codec.status().message());
    }
    options->codec.flow_spec[static_cast<size_t>(i)] = *spec;
  }
  return Status::Ok();
}

RatelTrainer::RatelTrainer(ag::TinyGpt* model, const TrainerOptions& options)
    : model_(model), options_(options) {}

RatelTrainer::~RatelTrainer() {
  // The engine may be shared and outlive this trainer: settle the last
  // step's spill tickets rather than abandon them there.
  (void)WaitSpillWrites();
}

Status RatelTrainer::WaitSpillWrites() {
  if (spill_writes_.empty()) return Status::Ok();
  const Status status = engine_->WaitAll(spill_writes_);
  spill_writes_.clear();
  return status;
}

Result<std::unique_ptr<RatelTrainer>> RatelTrainer::Create(
    ag::TinyGpt* model, const TrainerOptions& options) {
  RATEL_CHECK(model != nullptr);
  TrainerOptions resolved = options;
  RATEL_RETURN_IF_ERROR(ApplyEnvKnobs(knobs::ProcessEnv(), &resolved));
  std::unique_ptr<RatelTrainer> trainer(new RatelTrainer(model, resolved));
  RATEL_RETURN_IF_ERROR(trainer->Initialize());
  return trainer;
}

Status RatelTrainer::Initialize() {
  // All engine traffic of this job — including the Register writes
  // below — is attributed to its tenant.
  ScopedTenant tenant_scope(options_.tenant);
  if (options_.shared_engine != nullptr) {
    engine_ = options_.shared_engine;
  } else {
    TransferOptions xfer;
    xfer.dir = options_.store_dir;
    xfer.num_stripes = options_.num_stripes;
    xfer.chunk_bytes = options_.stripe_chunk_bytes;
    xfer.host_cache_bytes = options_.host_cache_bytes;
    xfer.io_workers = options_.io_workers;
    xfer.background_aging_limit = options_.background_aging_limit;
    xfer.read_bandwidth = options_.ssd_read_bandwidth;
    xfer.write_bandwidth = options_.ssd_write_bandwidth;
    xfer.fault = options_.fault;
    xfer.fault_injector = options_.fault_injector;
    xfer.retry = options_.io_retry;
    xfer.stripe_death_threshold = options_.stripe_death_threshold;
    // The trainer's lossy-flow rule: only the activation-spill leg may
    // degrade precision — it is recomputable/transient and fp16-tolerant
    // by construction — while parameter, gradient/optimizer-state, and
    // checkpoint bytes must round-trip exactly.
    xfer.codec = options_.codec;
    for (int i = 0; i < kNumFlowClasses; ++i) {
      const FlowClass flow = static_cast<FlowClass>(i);
      auto codec = MakeCodec(xfer.codec.spec(flow));
      if (!codec.ok()) return codec.status();
      if (*codec != nullptr && !(*codec)->lossless() &&
          flow != FlowClass::kActivationSpill) {
        return Status::InvalidArgument(
            std::string("lossy codec \"") + xfer.codec.spec(flow) +
            "\" is only allowed on activation_spill, not " +
            FlowClassName(flow));
      }
    }
    RATEL_ASSIGN_OR_RETURN(owned_engine_, TransferEngine::Open(xfer));
    engine_ = owned_engine_.get();
  }
  AsyncUpdateOptions update_opts;
  update_opts.async = options_.async_optimizer;
  update_opts.hot_fraction = options_.async_hot_fraction;
  if (options_.async_partition_chunk > 0) {
    update_opts.chunk = options_.async_partition_chunk;
  }
  update_opts.background_threads = options_.async_background_threads;
  update_opts.tenant = options_.tenant;
  update_opts.key_namespace = options_.key_namespace;
  adam_ = std::make_unique<AsyncUpdateEngine>(options_.adam, engine_,
                                              update_opts);
  for (auto& [name, var] : model_->parameters()) {
    RATEL_RETURN_IF_ERROR(adam_->Register(name, var.value()));
  }
  // Gradient groups in backward arrival order: final layernorm, blocks
  // L-1..0, then embeddings (Section IV-C's decreasing-index arrival),
  // resolved to their parameters once.
  std::vector<std::string> order = {"final/ln_g", "final/ln_b"};
  for (int64_t l = model_->config().num_layers - 1; l >= 0; --l) {
    for (std::string& name :
         model_->BlockParameterNames(static_cast<int>(l))) {
      order.push_back(std::move(name));
    }
  }
  order.push_back("embed/pos");
  order.push_back("embed/table");
  const std::unordered_map<std::string, ag::Variable> by_name(
      model_->parameters().begin(), model_->parameters().end());
  arrival_.reserve(order.size());
  for (std::string& name : order) {
    auto it = by_name.find(name);
    if (it == by_name.end()) {
      return Status::Internal("missing parameter " + name);
    }
    arrival_.emplace_back(std::move(name), it->second);
  }
  pipeline_ =
      std::make_unique<ThreadPool>(std::max(1, options_.pipeline_threads));
  // The replanner is built lazily on the first step, when the
  // micro-batch size fixes the workload profile.
  return Status::Ok();
}

void RatelTrainer::MaybeInitReplanner(int64_t micro_batch) {
  if (!options_.replan.enabled || replanner_ != nullptr) return;
  workload_ = std::make_unique<WorkloadProfile>(WorkloadProfile::Build(
      ToTransformerConfig(model_->config(), "trainer"),
      static_cast<int>(std::max<int64_t>(1, micro_batch))));
  // Nameplate profile of the emulated hierarchy. The SSD rates come
  // straight from the configured throttles (the quantities that drift);
  // the GPU/host numbers are fixed stand-ins — the replanner detects
  // drift *relative to its own observations*, so only the SSD terms'
  // proportions matter to the loop.
  HardwareProfile hw;
  hw.thp_g = 1e12;
  hw.gpu_memory_bytes = int64_t{24} << 30;
  hw.bw_g = 16e9;
  hw.bw_s2m = options_.ssd_read_bandwidth > 0 ? options_.ssd_read_bandwidth
                                              : 3.2e9;
  hw.bw_m2s = options_.ssd_write_bandwidth > 0 ? options_.ssd_write_bandwidth
                                               : 3.2e9;
  hw.cpu_adam_rate = 2e9;
  hw.host_mem_bw = 50e9;
  hw.mem_avail_m = options_.host_cache_bytes;
  nameplate_bw_s2m_ = hw.bw_s2m;
  replanner_ = std::make_unique<Replanner>(options_.replan, hw, *workload_);
  InstallPlan(replanner_->current_plan(), replanner_->current_profile(),
              /*version=*/0);
}

void RatelTrainer::InstallPlan(const ActivationPlan& plan,
                               const HardwareProfile& profile,
                               int64_t version) {
  ActiveSchedule next;
  const int64_t total = workload_->total_activation_bytes();
  next.spill_fraction =
      total > 0 ? std::min(1.0, static_cast<double>(plan.a_g2m) /
                                    static_cast<double>(total))
                : 1.0;
  // Slower SSD -> deeper read-ahead, so the longer per-request latency
  // stays hidden behind compute; at nameplate bandwidth this is exactly
  // the classic depth 4.
  const double slowdown = profile.bw_s2m > 0.0 && nameplate_bw_s2m_ > 0.0
                              ? nameplate_bw_s2m_ / profile.bw_s2m
                              : 1.0;
  const long depth = std::lround(4.0 * slowdown);
  next.prefetch_depth =
      static_cast<int>(std::min<long>(16, std::max<long>(2, depth)));
  next.version = version;
  schedule_ = std::move(next);
}

Result<float> RatelTrainer::TrainStep(const std::vector<int64_t>& ids,
                                      const std::vector<int64_t>& targets,
                                      int64_t batch) {
  // Tag every engine submit of the step — prefetch, activation spill,
  // and the optimizer stream — with this job's tenant.
  ScopedTenant tenant_scope(options_.tenant);
  // First step with re-planning enabled: build the workload profile
  // (now that the micro-batch size is known) and install the initial
  // plan before any of this step's I/O is issued.
  {
    const int accum0 = std::max(1, options_.grad_accumulation_steps);
    if (batch % accum0 == 0) MaybeInitReplanner(batch / accum0);
  }
  StepStats stats;
  const TransferStats xfer0 = engine_->stats();
  const AsyncUpdateEngine::Stats update0 = adam_->stats();
  const double t0 = NowSeconds();

  // --- Swap in the current fp16 weights (the forward-stage M->G
  // fetch). No P16 copy is stored: P16 is exactly FloatToHalf(P32), so
  // the fetch reads each tensor's P32 blob and narrows it on the host,
  // leaving every weight HalfToFloat(FloatToHalf(p32)) — bitwise what
  // the optimizer's fused narrow would have produced. The reads are
  // prefetched a few tensors ahead through the engine so they overlap
  // the conversion (the M->G / compute pipeline of Section IV-A). In
  // async-optimizer mode each request carries a per-tensor dependency
  // gate: the fetch of a P32 whose tail update is still in flight
  // drains that one tensor's epoch first (staleness bound <= 1 step),
  // while fetches of already-drained tensors stream ahead — the
  // previous step's deferred writebacks overlap this step's
  // fetch/forward. ---
  {
    std::vector<Prefetcher::Request> requests;
    requests.reserve(model_->parameters().size());
    for (const auto& [name, var] : model_->parameters()) {
      Prefetcher::Request req;
      req.key = adam_->P32Key(name);
      req.size = 4 * static_cast<int64_t>(var.value().size());
      if (adam_->async()) {
        req.gate = [this, name = name] { return adam_->DrainTensor(name); };
      }
      requests.push_back(std::move(req));
    }
    Prefetcher prefetcher(engine_, FlowClass::kParamFetch,
                          std::move(requests), schedule_.prefetch_depth);
    const simd::KernelTable& kernels = simd::Kernels();
    std::vector<Fp16> halves(kNarrowBlock);
    for (auto& [name, var] : model_->parameters()) {
      Prefetcher::Item item = prefetcher.Next();
      RATEL_CHECK(item.key == adam_->P32Key(name));
      RATEL_RETURN_IF_ERROR(item.status);
      std::vector<float>& dst = var.mutable_value();
      const int64_t n = static_cast<int64_t>(dst.size());
      RATEL_CHECK(item.data.size() == 4 * n);
      const float* p32 = reinterpret_cast<const float*>(item.data.data());
      for (int64_t b = 0; b < n; b += kNarrowBlock) {
        const int64_t len = std::min(kNarrowBlock, n - b);
        kernels.floats_to_halves(p32 + b, halves.data(), len);
        kernels.halves_to_floats(halves.data(), dst.data() + b, len, 1.0f);
      }
    }
  }
  const double t_fetch = NowSeconds();

  // --- Forward + backward (the "GPU" work of this substrate),
  // accumulating gradients over micro batches. ---
  const int accum = std::max(1, options_.grad_accumulation_steps);
  if (batch % accum != 0) {
    return Status::InvalidArgument(
        "batch " + std::to_string(batch) + " not divisible by " +
        std::to_string(accum) + " accumulation steps");
  }
  const int64_t micro = batch / accum;
  const int64_t seq = model_->config().seq_len;
  model_->ZeroGrads();
  float loss_sum = 0.0f;
  for (int step = 0; step < accum; ++step) {
    const auto begin = static_cast<size_t>(step * micro * seq);
    const std::vector<int64_t> micro_ids(ids.begin() + begin,
                                         ids.begin() + begin + micro * seq);
    const std::vector<int64_t> micro_targets(
        targets.begin() + begin, targets.begin() + begin + micro * seq);
    ag::Variable loss = model_->Loss(micro_ids, micro_targets, micro);

    if (options_.spill_activations) {
      // Swap the saved activations out through the engine after
      // forward, then back in before backward (A16 of Table II). Each
      // node is released as soon as its swap-out is submitted, and
      // nothing in this step waits for a swap-out to land: the engine
      // forwards the read-backs from the unresolved writes' payloads,
      // so the store writes drain behind backward, the optimizer and
      // the next forward. Only the next spill (same keys) and the
      // checkpoint paths wait for them (WaitSpillWrites). The values
      // read back equal a store round trip, so numerics are unchanged
      // (tested).
      std::vector<ag::NodePtr> acts = ag::CollectIntermediateNodes(loss);
      // The plan's spill set. On the classic path (spill_fraction >= 1,
      // always true with the replanner disabled) every node spills, in
      // tape order — exactly the pre-plan behavior. A partial plan
      // spills the largest tensors first until the planned byte
      // fraction is covered: deterministic, so a given plan always
      // selects the same set, and non-spilled nodes simply stay in
      // memory (no round trip, numerics unchanged either way — the raw
      // spill is bit-exact).
      std::vector<size_t> spill_set;
      spill_set.reserve(acts.size());
      if (schedule_.spill_fraction >= 1.0) {
        for (size_t i = 0; i < acts.size(); ++i) spill_set.push_back(i);
      } else if (schedule_.spill_fraction > 0.0) {
        int64_t total_bytes = 0;
        for (const ag::NodePtr& a : acts) total_bytes += 4 * a->NumElements();
        std::vector<size_t> by_size(acts.size());
        for (size_t i = 0; i < by_size.size(); ++i) by_size[i] = i;
        std::stable_sort(by_size.begin(), by_size.end(),
                         [&](size_t a, size_t b) {
                           return acts[a]->NumElements() >
                                  acts[b]->NumElements();
                         });
        const double target = schedule_.spill_fraction *
                              static_cast<double>(total_bytes);
        int64_t chosen = 0;
        for (size_t i : by_size) {
          if (static_cast<double>(chosen) >= target) break;
          spill_set.push_back(i);
          chosen += 4 * acts[i]->NumElements();
        }
        std::sort(spill_set.begin(), spill_set.end());
      }
      RATEL_RETURN_IF_ERROR(WaitSpillWrites());
      int64_t spilled = 0;
      spill_writes_.reserve(spill_set.size());
      for (size_t i : spill_set) {
        ag::Node& node = *acts[i];
        const int64_t bytes = 4 * node.NumElements();
        spill_writes_.push_back(engine_->SubmitWrite(
            FlowClass::kActivationSpill,
            options_.key_namespace + "act/" + std::to_string(i),
            node.value.data(), bytes));
        // Swap-out submitted: release the "GPU memory".
        std::vector<float>().swap(node.value);
        spilled += bytes;
      }

      // Swap back in: all reads in flight at once, drained in order.
      // Buffer reads: forwarded and DRAM-hot activations come back as
      // refs and cold ones land in pooled staging — no per-step heap
      // churn.
      std::deque<Buffer> buffers;
      std::vector<TransferEngine::Ticket> spill_reads;
      spill_reads.reserve(spill_set.size());
      for (size_t i : spill_set) {
        buffers.emplace_back();
        spill_reads.push_back(engine_->SubmitRead(
            FlowClass::kActivationSpill,
            options_.key_namespace + "act/" + std::to_string(i),
            &buffers.back(), 4 * acts[i]->NumElements()));
      }
      RATEL_RETURN_IF_ERROR(engine_->WaitAll(spill_reads));
      for (size_t k = 0; k < spill_set.size(); ++k) {
        ag::Node& node = *acts[spill_set[k]];
        node.value.resize(node.NumElements());
        std::memcpy(node.value.data(), buffers[k].data(),
                    4 * node.NumElements());
      }
      stats.activation_bytes_spilled += spilled;
    }

    loss.Backward();
    loss_sum += loss.value()[0];
  }
  const float mean_loss = loss_sum / static_cast<float>(accum);
  const double t_compute = NowSeconds();

  // --- Active gradient offloading: consume gradients per tensor in
  // backward arrival order, dispatching the out-of-core Adam handler. ---
  std::mutex err_mu;
  Status first_error;
  const float grad_unscale = 1.0f / options_.loss_scale;
  auto handler = [&](const std::string& name, std::vector<Fp16> grads) {
    // Handlers run on the pipeline pool, outside the step thread's
    // tenant scope — re-establish it per invocation.
    ScopedTenant handler_scope(options_.tenant);
    const Status s = adam_->StepTensor(name, std::move(grads), grad_unscale);
    if (!s.ok()) {
      std::lock_guard<std::mutex> lock(err_mu);
      if (first_error.ok()) first_error = s;
    }
  };

  // Deferred work for the serialized-pipelined mode (all handlers run
  // concurrently, but only after "backward" fully finished).
  std::vector<std::pair<std::string, std::vector<Fp16>>> deferred;

  // Scope this step's handler tasks: the group's Wait covers exactly
  // the tasks submitted through it, independent of anything else that
  // may share the pipeline pool.
  TaskGroup group(pipeline_.get());

  std::vector<float> scaled_grad;  // fp32 staging of the G16 cast
  for (const auto& [name, var] : arrival_) {
    // Convert the parameter's gradient to G16.
    const std::vector<float>& grad = var.grad();
    if (grad.empty()) {
      return Status::Internal("no gradient for '" + name + "'");
    }
    // Average over micro batches and apply the mixed-precision loss
    // scale before the fp16 cast (unscaled inside the handler).
    const float cast_scale =
        options_.loss_scale / static_cast<float>(accum);
    const int64_t n = static_cast<int64_t>(grad.size());
    const simd::KernelTable& kernels = simd::Kernels();
    scaled_grad.resize(grad.size());
    kernels.scale(grad.data(), cast_scale, scaled_grad.data(), n);
    std::vector<Fp16> g16(grad.size());
    kernels.floats_to_halves(scaled_grad.data(), g16.data(), n);

    switch (options_.grad_mode) {
      case GradientOffloadMode::kOptimizedActive:
        // Handlers pipeline across tensors on the worker pool while the
        // arrival loop keeps producing G16 (Fig. 3b).
        group.Submit(
            [&handler, name, g = std::move(g16)]() mutable {
              handler(name, std::move(g));
            });
        break;
      case GradientOffloadMode::kNaiveActive:
        // Handler runs to completion before the next gradient is taken
        // (Fig. 3a).
        handler(name, std::move(g16));
        break;
      case GradientOffloadMode::kSerializedOptimizer:
        // Defer everything to a separate optimizer stage below.
        group.Submit([&handler, name, g = std::move(g16)]() mutable {
          handler(name, std::move(g));
        });
        group.Wait();  // strictly one at a time, after "backward"
        break;
      case GradientOffloadMode::kSerializedPipelined:
        deferred.emplace_back(name, std::move(g16));
        break;
    }
  }
  for (auto& [name, g16] : deferred) {
    group.Submit([&handler, name = name, g = std::move(g16)]() mutable {
      handler(name, std::move(g));
    });
  }
  group.Wait();
  RATEL_RETURN_IF_ERROR(first_error);
  const double t_opt = NowSeconds();

  stats.fetch_s = t_fetch - t0;
  stats.compute_s = t_compute - t_fetch;
  stats.optimizer_s = t_opt - t_compute;
  stats.total_s = t_opt - t0;
  const TransferStats xfer = Delta(engine_->stats(), xfer0);
  // Deferred-update breakdown: this step's pipeline counter delta. The
  // drain stalls of the prior step's epochs land in this step's fetch
  // stage, so overlap = epoch wall time minus what actually stalled us.
  {
    const AsyncUpdateEngine::Stats update1 = adam_->stats();
    stats.hot_chunks = update1.hot_chunks - update0.hot_chunks;
    stats.tail_chunks = update1.tail_chunks - update0.tail_chunks;
    stats.deferred_epochs = update1.deferred_epochs - update0.deferred_epochs;
    stats.drain_stall_s =
        update1.drain_stall_seconds - update0.drain_stall_seconds;
    stats.optimizer_overlap_s =
        std::max(0.0, (update1.background_seconds - update0.background_seconds) -
                          stats.drain_stall_s);
  }
  // The parameter + model-state legs (activation traffic is reported via
  // activation_bytes_spilled; transfer_stats() has every flow).
  stats.bytes_read = xfer.Flow(FlowClass::kParamFetch).bytes_read +
                     xfer.Flow(FlowClass::kGradState).bytes_read;
  stats.bytes_written = xfer.Flow(FlowClass::kParamFetch).bytes_written +
                        xfer.Flow(FlowClass::kGradState).bytes_written;
  stats.loss = mean_loss;
  // --- Step boundary: every read and optimizer write this step issued
  // has been waited above, so swapping the schedule here can never
  // invalidate in-flight I/O; the spill writes still draining are
  // waited before the next spill reuses their keys, and deferred
  // optimizer epochs keep draining through their per-tensor gates
  // because the plan never touches their keys. ---
  if (replanner_ != nullptr) {
    const double swap0 = NowSeconds();
    std::optional<ReplanResult> result =
        replanner_->Observe(engine_->stats(), NowSeconds());
    if (result.has_value()) {
      InstallPlan(result->activation, result->calibrated, result->solve_index);
      ++replans_installed_;
      stats.plan_swap_s = NowSeconds() - swap0;
    }
    stats.replans = replans_installed_;
    stats.plan_staleness_pct = replanner_->observation().staleness * 100.0;
  }
  last_stats_ = stats;
  ++global_step_;

  if (options_.capture_flow_trace) {
    trained_seconds_ += stats.total_s;
    const TransferStats cumulative = engine_->stats();
    for (int i = 0; i < kNumFlowClasses; ++i) {
      const FlowClass flow = static_cast<FlowClass>(i);
      const FlowCounters& c = cumulative.Flow(flow);
      const std::string prefix = std::string("xfer/") + FlowClassName(flow);
      flow_trace_.AddCounter(prefix + "/bytes_read", trained_seconds_,
                             static_cast<double>(c.bytes_read));
      flow_trace_.AddCounter(prefix + "/bytes_written", trained_seconds_,
                             static_cast<double>(c.bytes_written));
    }
    if (adam_->async()) {
      // The deferred-update pipeline counters next to the flow bytes:
      // Chrome traces show hot/tail split, stalls, and overlap stack up.
      const AsyncUpdateEngine::Stats u = adam_->stats();
      flow_trace_.AddCounter("optim/hot_chunks", trained_seconds_,
                             static_cast<double>(u.hot_chunks));
      flow_trace_.AddCounter("optim/tail_chunks", trained_seconds_,
                             static_cast<double>(u.tail_chunks));
      flow_trace_.AddCounter("optim/drain_stall_s", trained_seconds_,
                             u.drain_stall_seconds);
      flow_trace_.AddCounter("optim/overlap_s", trained_seconds_,
                             u.background_seconds);
    }
  }
  return stats.loss;
}

Status RatelTrainer::SaveCheckpoint(const std::string& dir) {
  ScopedTenant tenant_scope(options_.tenant);
  RATEL_RETURN_IF_ERROR(WaitSpillWrites());
  // Barrier: every deferred tail epoch must have applied and published,
  // and every queued writeback must land, before state is read out —
  // or the snapshot would mix step N and step N-1 tensors (or worse,
  // a half-applied one).
  RATEL_RETURN_IF_ERROR(adam_->DrainAll());
  RATEL_RETURN_IF_ERROR(engine_->Drain());
  // Zero-copy export: shard payloads are engine buffer refs (DRAM-hot
  // state costs no host copy) streamed straight into the checkpoint
  // file through the view writer. `held` keeps every buffer alive until
  // the save returns.
  checkpoint::TrainStateView state;
  state.step = global_step_;
  state.tensors.reserve(model_->parameters().size());
  std::vector<Buffer> held;
  held.reserve(3 * model_->parameters().size());
  for (const auto& [name, var] : model_->parameters()) {
    checkpoint::TensorStateView t;
    t.name = name;
    Buffer p32, m, v;
    RATEL_RETURN_IF_ERROR(
        adam_->ExportStateBuffers(name, &t.adam_step, &p32, &m, &v));
    t.p32 = reinterpret_cast<const float*>(p32.data());
    t.m = reinterpret_cast<const float*>(m.data());
    t.v = reinterpret_cast<const float*>(v.data());
    t.n = p32.size() / 4;
    held.push_back(std::move(p32));
    held.push_back(std::move(m));
    held.push_back(std::move(v));
    state.tensors.push_back(std::move(t));
  }
  return checkpoint::SaveVersionedViews(dir, state);
}

Result<int64_t> RatelTrainer::RestoreLatestCheckpoint(const std::string& dir) {
  ScopedTenant tenant_scope(options_.tenant);
  RATEL_RETURN_IF_ERROR(WaitSpillWrites());
  RATEL_ASSIGN_OR_RETURN(checkpoint::TrainState state,
                         checkpoint::LoadLatest(dir));
  for (const checkpoint::TensorState& t : state.tensors) {
    RATEL_RETURN_IF_ERROR(
        adam_->ImportState(t.name, t.adam_step, t.p32, t.m, t.v));
  }
  // The imported state must be durable before the next step's fetch
  // can observe it.
  RATEL_RETURN_IF_ERROR(engine_->Drain());
  global_step_ = state.step;
  return global_step_;
}

}  // namespace ratel
