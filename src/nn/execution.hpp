// Reentrant inference engine.
//
// The seed API (`Network::forward(input, train)`) mutates layer-cached
// activations, so two threads cannot run the same network concurrently — the
// serving runtime had to serialize every batch behind a per-design mutex.
// This module redesigns inference around an ExecutionContext: a caller-owned
// bundle of the compiled plan, packed weight panels and batch scratch. It
// holds no fixed-point reference state: forward_fixed (nn/fixed_inference.hpp)
// quantizes per call and needs no context. `Network::infer(input, ctx)` is
// const and touches only the context, so N contexts give N concurrent
// inference streams over one immutable network with zero steady-state heap
// traffic.
//
// The *execution plan* compiles the layers once into steps, with an
// Activation directly following a Conv2D/Linear fused into the producing step
// (elementwise-after-accumulate, so fusion cannot change the arithmetic), and
// every layer classified so the executor dispatches without dynamic_cast on
// the hot path.
//
// One plan executor (nn/execution_plan.cpp) runs every context; `infer` is
// `infer_batch` with a batch of one. A context is pinned at construction to a
// kernel engine (src/nn/kernels) and a serving precision, and these pick the
// arithmetic the executor plugs in:
//   - float32 on kernels::Kind::kScalar: portable kernels over the packed
//     panels that keep forward()'s operation sequence per output element, so
//     results match `forward` bit-for-bit (tests/test_execution.cpp). The
//     hardware model (axi::CnnIpCore) and the trainer's evaluation pin this.
//   - float32 on kernels::Kind::kAvx2: packed-panel SIMD GEMM with a fused
//     bias+activation epilogue, within 1e-4 relative of scalar.
//   - int16 / int8 on either engine: the fixed-point arithmetic of
//     kernels_int.hpp, bit-identical across engines and to forward_fixed
//     (int8 modulo the documented weight clamp).
// Weight panels come from a PackCache / QuantPackCache shared across pooled
// contexts. Every context caches packed or quantized weights, so callers that
// mutate weights must build fresh contexts afterwards.
//
// `Network::infer_batch` runs a whole micro-batch through ONE blocked
// im2col + GEMM per conv step (weights stream from cache once per block of
// columns instead of once per image), one pass per pool step and one kernel
// call per linear step, bit-identical to per-image `infer` in every mode.
//
// Training keeps the mutable path: TrainContext wraps forward(train=true) +
// backward so the train/infer split is explicit at every call site.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "nn/kernels/kernels.hpp"
#include "nn/kernels/kernels_int.hpp"
#include "nn/network.hpp"
#include "nn/quantize.hpp"
#include "util/aligned.hpp"

namespace cnn2fpga::nn {

class ExecutionContext {
 public:
  /// Builds the execution plan for `net`, pinned to the process-default
  /// kernel engine (kernels::active()). The network must outlive the context
  /// and its architecture must not change afterwards. The context caches
  /// packed weights: after mutating weights, build fresh contexts.
  explicit ExecutionContext(const Network& net);

  /// Pin a specific kernel engine, optionally sharing a weight-pack cache
  /// with sibling contexts (nullptr: the context builds its own).
  ExecutionContext(const Network& net, kernels::Kind kind,
                   std::shared_ptr<kernels::PackCache> packs);

  /// Quantized serving context: infer()/infer_batch() run the whole plan in
  /// `precision`'s fixed-point arithmetic (see kernels_int.hpp) on either
  /// engine, returning dequantized float scores. `qpacks` shares quantized
  /// weight panels across sibling contexts (nullptr: context-local); its
  /// precision must match. kFloat32 reduces to the float constructor.
  ExecutionContext(const Network& net, kernels::Kind kind,
                   std::shared_ptr<kernels::PackCache> packs, ServePrecision precision,
                   std::shared_ptr<kernels::QuantPackCache> qpacks);

  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;
  ExecutionContext(ExecutionContext&&) = default;
  ExecutionContext& operator=(ExecutionContext&&) = default;

  const Network& network() const { return *net_; }

  /// Kernel engine this context dispatches to (fixed at construction).
  kernels::Kind kernel() const { return kernel_; }

  /// Serving precision this context executes in (fixed at construction).
  ServePrecision precision() const { return precision_; }

  /// One compiled step of the plan: a layer, possibly with the directly
  /// following Activation fused into it.
  struct Step {
    enum class Kind { kConv, kLinear, kPool, kActivation, kLogSoftMax };
    Kind kind = Kind::kConv;
    const Layer* layer = nullptr;
    std::size_t layer_index = 0;        ///< index into the network's layers
    const Activation* fused = nullptr;  ///< activation folded into this step
    Shape in_shape;                     ///< shape flowing into the step
    Shape out_shape;                    ///< shape the step produces
  };
  const std::vector<Step>& steps() const { return steps_; }

  /// Eagerly builds the packed weight panels (and quantized activation
  /// tables) for every step. Deploy-time warming: pooled serving contexts
  /// then never pack on a request path.
  void warm_packs();

 private:
  friend class Network;

  /// Calls `fn` with the arithmetic of this context's engine and precision
  /// (defined beside the plan executor, nn/execution_plan.cpp).
  template <typename Fn>
  void with_arithmetic(Fn&& fn);

  /// Grows the batch scratch to hold `batch` images of `elem`-byte values,
  /// with a packed-B arena of `conv_block_size(k)` elements for every conv
  /// step (one block, whatever the batch), and of `packed_b_size(batch, k)`
  /// for every linear step when `packs_linear`.
  void ensure_batch(std::size_t batch, std::size_t elem,
                    std::size_t (*conv_block_size)(std::size_t),
                    std::size_t (*packed_b_size)(std::size_t, std::size_t),
                    bool packs_linear);

  const Network* net_;
  kernels::Kind kernel_;
  ServePrecision precision_ = ServePrecision::kFloat32;
  FixedPointFormat qformat_{};
  std::vector<Step> steps_;
  Tensor output_;  ///< what infer() returns a reference to

  // Weight panels: float32 contexts read packs_, quantized ones qpacks_.
  std::shared_ptr<kernels::PackCache> packs_;
  std::shared_ptr<kernels::QuantPackCache> qpacks_;

  // Batch scratch, grown by the plan executor to hold `batch_capacity_`
  // images. The byte buffers hold float, int16 or int8 values depending on
  // precision_, so one set of buffers serves every arithmetic.
  util::aligned_vector<std::uint8_t> bpack_;     ///< packed-B panels (one conv block)
  util::aligned_vector<std::uint8_t> ping_;      ///< activation buffers
  util::aligned_vector<std::uint8_t> pong_;
  util::aligned_vector<std::uint8_t> rows_;      ///< quantized pack_b row pointers
  std::size_t batch_capacity_ = 0;
  std::size_t max_image_elems_ = 0;  ///< max elements of any per-image buffer
};

/// Thread-safe free-list of contexts for one network: concurrent inference
/// streams check a context out, run, and return it, so a design serving N
/// parallel batches materializes at most N contexts total. All contexts from
/// one pool share a kernel engine and one weight-pack cache, so the design's
/// weights are packed exactly once.
class ExecutionContextPool {
 public:
  explicit ExecutionContextPool(const Network& net)
      : ExecutionContextPool(net, kernels::active()) {}

  ExecutionContextPool(const Network& net, kernels::Kind kind)
      : ExecutionContextPool(net, kind, ServePrecision::kFloat32) {}

  /// Quantized pool: every context runs the plan at `precision`, sharing one
  /// QuantPackCache so the design's weights quantize + pack exactly once.
  ExecutionContextPool(const Network& net, kernels::Kind kind, ServePrecision precision)
      : net_(&net),
        kind_(kind),
        precision_(precision),
        packs_(precision == ServePrecision::kFloat32
                   ? std::make_shared<kernels::PackCache>(net.layer_count())
                   : nullptr),
        qpacks_(precision != ServePrecision::kFloat32
                    ? std::make_shared<kernels::QuantPackCache>(net.layer_count(), precision)
                    : nullptr) {}

  class Lease {
   public:
    Lease(Lease&& other) noexcept = default;
    Lease& operator=(Lease&&) = delete;
    ~Lease() {
      if (pool_ != nullptr && ctx_ != nullptr) pool_->release(std::move(ctx_));
    }
    ExecutionContext& operator*() const { return *ctx_; }
    ExecutionContext* operator->() const { return ctx_.get(); }

   private:
    friend class ExecutionContextPool;
    Lease(ExecutionContextPool* pool, std::unique_ptr<ExecutionContext> ctx)
        : pool_(pool), ctx_(std::move(ctx)) {}
    ExecutionContextPool* pool_;
    std::unique_ptr<ExecutionContext> ctx_;
  };

  /// Check out an idle context, materializing one on first use.
  Lease acquire() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!idle_.empty()) {
        std::unique_ptr<ExecutionContext> ctx = std::move(idle_.back());
        idle_.pop_back();
        return {this, std::move(ctx)};
      }
      ++created_;
    }
    return {this,
            std::make_unique<ExecutionContext>(*net_, kind_, packs_, precision_, qpacks_)};
  }

  /// Kernel engine every context from this pool is pinned to.
  kernels::Kind kernel() const { return kind_; }

  /// Serving precision every context from this pool executes in.
  ServePrecision precision() const { return precision_; }

  /// Builds the shared weight-pack cache eagerly so no request-path context
  /// ever packs.
  void warm() {
    Lease lease = acquire();
    lease->warm_packs();
  }

  /// Total contexts materialized over the pool's lifetime.
  std::size_t created() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return created_;
  }

 private:
  void release(std::unique_ptr<ExecutionContext> ctx) {
    std::lock_guard<std::mutex> lock(mutex_);
    idle_.push_back(std::move(ctx));
  }

  const Network* net_;
  kernels::Kind kind_;
  ServePrecision precision_ = ServePrecision::kFloat32;
  std::shared_ptr<kernels::PackCache> packs_;
  std::shared_ptr<kernels::QuantPackCache> qpacks_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ExecutionContext>> idle_;
  std::size_t created_ = 0;
};

/// Explicit training-mode execution: forward with activation caching enabled,
/// then backward. This wraps the seed mutable path unchanged — it exists so
/// the trainer's mutation of the network is visible at the call site, in
/// contrast to the const, reentrant infer() path.
class TrainContext {
 public:
  explicit TrainContext(Network& net) : net_(&net) {}
  Network& network() { return *net_; }
  /// Forward pass that caches per-layer activations for backward().
  Tensor forward(const Tensor& input) { return net_->forward(input, /*train=*/true); }
  /// Backward from the output gradient; requires forward() first.
  void backward(const Tensor& grad_output) { net_->backward(grad_output); }

 private:
  Network* net_;
};

}  // namespace cnn2fpga::nn
