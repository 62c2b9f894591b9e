#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "collective/p2p.hpp"
#include "nn/module.hpp"
#include "pp/schedule.hpp"
#include "tp/env.hpp"

namespace ca::pp {

/// Unified pipeline executor. Every schedule — fill-drain (GPipe), 1F1B
/// (PipeDream-flush), interleaved 1F1B with virtual stages, and zero-bubble
/// (dgrad/wgrad split) — compiles to the same per-rank PipeSchedule task
/// list (pp/schedule.hpp), and this one executor walks it, owning:
///
///  * channel state: recvs are pre-posted at the compiled kRecvFwd/kRecvBwd
///    markers, in channel-FIFO order, so transfers ride under compute;
///  * held-input/memory accounting: full activation checkpointing means only
///    micro-batch *inputs* are retained between forward and backward (plus
///    the (x, dy) wgrad stash a zero-bubble deferral holds), and
///    peak_in_flight()/peak_held_bytes() report the same quantities for
///    every schedule so the memory tradeoff is observable;
///  * trace/metrics emission: per-task marker spans, pp.fwd_wait_s /
///    pp.bwd_wait_s wait histograms (one sample per message), and a
///    pp.bubble_fraction gauge per step.
///
/// Activation/dy payloads cross the interconnect in the configured comm wire
/// dtype (ParallelContext::comm_dtype(), CA_COMM_DTYPE), so a bf16 wire
/// halves pipeline p2p bytes; fp32 is bit-for-bit the plain path.
///
/// With V model chunks per rank (virtual / interleaved stages), virtual
/// stage vs = v*S + s runs on rank s: consecutive virtual stages alternate
/// ranks and the activation wraps from rank S-1 back to rank 0 between
/// chunks. Gradients are bit-identical to the serial model over all V*S
/// chunks for every schedule.
class Pipeline {
 public:
  /// Single chunk per rank; `stage` owns this rank's consecutive layers and
  /// `input_shape` is the shape of one incoming micro-batch.
  Pipeline(const tp::Env& env, nn::Module& stage, tensor::Shape input_shape,
           Schedule schedule);
  /// Schedule from the `pp.schedule` knob.
  Pipeline(const tp::Env& env, nn::Module& stage, tensor::Shape input_shape);

  /// `chunks[v]` is this rank's v-th model chunk (virtual stage v*S + s);
  /// `input_shapes[v]` the shape of one incoming micro-batch for that chunk.
  Pipeline(const tp::Env& env, std::vector<nn::Module*> chunks,
           std::vector<tensor::Shape> input_shapes, Schedule schedule);
  Pipeline(const tp::Env& env, std::vector<nn::Module*> chunks,
           std::vector<tensor::Shape> input_shapes);

  /// Last virtual stage: compute the loss for micro `m` given output `y`,
  /// write dL/dy into `dy` (pre-sized to y's shape), return the loss value.
  using LossFn = std::function<float(const tensor::Tensor& y,
                                     tensor::Tensor& dy, int micro)>;

  /// Run one training step over `micros` micro-batches. The first virtual
  /// stage (rank 0, chunk 0) reads `inputs` (exactly `micros` tensors); the
  /// last virtual stage (rank S-1, chunk V-1) calls `loss` and returns the
  /// mean micro-batch loss (0.0 elsewhere). Gradients accumulate into the
  /// chunk modules' parameters, micro-ascending per parameter under every
  /// schedule (the bit-identity contract).
  float train_step(int micros, std::span<const tensor::Tensor> inputs,
                   const LossFn& loss);

  [[nodiscard]] Schedule schedule() const { return schedule_; }

  /// Highest number of micro-batch inputs resident at once in the last step
  /// (incremented at kFwd, decremented at kBwdInput).
  [[nodiscard]] int peak_in_flight() const { return peak_in_flight_; }
  /// Peak held activation bytes in the last step: checkpointed inputs plus
  /// any zero-bubble wgrad-stash dy tensors (released at kBwdWeight).
  [[nodiscard]] std::int64_t peak_held_bytes() const {
    return peak_held_bytes_;
  }

  /// Parse a schedule name ("fill_drain"/"gpipe", "1f1b", "interleaved",
  /// "zero_bubble"/"zb"); throws std::invalid_argument on anything else.
  static Schedule parse_schedule(std::string_view name);
  /// The `pp.schedule` knob, resolved against the context's config.
  static Schedule resolved_schedule(const core::ParallelContext& ctx);

 private:
  /// One incoming FIFO channel's executor-side state for the running step.
  struct ChanState {
    collective::P2pChannel* chan = nullptr;  // null: same-rank delivery (S=1)
    const std::vector<MsgTag>* order = nullptr;
    std::vector<tensor::Tensor> buf;  // landing buffer of message k
    std::vector<collective::RecvHandle> handles;
    std::size_t posted = 0;
    std::size_t waited = 0;
    // (chunk, micro) -> channel position k
    std::map<std::pair<int, int>, std::size_t> index;
    // S == 1: payloads delivered locally, keyed by consumer (chunk, micro)
    std::map<std::pair<int, int>, tensor::Tensor> local;
  };

  void reset_step(int micros);
  void post_one(ChanState& c, bool fwd_dir);
  /// Wait for message (chunk, micro) on `c` (forcing any missing posts —
  /// causality guarantees the shapes are known by now) and hand back its
  /// payload. Records one wait-histogram sample per message waited.
  tensor::Tensor obtain(ChanState& c, int chunk, int micro, bool fwd_dir);
  void send_payload(const tensor::Tensor& t, bool fwd_dir, int consumer_chunk,
                    int micro);

  void exec_fwd(const PipeTask& tk, bool send_next,
                std::span<const tensor::Tensor> inputs);
  void exec_bwd(const PipeTask& tk, bool send_dx, bool fused_wgrad,
                const LossFn& loss);
  void exec_wgrad(const PipeTask& tk);

  tp::Env env_;
  std::vector<nn::Module*> chunks_;
  std::vector<tensor::Shape> input_shapes_;
  Schedule schedule_;

  // resolved topology (constant per instance)
  int stages_ = 1;
  int rank_ = 0;       // pipeline rank s
  bool first_vs_ = true;   // owns the entry virtual stage (s == 0)
  bool last_vs_ = true;    // owns the exit virtual stage (s == S-1)
  int fwd_src_ = -1, fwd_dst_ = -1;  // global ranks ((s-1)%S, (s+1)%S)
  tensor::Dtype wire_ = tensor::Dtype::kF32;

  // per-step state
  std::shared_ptr<const PipeSchedule> prog_;
  int micros_ = 0;
  ChanState fwd_in_, bwd_in_;
  std::vector<std::vector<tensor::Tensor>> held_;        // [chunk][micro]
  std::vector<std::vector<std::int64_t>> stash_bytes_;   // [chunk][micro]
  std::vector<tensor::Shape> out_shapes_;                // per chunk
  tensor::Tensor pending_y_;   // kFwd -> kSendFwd
  tensor::Tensor pending_dx_;  // kBwdInput -> kSendBwd
  float loss_sum_ = 0.0f;
  double wait_s_ = 0.0;

  int in_flight_ = 0;
  int peak_in_flight_ = 0;
  std::int64_t held_bytes_ = 0;
  std::int64_t peak_held_bytes_ = 0;
};

}  // namespace ca::pp
