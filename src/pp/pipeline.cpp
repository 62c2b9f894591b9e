#include "pp/pipeline.hpp"

#include <algorithm>
#include <cassert>
#include <string>

#include "core/knobs.hpp"

namespace ca::pp {

namespace t = ca::tensor;

Schedule Pipeline::parse_schedule(std::string_view name) {
  if (auto s = parse_pipe_sched(name)) return *s;
  const core::KnobSpec& knob = core::knob_spec(core::Knob::kPpSchedule);
  core::throw_bad_knob(knob, "pipeline schedule", name);
}

Schedule Pipeline::resolved_schedule(const core::ParallelContext& ctx) {
  return parse_schedule(core::Knobs::resolve(&ctx.config())
                            .text(core::Knob::kPpSchedule));
}

Pipeline::Pipeline(const tp::Env& env, std::vector<nn::Module*> chunks,
                   std::vector<tensor::Shape> input_shapes, Schedule schedule)
    : env_(env),
      chunks_(std::move(chunks)),
      input_shapes_(std::move(input_shapes)),
      schedule_(schedule) {
  assert(chunks_.size() == input_shapes_.size() && !chunks_.empty());
  auto& ctx = env_.context();
  stages_ = ctx.config().pipeline_parallel_size;
  rank_ = ctx.pipeline_rank(env_.grank);
  first_vs_ = rank_ == 0;
  last_vs_ = rank_ == stages_ - 1;
  if (stages_ > 1) {
    const int next = ctx.pipeline_next(env_.grank);
    const int prev = ctx.pipeline_prev(env_.grank);
    // Global-rank stride between adjacent pipeline stages in this
    // (data, tensor) slice; lets the wrap channels (S-1 -> 0 forward,
    // 0 -> S-1 backward) name their peers without a global registry.
    const int tp_stride = next >= 0 ? next - env_.grank : env_.grank - prev;
    auto rank_of_stage = [&](int stage) {
      return env_.grank + (stage - rank_) * tp_stride;
    };
    fwd_src_ = rank_ > 0 ? prev : rank_of_stage(stages_ - 1);
    fwd_dst_ = rank_ < stages_ - 1 ? next : rank_of_stage(0);
  }
  wire_ = ctx.comm_dtype();
}

Pipeline::Pipeline(const tp::Env& env, std::vector<nn::Module*> chunks,
                   std::vector<tensor::Shape> input_shapes)
    : Pipeline(env, std::move(chunks), std::move(input_shapes),
               resolved_schedule(env.context())) {}

Pipeline::Pipeline(const tp::Env& env, nn::Module& stage,
                   tensor::Shape input_shape, Schedule schedule)
    : Pipeline(env, std::vector<nn::Module*>{&stage},
               std::vector<tensor::Shape>{std::move(input_shape)}, schedule) {}

Pipeline::Pipeline(const tp::Env& env, nn::Module& stage,
                   tensor::Shape input_shape)
    : Pipeline(env, stage, std::move(input_shape),
               resolved_schedule(env.context())) {}

void Pipeline::reset_step(int micros) {
  micros_ = micros;
  const auto chans = chunks_.size();
  held_.assign(chans, std::vector<t::Tensor>(static_cast<std::size_t>(micros)));
  stash_bytes_.assign(
      chans, std::vector<std::int64_t>(static_cast<std::size_t>(micros), 0));
  out_shapes_.assign(chans, t::Shape());
  loss_sum_ = 0.0f;
  wait_s_ = 0.0;
  in_flight_ = 0;
  peak_in_flight_ = 0;
  assert(held_bytes_ == 0);
  peak_held_bytes_ = 0;

  auto& ctx = env_.context();
  const auto& rp = prog_->ranks[static_cast<std::size_t>(rank_)];
  // Forward traffic rides the untagged (src, dst) channel; backward dys get
  // tag 1 so the two classes never interleave on one FIFO (they share the
  // rank pair when S == 2 and chunks wrap).
  auto init_chan = [&](ChanState& c, const std::vector<MsgTag>& order, int src,
                       int tag) {
    c = ChanState{};
    c.order = &order;
    if (stages_ > 1 && !order.empty()) {
      c.chan = &ctx.backend().channel(src, env_.grank, tag);
    }
    c.buf.reserve(order.size());
    c.handles.reserve(order.size());
    for (std::size_t k = 0; k < order.size(); ++k) {
      c.index[{order[k].chunk, order[k].micro}] = k;
    }
  };
  init_chan(fwd_in_, rp.in_fwd, fwd_src_, 0);
  init_chan(bwd_in_, rp.in_bwd, fwd_dst_, 1);
}

void Pipeline::post_one(ChanState& c, bool fwd_dir) {
  if (c.chan == nullptr) {  // S == 1: payloads arrive via the local map
    ++c.posted;
    return;
  }
  assert(c.posted < c.order->size());
  const MsgTag& tag = (*c.order)[c.posted];
  const t::Shape& shape =
      fwd_dir ? input_shapes_[static_cast<std::size_t>(tag.chunk)]
              : out_shapes_[static_cast<std::size_t>(tag.chunk)];
  // Backward shapes come from this rank's own forward of that chunk, which
  // causality guarantees has run by the time the compiled marker executes.
  assert(shape.ndim() > 0);
  t::Tensor landing(shape);
  c.handles.push_back(c.chan->irecv(landing.data(), wire_));
  c.buf.push_back(std::move(landing));
  ++c.posted;
}

t::Tensor Pipeline::obtain(ChanState& c, int chunk, int micro, bool fwd_dir) {
  if (c.chan == nullptr) {
    auto it = c.local.find({chunk, micro});
    assert(it != c.local.end());
    t::Tensor out = std::move(it->second);
    c.local.erase(it);
    return out;
  }
  const std::size_t k = c.index.at({chunk, micro});
  while (c.posted <= k) post_one(c, fwd_dir);  // compiled markers cover this
  obs::MetricsSink* mx = env_.dev().metrics();
  while (c.waited <= k) {
    const double t_wait0 = env_.dev().clock();
    c.handles[c.waited].wait();
    const double dt = env_.dev().clock() - t_wait0;
    wait_s_ += dt;
    if (mx != nullptr) {
      // Exposed transfer wait per message: the measured per-micro pipeline
      // bubble on this rank (0 when the payload hid under earlier compute).
      mx->hist(fwd_dir ? "pp.fwd_wait_s" : "pp.bwd_wait_s").record(dt);
    }
    ++c.waited;
  }
  return std::move(c.buf[k]);
}

void Pipeline::send_payload(const t::Tensor& t, bool fwd_dir,
                            int consumer_chunk, int micro) {
  if (stages_ == 1) {
    ChanState& c = fwd_dir ? fwd_in_ : bwd_in_;
    c.local.insert_or_assign({consumer_chunk, micro}, t);
    return;
  }
  const int dst = fwd_dir ? fwd_dst_ : fwd_src_;
  env_.context()
      .backend()
      .channel(env_.grank, dst, fwd_dir ? 0 : 1)
      .send_async(t.data(), wire_);
}

void Pipeline::exec_fwd(const PipeTask& tk, bool send_next,
                        std::span<const t::Tensor> inputs) {
  const int v = tk.chunk;
  const int m = tk.micro;
  obs::TraceBuffer* tb = env_.dev().trace();
  const bool multi = chunks_.size() > 1;
  obs::TraceSpan span(tb, obs::Category::kMarker,
                      tb ? (multi ? "fwd.v" + std::to_string(v) + ".m" +
                                        std::to_string(m)
                                  : "fwd.micro" + std::to_string(m))
                         : std::string());
  t::Tensor x;
  if (v == 0 && first_vs_) {
    x = inputs[static_cast<std::size_t>(m)].clone();
  } else {
    x = obtain(fwd_in_, v, m, /*fwd_dir=*/true);
  }
  held_[static_cast<std::size_t>(v)][static_cast<std::size_t>(m)] = x;
  const std::int64_t bytes = x.numel() * 4;
  env_.mem().alloc(bytes);
  held_bytes_ += bytes;
  peak_held_bytes_ = std::max(peak_held_bytes_, held_bytes_);
  ++in_flight_;
  peak_in_flight_ = std::max(peak_in_flight_, in_flight_);

  auto y = chunks_[static_cast<std::size_t>(v)]->forward(x);
  out_shapes_[static_cast<std::size_t>(v)] = y.shape();
  if (send_next) {
    const int vs = v * stages_ + rank_;
    send_payload(y, /*fwd_dir=*/true, (vs + 1) / stages_, m);
  }
}

void Pipeline::exec_bwd(const PipeTask& tk, bool send_dx, bool fused_wgrad,
                        const LossFn& loss) {
  const int v = tk.chunk;
  const int m = tk.micro;
  const auto vz = static_cast<std::size_t>(v);
  const auto mz = static_cast<std::size_t>(m);
  obs::TraceBuffer* tb = env_.dev().trace();
  const bool multi = chunks_.size() > 1;
  obs::TraceSpan span(tb, obs::Category::kMarker,
                      tb ? (multi ? "bwd.v" + std::to_string(v) + ".m" +
                                        std::to_string(m)
                                  : "bwd.micro" + std::to_string(m))
                         : std::string());
  // Activation checkpointing: recompute this chunk's forward from the held
  // input; the dy receive was pre-posted so the transfer rides under it.
  auto y = chunks_[vz]->forward(held_[vz][mz]);
  t::Tensor dy;
  if (v == static_cast<int>(chunks_.size()) - 1 && last_vs_) {
    dy = t::Tensor(y.shape());
    loss_sum_ += loss(y, dy, m);
  } else {
    dy = obtain(bwd_in_, v, m, /*fwd_dir=*/false);
  }
  auto dx = chunks_[vz]->backward_input(dy);
  --in_flight_;
  if (send_dx) {
    const int vs = v * stages_ + rank_;
    send_payload(dx, /*fwd_dir=*/false, (vs - 1) / stages_, m);
  }
  if (fused_wgrad) {
    chunks_[vz]->backward_weight();
    env_.mem().free(held_[vz][mz].numel() * 4);
    held_bytes_ -= held_[vz][mz].numel() * 4;
    held_[vz][mz] = t::Tensor();
  } else if (chunks_[vz]->has_split_backward()) {
    // Deferred wgrad keeps (x, dy) alive until kBwdWeight; account the dy
    // stash so the zero-bubble memory cost shows up in peak_held_bytes().
    const std::int64_t sb = dy.numel() * 4;
    env_.mem().alloc(sb);
    held_bytes_ += sb;
    peak_held_bytes_ = std::max(peak_held_bytes_, held_bytes_);
    stash_bytes_[vz][mz] = sb;
  }
}

void Pipeline::exec_wgrad(const PipeTask& tk) {
  const int v = tk.chunk;
  const int m = tk.micro;
  const auto vz = static_cast<std::size_t>(v);
  const auto mz = static_cast<std::size_t>(m);
  obs::TraceBuffer* tb = env_.dev().trace();
  const bool multi = chunks_.size() > 1;
  obs::TraceSpan span(tb, obs::Category::kMarker,
                      tb ? (multi ? "wgrad.v" + std::to_string(v) + ".m" +
                                        std::to_string(m)
                                  : "wgrad.micro" + std::to_string(m))
                         : std::string());
  chunks_[vz]->backward_weight();
  const std::int64_t bytes = held_[vz][mz].numel() * 4 + stash_bytes_[vz][mz];
  env_.mem().free(bytes);
  held_bytes_ -= bytes;
  stash_bytes_[vz][mz] = 0;
  held_[vz][mz] = t::Tensor();
}

float Pipeline::train_step(int micros, std::span<const t::Tensor> inputs,
                           const LossFn& loss) {
  assert(!first_vs_ || static_cast<int>(inputs.size()) == micros);
  prog_ = compile_schedule(schedule_, stages_, micros,
                           static_cast<int>(chunks_.size()));
  reset_step(micros);
  const double t_step0 = env_.dev().clock();
  const auto& tasks = prog_->ranks[static_cast<std::size_t>(rank_)].tasks;
  const bool fused = schedule_ != Schedule::kZeroBubble;

  std::size_t i = 0;
  while (i < tasks.size()) {
    const PipeTask& tk = tasks[i];
    switch (tk.kind) {
      case TaskKind::kRecvFwd: {
        const std::size_t k = fwd_in_.index.at({tk.chunk, tk.micro});
        while (fwd_in_.posted <= k) post_one(fwd_in_, /*fwd_dir=*/true);
        ++i;
        break;
      }
      case TaskKind::kRecvBwd: {
        const std::size_t k = bwd_in_.index.at({tk.chunk, tk.micro});
        while (bwd_in_.posted <= k) post_one(bwd_in_, /*fwd_dir=*/false);
        ++i;
        break;
      }
      case TaskKind::kFwd: {
        const bool send = i + 1 < tasks.size() &&
                          tasks[i + 1].kind == TaskKind::kSendFwd;
        exec_fwd(tk, send, inputs);
        i += send ? 2 : 1;
        break;
      }
      case TaskKind::kRecompute: {
        // Compiled group: kRecompute, kBwdInput, [kSendBwd], [kBwdWeight]
        assert(i + 1 < tasks.size() &&
               tasks[i + 1].kind == TaskKind::kBwdInput);
        std::size_t j = i + 2;
        const bool send =
            j < tasks.size() && tasks[j].kind == TaskKind::kSendBwd;
        if (send) ++j;
        exec_bwd(tk, send, fused, loss);
        if (fused) {
          assert(j < tasks.size() &&
                 tasks[j].kind == TaskKind::kBwdWeight);
          ++j;
        }
        i = j;
        break;
      }
      case TaskKind::kBwdWeight: {  // standalone: zero-bubble deferral
        exec_wgrad(tk);
        ++i;
        break;
      }
      default:
        assert(false && "send tasks are consumed with their producer");
        ++i;
        break;
    }
  }
  assert(in_flight_ == 0);
  assert(held_bytes_ == 0);
  assert(fwd_in_.waited == fwd_in_.handles.size());
  assert(bwd_in_.waited == bwd_in_.handles.size());

  if (obs::MetricsSink* mx = env_.dev().metrics()) {
    const double wall = env_.dev().clock() - t_step0;
    // This rank's measured idle share of the step.
    mx->gauge("pp.bubble_fraction").set(wall > 0.0 ? wait_s_ / wall : 0.0);
  }
  return last_vs_ ? loss_sum_ / static_cast<float>(micros) : 0.0f;
}

}  // namespace ca::pp
