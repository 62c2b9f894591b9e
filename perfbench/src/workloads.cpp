#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <ostream>
#include <span>
#include <streambuf>

#include "engine/grad_bucket.hpp"
#include "engine/zero_engine.hpp"
#include "nn/layers.hpp"
#include "obs/report.hpp"
#include "optim/optimizer.hpp"
#include "pp/pipeline.hpp"
#include "tensor/ops.hpp"
#include "tp/linear1d.hpp"
#include "tp/sim_transformer.hpp"

namespace perfbench {

namespace t = ca::tensor;
namespace nn = ca::nn;
namespace sim = ca::sim;
namespace core = ca::core;

World::World(sim::Topology topo, const core::Config& cfg, int workers)
    : cluster(std::move(topo)), backend(cluster), ctx(backend, cfg) {
  cluster.set_backend(sim::SimBackend::kTasks);
  cluster.set_workers(workers);
  ctx.set_comm_dtype(t::Dtype::kBF16);
}

double align_clocks(sim::Cluster& cluster) {
  const double t = cluster.max_clock();
  for (int r = 0; r < cluster.world_size(); ++r) cluster.device(r).set_clock(t);
  return t;
}

void Workload::sim_trace_metrics(Metrics& m, int steps) {
  std::int64_t calls = 0, bytes = 0;
  double comm = 0.0, hidden = 0.0;
  for (sim::Cluster* c : clusters()) {
    const ca::obs::Tracer& tr = *c->tracer();
    for (int r = 0; r < tr.world(); ++r) {
      for (const ca::obs::TraceEvent& e : tr.rank(r).events()) {
        if (e.cat != ca::obs::Category::kComm || e.name.starts_with("p2p.")) continue;
        ++calls;
        bytes += e.bytes;
      }
    }
    const ca::obs::TraceReport rep = ca::obs::summarize(tr);
    for (const ca::obs::RankSummary& rs : rep.ranks) {
      comm += rs.seconds[static_cast<int>(ca::obs::Category::kComm)];
      hidden += rs.comm_overlap;
    }
  }
  const double n = static_cast<double>(steps);
  m["collective.calls_per_step"] = {static_cast<double>(calls) / n, "count"};
  m["collective.bytes_per_step"] = {static_cast<double>(bytes) / n, "bytes"};
  m["collective.sim_comm_overlap"] = {comm > 0.0 ? hidden / comm : 0.0, "fraction"};
}

namespace {

/// Median wall ms of `fn` over at least `min_reps` calls and `min_s` seconds.
template <class Fn>
double median_call_ms(Fn&& fn, int min_reps, double min_s) {
  std::vector<double> ms;
  const std::int64_t start = host_ns();
  while (static_cast<int>(ms.size()) < min_reps || seconds_since(start) < min_s) {
    const std::int64_t t0 = host_ns();
    fn();
    ms.push_back(static_cast<double>(host_ns() - t0) * 1e-6);
  }
  return median(ms);
}

/// nn.block_fwd_ms and nn.block_bwd_ms: median host ms of one serial
/// block's forward and backward at the workload's shape.
void time_block(nn::Module& blk, const t::Tensor& x, const t::Tensor& dy, Metrics& m) {
  std::vector<double> fwd, bwd;
  const std::int64_t start = host_ns();
  while (fwd.size() < 10 || seconds_since(start) < 0.3) {
    const std::int64_t t0 = host_ns();
    const t::Tensor y = blk.forward(x);
    const std::int64_t t1 = host_ns();
    (void)blk.backward(dy);
    fwd.push_back(static_cast<double>(t1 - t0) * 1e-6);
    bwd.push_back(static_cast<double>(host_ns() - t1) * 1e-6);
  }
  m["nn.block_fwd_ms"] = {median(fwd), "ms"};
  m["nn.block_bwd_ms"] = {median(bwd), "ms"};
}

double mean_sq_loss(const t::Tensor& y, const t::Tensor& target, t::Tensor* dy,
                    float scale) {
  t::Tensor d = t::sub(y, target);
  const float norm = static_cast<float>(d.numel());
  const float l = 0.5f * t::sum(t::mul(d, d)) / norm;
  if (dy != nullptr) {
    t::scale_(d, scale / norm);
    *dy = d;
  }
  return l;
}

// ---- hybrid_train -------------------------------------------------------------

/// Times a pipeline stage's forward and backward as host spans.
class TimedStage final : public nn::Module {
 public:
  TimedStage(nn::Module& inner, SpanLog& spans, int lane)
      : inner_(inner), spans_(spans), lane_(lane) {}

  t::Tensor forward(const t::Tensor& x) override {
    SpanLog::Scope s(&spans_, lane_, "nn.stage_fwd");
    return inner_.forward(x);
  }
  t::Tensor backward(const t::Tensor& dy) override {
    SpanLog::Scope s(&spans_, lane_, "nn.stage_bwd");
    return inner_.backward(dy);
  }
  void collect_parameters(std::vector<nn::Parameter*>& out) override {
    inner_.collect_parameters(out);
  }

 private:
  nn::Module& inner_;
  SpanLog& spans_;
  int lane_;
};

/// Listing-1 hybrid: dp=2 x pp=2 x tp=2 on System I. Each stage is a stack
/// of 1D tensor-parallel Transformer blocks run by the 1F1B pipeline on a
/// bf16 wire; DP gradients sync through the bucketer, then Adam steps.
class HybridTrain final : public Workload {
 public:
  explicit HybridTrain(Settings s) : Workload(s, 8), d_(dims(s.smoke)) {
    const std::int64_t dp = 2;
    x_.resize(dp);
    target_.resize(dp);
    for (std::int64_t r = 0; r < dp; ++r) {
      for (std::int64_t m = 0; m < d_.micros; ++m) {
        const t::Shape shape{d_.micro_batch, d_.seq, d_.hidden};
        const auto k = static_cast<std::uint64_t>(r * d_.micros + m);
        x_[r].push_back(t::randn(shape, mix_seed(s.seed, 100 + k)));
        target_[r].push_back(t::randn(shape, mix_seed(s.seed, 200 + k)));
      }
    }
    serial_loss_ = serial_first_losses();
  }

  const char* name() const override { return "hybrid_train"; }
  std::int64_t samples_per_step() const override {
    return 2 * d_.micros * d_.micro_batch;
  }
  std::vector<sim::Cluster*> clusters() override { return {&world_->cluster}; }

  bool setup() override {
    ranks_.clear();
    world_.reset();
    world_ = std::make_unique<World>(sim::Topology::system_i(), config(),
                                     settings_.workers);
    ranks_.resize(8);
    world_->cluster.run([&](int g) { ranks_[static_cast<std::size_t>(g)] = build_rank(g); });
    if (!step()) return false;
    // first-step loss against the serial replica, per data-parallel replica
    for (int g = 0; g < 8; ++g) {
      if (!is_loss_rank(g)) continue;
      const int dp = world_->ctx.data_rank(g);
      const float got = ranks_[static_cast<std::size_t>(g)]->loss;
      if (!(std::abs(got - serial_loss_[static_cast<std::size_t>(dp)]) <= kBf16LossBound))
        return false;
    }
    return true;
  }

  bool step() override {
    const double t0 = align_clocks(world_->cluster);
    world_->cluster.run([&](int g) { run_rank(g); });
    last_sim_s_ = world_->cluster.max_clock() - t0;
    for (int g = 0; g < 8; ++g) {
      if (is_loss_rank(g) && !std::isfinite(ranks_[static_cast<std::size_t>(g)]->loss))
        return false;
    }
    return true;
  }

  void span_metrics(Metrics& m) const override {
    m["pp.train_step_ms"] = {spans_.median_ms("pp.train_step"), "ms"};
    m["engine.bucket_finish_ms"] = {spans_.median_ms("engine.bucket_finish"), "ms"};
    m["optim.adam_step_ms"] = {spans_.median_ms("optim.adam_step"), "ms"};
  }

  void sim_trace_metrics(Metrics& m, int steps) override {
    Workload::sim_trace_metrics(m, steps);
    const ca::obs::Tracer& tr = *world_->cluster.tracer();
    std::int64_t p2p = 0;
    for (int r = 0; r < tr.world(); ++r) {
      for (const auto& e : tr.rank(r).events()) {
        if (e.name == "p2p.send") p2p += e.bytes;
      }
    }
    // Bubble of the traced step: idle share of the step's simulated span,
    // averaged over ranks (busy = union of non-marker spans).
    const ca::obs::TraceReport rep = ca::obs::summarize(tr);
    const double wall = last_sim_s_ * steps;
    double bubble = 0.0;
    for (const auto& rs : rep.ranks) bubble += (wall - rs.busy) / wall;
    m["pp.sim_bubble_frac"] = {bubble / static_cast<double>(rep.ranks.size()), "fraction"};
    m["pp.p2p_bytes_per_step"] = {static_cast<double>(p2p) / steps, "bytes"};
  }

  bool serial_metrics(Metrics& m) override {
    nn::TransformerBlock blk("serial", d_.hidden, d_.heads, d_.ffn, block_seed(0, 0));
    time_block(blk, x_[0][0], t::randn(x_[0][0].shape(), mix_seed(settings_.seed, 300)), m);

    // The same task with no parallelism: one serial model over both
    // replicas' micro-batches, then Adam.
    nn::Sequential model = serial_model();
    ca::optim::Adam adam(model.parameters(), ca::optim::Adam::Hyper{});
    const double step_ms = median_call_ms(
        [&] {
          model.zero_grad();
          for (std::size_t r = 0; r < x_.size(); ++r) {
            for (std::size_t k = 0; k < x_[r].size(); ++k) {
              t::Tensor g;
              mean_sq_loss(model.forward(x_[r][k]), target_[r][k], &g,
                           1.0f / static_cast<float>(d_.micros * 2));
              model.backward(g);
            }
          }
          adam.step();
        },
        3, 0.5);
    m["nn.serial_samples_per_s"] = {
        static_cast<double>(samples_per_step()) / (step_ms * 1e-3), "1/s"};
    return true;
  }

  ProbePlan probe_plan() const override;

  /// Probe shapes of this workload; no reduce-scatter/all-gather (the
  /// zero3_ckpt shapes fill that in).
  static ProbePlan plan(bool smoke) {
    const Dims d = dims(smoke);
    ProbePlan p;
    // the MLP's column-parallel GEMM: micro tokens x hidden x ffn/tp
    p.gemm_m = d.micro_batch * d.seq;
    p.gemm_k = d.hidden;
    p.gemm_n = d.ffn / 2;
    p.convert_elems = stage_grad_elems(d);
    p.ar_topo = [] { return sim::Topology::system_i(); };
    p.ar_cfg = config();
    p.ar_elems = stage_grad_elems(d);
    p.region_topo = [] { return sim::Topology::system_i(); };
    p.contexts = {{[] { return sim::Topology::system_i(); }, config()}};
    return p;
  }

 private:
  struct Dims {
    std::int64_t hidden, heads, ffn, blocks_per_stage;
    std::int64_t micros, micro_batch, seq;
  };
  static Dims dims(bool smoke) {
    return smoke ? Dims{32, 2, 64, 1, 4, 2, 8} : Dims{128, 4, 512, 4, 8, 4, 32};
  }
  struct Rank {
    std::unique_ptr<nn::Sequential> stage;
    std::unique_ptr<TimedStage> timed;
    std::unique_ptr<ca::pp::Pipeline> pipe;
    std::unique_ptr<ca::engine::GradBucketer> bucketer;
    std::unique_ptr<ca::optim::Adam> adam;
    float loss = 0.0f;
  };
  /// The repository's fp32-vs-bf16 loss bound (bench_mixed_precision,
  /// bench_convergence).
  static constexpr float kBf16LossBound = 5e-2f;
  static constexpr std::int64_t kBucketBytes = 1 << 20;

  static core::Config config() {
    core::Config cfg;
    cfg.data_parallel_size = 2;
    cfg.pipeline_parallel_size = 2;
    cfg.tensor_parallel_size = 2;
    cfg.tensor_mode = core::TpMode::k1d;
    cfg.comm_dtype = "bf16";
    cfg.pp_schedule = "1f1b";
    cfg.sim_backend = "tasks";
    return cfg;
  }

  std::uint64_t block_seed(std::int64_t stage, std::int64_t i) const {
    return mix_seed(settings_.seed, 1000 + static_cast<std::uint64_t>(
                                               stage * d_.blocks_per_stage + i));
  }
  static std::int64_t stage_grad_elems(const Dims& d) {
    // per block on one tensor rank: QKV + proj + fc1 + fc2 shards, biases, 2 LNs
    const std::int64_t h = d.hidden, f = d.ffn;
    const std::int64_t block = h * 3 * h / 2 + 3 * h / 2 + h / 2 * h + h +
                               h * f / 2 + f / 2 + f / 2 * h + h + 4 * h;
    return block * d.blocks_per_stage;
  }
  bool is_loss_rank(int g) const {
    return world_->ctx.is_last_stage(g) && world_->ctx.tensor_rank(g) == 0;
  }

  std::unique_ptr<Rank> build_rank(int g) {
    auto r = std::make_unique<Rank>();
    const ca::tp::Env env = world_->env(g);
    const int stage = world_->ctx.pipeline_rank(g);
    r->stage = std::make_unique<nn::Sequential>();
    for (std::int64_t i = 0; i < d_.blocks_per_stage; ++i) {
      r->stage->add(std::make_unique<ca::tp::TransformerBlock1D>(
          env, "s" + std::to_string(stage) + "b" + std::to_string(i), d_.hidden,
          d_.heads, d_.ffn, block_seed(stage, i)));
    }
    r->timed = std::make_unique<TimedStage>(*r->stage, spans_, g);
    r->pipe = std::make_unique<ca::pp::Pipeline>(
        env, *r->timed, t::Shape{d_.micro_batch, d_.seq, d_.hidden},
        ca::pp::Schedule::kOneFOneB);
    const auto params = r->stage->parameters();
    r->bucketer = std::make_unique<ca::engine::GradBucketer>(
        world_->ctx.data_group(g), g, params, kBucketBytes, t::Dtype::kBF16);
    r->adam = std::make_unique<ca::optim::Adam>(params, ca::optim::Adam::Hyper{});
    return r;
  }

  void run_rank(int g) {
    Rank& r = *ranks_[static_cast<std::size_t>(g)];
    const auto dp = static_cast<std::size_t>(world_->ctx.data_rank(g));
    SpanLog::Scope step_span(&spans_, g, "rank.step");
    r.stage->zero_grad();
    {
      SpanLog::Scope s(&spans_, g, "pp.train_step");
      const bool first = world_->ctx.is_first_stage(g);
      const bool last = world_->ctx.is_last_stage(g);
      ca::pp::Pipeline::LossFn loss;
      if (last) {
        loss = [&, dp](const t::Tensor& y, t::Tensor& dy, int m) {
          return mean_sq_loss(y, target_[dp][static_cast<std::size_t>(m)], &dy,
                              1.0f / static_cast<float>(d_.micros));
        };
      }
      r.loss = r.pipe->train_step(
          static_cast<int>(d_.micros),
          first ? std::span<const t::Tensor>(x_[dp]) : std::span<const t::Tensor>(),
          loss);
    }
    {
      SpanLog::Scope s(&spans_, g, "engine.bucket_finish");
      r.bucketer->start_step();
      r.bucketer->finish();
    }
    SpanLog::Scope s(&spans_, g, "optim.adam_step");
    r.adam->step();
  }

  nn::Sequential serial_model() const {
    nn::Sequential model;
    for (std::int64_t s = 0; s < 2; ++s) {
      for (std::int64_t i = 0; i < d_.blocks_per_stage; ++i) {
        model.add(std::make_unique<nn::TransformerBlock>(
            "s" + std::to_string(s) + "b" + std::to_string(i), d_.hidden, d_.heads,
            d_.ffn, block_seed(s, i)));
      }
    }
    return model;
  }

  /// Mean micro-batch loss of each replica under the initial weights: what
  /// the pipeline's first step must report.
  std::vector<float> serial_first_losses() const {
    nn::Sequential model = serial_model();
    std::vector<float> out;
    for (std::size_t r = 0; r < x_.size(); ++r) {
      float sum = 0.0f;
      for (std::size_t k = 0; k < x_[r].size(); ++k) {
        const t::Tensor y = model.forward(x_[r][k]);
        sum += mean_sq_loss(y, target_[r][k], nullptr, 1.0f);
        (void)model.backward(t::zeros(y.shape()));  // release saved activations
      }
      out.push_back(sum / static_cast<float>(x_[r].size()));
    }
    return out;
  }

  Dims d_;
  std::vector<std::vector<t::Tensor>> x_, target_;  // [replica][micro]
  std::vector<float> serial_loss_;
  std::unique_ptr<World> world_;
  std::vector<std::unique_ptr<Rank>> ranks_;
};

// ---- zero3_ckpt -----------------------------------------------------------------

/// Checkpoint stream target: folds every byte into a 64-bit digest and, on
/// the one rank that keeps the checkpoint, also appends it to an in-memory
/// buffer (grow-only, reused across saves). Equal digests and sizes on every
/// rank are the byte-identity check, without holding one copy per rank.
class CheckpointSink final : public std::streambuf {
 public:
  explicit CheckpointSink(bool keep) : keep_(keep) {}

  /// Pre-size the kept buffer, so saves never reallocate mid-write.
  void reserve(std::size_t bytes) {
    if (keep_) bytes_.reserve(bytes);
  }
  void reset() {
    bytes_.clear();
    size_ = 0;
    hash_ = kSeed;
    tail_n_ = 0;
  }
  [[nodiscard]] std::int64_t size() const { return size_; }
  /// Digest of everything written since reset(), tail bytes included.
  [[nodiscard]] std::uint64_t digest() const {
    std::uint64_t w = 0;
    std::memcpy(&w, tail_, static_cast<std::size_t>(tail_n_));
    return mix(mix(hash_, w), static_cast<std::uint64_t>(size_));
  }

 protected:
  int_type overflow(int_type c) override {
    if (traits_type::eq_int_type(c, traits_type::eof())) return traits_type::not_eof(c);
    const char ch = traits_type::to_char_type(c);
    xsputn(&ch, 1);
    return c;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    if (keep_) bytes_.insert(bytes_.end(), s, s + n);
    size_ += n;
    const std::streamsize written = n;
    while (n > 0) {
      if (tail_n_ == 0 && n >= 8) {
        std::uint64_t w = 0;
        std::memcpy(&w, s, 8);
        hash_ = mix(hash_, w);
        s += 8;
        n -= 8;
        continue;
      }
      tail_[tail_n_++] = *s++;
      --n;
      if (tail_n_ == 8) {
        std::uint64_t w = 0;
        std::memcpy(&w, tail_, 8);
        hash_ = mix(hash_, w);
        tail_n_ = 0;
      }
    }
    return written;
  }

 private:
  static constexpr std::uint64_t kSeed = 0xCBF29CE484222325ULL;
  static std::uint64_t mix(std::uint64_t h, std::uint64_t w) {
    h = (h ^ w) * 0x100000001B3ULL;
    return h ^ (h >> 29);
  }

  bool keep_;
  std::vector<char> bytes_;
  std::int64_t size_ = 0;
  std::uint64_t hash_ = kSeed;
  char tail_[8] = {};
  int tail_n_ = 0;
};

/// ZeRO stage 3 over dp=8 on two System III nodes with a bf16 wire: a stack
/// of MLP blocks, a small per-rank batch, and an in-memory save_state every
/// `ckpt_every` steps.
class Zero3Ckpt final : public Workload {
 public:
  explicit Zero3Ckpt(Settings s) : Workload(s, 8), d_(dims(s.smoke)) {
    ckpt_every_ = (s.smoke || s.cross) ? 2 : 10;
    for (std::uint64_t r = 0; r < 8; ++r) {
      x_.push_back(t::randn(t::Shape{d_.rows, d_.hidden}, mix_seed(s.seed, 400 + r)));
      std::vector<std::int64_t> lab;
      for (std::int64_t i = 0; i < d_.rows; ++i) {
        lab.push_back(static_cast<std::int64_t>(
            mix_seed(s.seed, 500 + r * 1000 + static_cast<std::uint64_t>(i)) %
            static_cast<std::uint64_t>(d_.hidden)));
      }
      labels_.push_back(std::move(lab));
    }
  }

  const char* name() const override { return "zero3_ckpt"; }
  std::int64_t samples_per_step() const override { return 8 * d_.rows; }
  int block_steps() const override { return ckpt_every_; }
  std::vector<sim::Cluster*> clusters() override { return {&world_->cluster}; }

  bool setup() override {
    ranks_.clear();
    world_.reset();
    world_ = std::make_unique<World>(sim::Topology::system_iii(2), config(),
                                     settings_.workers);
    ranks_.resize(8);
    world_->cluster.run([&](int g) {
      auto r = std::make_unique<Rank>();
      r->model = build_model();
      r->engine = std::make_unique<ca::engine::ZeroEngine>(
          world_->env(g), *r->model, ca::optim::Adam::Hyper{}, 3);
      r->sink = std::make_unique<CheckpointSink>(g == 0);
      // master, m and v in full fp32, plus per-tensor headers
      r->sink->reserve(static_cast<std::size_t>(12 * r->model->num_params()) + (1 << 20));
      ranks_[static_cast<std::size_t>(g)] = std::move(r);
    });
    steps_ = 0;
    return step();
  }

  bool step() override {
    const bool ckpt = steps_ > 0 && steps_ % ckpt_every_ == 0;
    ++steps_;
    const double t0 = align_clocks(world_->cluster);
    world_->cluster.run([&](int g) { run_rank(g, ckpt); });
    last_sim_s_ = world_->cluster.max_clock() - t0;
    for (const auto& r : ranks_) {
      if (!std::isfinite(r->loss)) return false;
    }
    if (!ckpt) return true;
    // every rank must have written the same bytes
    const CheckpointSink& ref = *ranks_[0]->sink;
    ckpt_bytes_ = ref.size();
    for (const auto& r : ranks_) {
      if (ref.size() == 0 || r->sink->size() != ref.size() ||
          r->sink->digest() != ref.digest())
        return false;
    }
    return true;
  }

  void span_metrics(Metrics& m) const override {
    m["zero.gather_ms"] = {spans_.median_ms("zero.gather"), "ms"};
    m["zero.step_ms"] = {spans_.median_ms("zero.step"), "ms"};
    m["zero.release_ms"] = {spans_.median_ms("zero.release"), "ms"};
    m["engine.ckpt_save_ms"] = {spans_.median_ms("engine.ckpt_save"), "ms"};
    m["engine.ckpt_mb"] = {static_cast<double>(ckpt_bytes_) * 1e-6, "MB"};
    m["zero.state_mb_per_rank"] = {
        static_cast<double>(ranks_[0]->engine->optimizer().model_state_bytes()) * 1e-6,
        "MB"};
  }

  bool serial_metrics(Metrics& m) override {
    nn::Mlp blk("serial", d_.hidden, d_.ffn, block_seed(0));
    time_block(blk, x_[0], t::randn(x_[0].shape(), mix_seed(settings_.seed, 600)), m);

    // The same task on one worker: the whole global batch, plain Adam.
    auto model = build_model();
    ca::optim::Adam adam(model->parameters(), ca::optim::Adam::Hyper{});
    const t::Tensor x = t::cat(std::span<const t::Tensor>(x_), 0);
    std::vector<std::int64_t> labels;
    for (const auto& l : labels_) labels.insert(labels.end(), l.begin(), l.end());
    const double step_ms = median_call_ms(
        [&] {
          model->zero_grad();
          t::Tensor dl;
          (void)t::cross_entropy(model->forward(x), labels, dl);
          model->backward(dl);
          adam.step();
        },
        3, 0.5);
    m["nn.serial_samples_per_s"] = {
        static_cast<double>(samples_per_step()) / (step_ms * 1e-3), "1/s"};
    return true;
  }

  ProbePlan probe_plan() const override;

  /// Probe shapes of this workload; no all-reduce (the hybrid_train shapes
  /// fill that in).
  static ProbePlan plan(bool smoke) {
    const Dims d = dims(smoke);
    ProbePlan p;
    p.gemm_m = d.rows;
    p.gemm_k = d.hidden;
    p.gemm_n = d.ffn;
    p.convert_elems = shard_elems(d);
    p.rs_topo = [] { return sim::Topology::system_iii(2); };
    p.rs_cfg = config();
    p.rs_elems = 8 * shard_elems(d);
    p.region_topo = [] { return sim::Topology::system_iii(2); };
    p.contexts = {{[] { return sim::Topology::system_iii(2); }, config()}};
    return p;
  }

 private:
  struct Dims {
    std::int64_t blocks, hidden, ffn, rows;
  };
  static Dims dims(bool smoke) {
    return smoke ? Dims{2, 64, 128, 4} : Dims{8, 256, 1024, 16};
  }
  struct Rank {
    std::unique_ptr<nn::Sequential> model;
    std::unique_ptr<ca::engine::ZeroEngine> engine;
    std::unique_ptr<CheckpointSink> sink;
    float loss = 0.0f;
  };

  static core::Config config() {
    core::Config cfg;
    cfg.data_parallel_size = 8;
    cfg.comm_dtype = "bf16";
    cfg.sim_backend = "tasks";
    return cfg;
  }
  std::uint64_t block_seed(std::int64_t i) const {
    return mix_seed(settings_.seed, 2000 + static_cast<std::uint64_t>(i));
  }
  /// One rank's 1/8 share of the parameters (rounded up).
  static std::int64_t shard_elems(const Dims& d) {
    const std::int64_t block = 2 * d.hidden * d.ffn + d.hidden + d.ffn;
    return (block * d.blocks + 7) / 8;
  }

  std::unique_ptr<nn::Sequential> build_model() const {
    auto model = std::make_unique<nn::Sequential>();
    for (std::int64_t i = 0; i < d_.blocks; ++i) {
      model->add(std::make_unique<nn::Mlp>("mlp" + std::to_string(i), d_.hidden,
                                           d_.ffn, block_seed(i)));
    }
    return model;
  }

  /// ZeroEngine::forward/step spelled out through its optimizer so each
  /// ZeRO phase gets its own span (nan guard off, no fault plan: the same
  /// calls in the same order).
  void run_rank(int g, bool ckpt) {
    Rank& r = *ranks_[static_cast<std::size_t>(g)];
    ca::zero::ZeroOptimizer& opt = r.engine->optimizer();
    SpanLog::Scope step_span(&spans_, g, "rank.step");
    r.engine->zero_grad();
    {
      SpanLog::Scope s(&spans_, g, "zero.gather");
      opt.gather_params();
    }
    t::Tensor logits;
    {
      SpanLog::Scope s(&spans_, g, "nn.forward");
      logits = r.model->forward(x_[static_cast<std::size_t>(g)]);
    }
    r.loss = r.engine->criterion(logits, labels_[static_cast<std::size_t>(g)]);
    {
      SpanLog::Scope s(&spans_, g, "nn.backward");
      r.engine->backward();
    }
    {
      SpanLog::Scope s(&spans_, g, "zero.step");
      opt.step();
    }
    {
      SpanLog::Scope s(&spans_, g, "zero.release");
      opt.release_params();
    }
    if (ckpt) {
      SpanLog::Scope s(&spans_, g, "engine.ckpt_save");
      r.sink->reset();
      std::ostream os(r.sink.get());
      opt.save_state(os);
    }
  }

  Dims d_;
  int ckpt_every_ = 10;
  std::int64_t steps_ = 0;
  std::int64_t ckpt_bytes_ = 0;
  std::vector<t::Tensor> x_;
  std::vector<std::vector<std::int64_t>> labels_;
  std::unique_ptr<World> world_;
  std::vector<std::unique_ptr<Rank>> ranks_;
};

/// Fill the collective probe a workload does not run with the shapes of the
/// workload that does.
ProbePlan with_collectives(ProbePlan p, bool smoke) {
  if (p.ar_topo == nullptr) {
    const ProbePlan h = HybridTrain::plan(smoke);
    p.ar_topo = h.ar_topo;
    p.ar_cfg = h.ar_cfg;
    p.ar_elems = h.ar_elems;
  }
  if (p.rs_topo == nullptr) {
    const ProbePlan z = Zero3Ckpt::plan(smoke);
    p.rs_topo = z.rs_topo;
    p.rs_cfg = z.rs_cfg;
    p.rs_elems = z.rs_elems;
  }
  return p;
}

ProbePlan HybridTrain::probe_plan() const {
  ProbePlan p = with_collectives(plan(settings_.smoke), settings_.smoke);
  p.region_workers = workers();
  return p;
}
ProbePlan Zero3Ckpt::probe_plan() const {
  ProbePlan p = with_collectives(plan(settings_.smoke), settings_.smoke);
  p.region_workers = workers();
  return p;
}

// ---- table3_cost64 ----------------------------------------------------------------

/// The four 64-GPU rows of Table 3 on System IV, cost-model only: one step
/// is one SimTransformer::train_step on each row in turn, on
/// kCostOnlyWorkers workers.
class Table3Cost64 final : public Workload {
 public:
  explicit Table3Cost64(Settings s) : Workload(s, 64) {}

  const char* name() const override { return "table3_cost64"; }
  int workers() const override { return kCostOnlyWorkers; }
  std::int64_t samples_per_step() const override {
    std::int64_t n = 0;
    for (const RowSpec& r : kRows) n += r.batch;
    return n;
  }
  std::vector<sim::Cluster*> clusters() override {
    std::vector<sim::Cluster*> out;
    for (auto& r : rows_) out.push_back(&r->world.cluster);
    return out;
  }

  bool setup() override {
    rows_.clear();
    for (const RowSpec& spec : kRows) {
      auto row = std::make_unique<Row>(spec, workers());
      ca::tp::TransformerShape shape;
      shape.layers = settings_.smoke ? 1 : 32;
      shape.hidden = 4096;
      shape.heads = 64;
      shape.seq = 197;
      shape.batch = spec.batch;
      shape.bytes_per_elem = 2;
      row->models.resize(64);
      Row& rr = *row;
      rr.world.cluster.run([&](int g) {
        rr.models[static_cast<std::size_t>(g)] =
            std::make_unique<ca::tp::SimTransformer>(rr.world.env(g), spec.mode, shape);
      });
      rows_.push_back(std::move(row));
    }
    ref_s_.assign(kRows.size(), -1.0);
    return step_rows(false);
  }

  bool step() override { return step_rows(true); }

  void span_metrics(Metrics& m) const override {
    for (const RowSpec& r : kRows) {
      m[std::string("tp.step_ms_") + r.label] = {spans_.median_ms(r.span), "ms"};
    }
  }

  void sim_trace_metrics(Metrics& m, int steps) override {
    Workload::sim_trace_metrics(m, steps);
    for (std::size_t i = 0; i < kRows.size(); ++i) {
      m[std::string("tp.sim_img_per_s_") + kRows[i].label] = {
          static_cast<double>(kRows[i].batch) / ref_s_[i], "1/s"};
    }
  }

  /// No tensor data moves here: the kernel and data-moving collective
  /// probes run at the other workloads' shapes.
  ProbePlan probe_plan() const override {
    ProbePlan p = with_collectives(HybridTrain::plan(settings_.smoke), settings_.smoke);
    p.region_topo = [] { return sim::Topology::system_iv(64); };
    p.region_workers = workers();
    p.contexts.clear();
    for (const RowSpec& r : kRows) {
      p.contexts.emplace_back([] { return sim::Topology::system_iv(64); }, config(r));
    }
    return p;
  }

 private:
  struct RowSpec {
    const char* label;
    const char* span;
    core::TpMode mode;
    int depth;
    std::int64_t batch;
  };
  static constexpr std::array<RowSpec, 4> kRows{{
      {"1d", "tp.row_1d", core::TpMode::k1d, 1, 128},
      {"2d", "tp.row_2d", core::TpMode::k2d, 1, 512},
      {"2p5d", "tp.row_2p5d", core::TpMode::k2p5d, 4, 512},
      {"3d", "tp.row_3d", core::TpMode::k3d, 1, 512},
  }};
  struct Row {
    Row(const RowSpec& spec, int workers)
        : world(sim::Topology::system_iv(64), config(spec), workers) {}
    World world;
    std::vector<std::unique_ptr<ca::tp::SimTransformer>> models;
  };

  static core::Config config(const RowSpec& r) {
    core::Config cfg;
    cfg.tensor_parallel_size = 64;
    cfg.tensor_mode = r.mode;
    cfg.tensor_depth = r.depth;
    cfg.comm_dtype = "bf16";
    cfg.sim_backend = "tasks";
    return cfg;
  }

  /// One train_step per row. With `check`, each row must charge exactly the
  /// simulated time of its first checked step (rounding of the absolute
  /// clocks aside).
  bool step_rows(bool check) {
    bool ok = true;
    last_sim_s_ = 0.0;
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      Row& row = *rows_[i];
      SpanLog::Scope s(&spans_, SpanLog::kHarness, kRows[i].span);
      const double t0 = align_clocks(row.world.cluster);
      row.world.cluster.run([&](int g) {
        SpanLog::Scope rs(&spans_, g, "tp.train_step");
        row.models[static_cast<std::size_t>(g)]->train_step();
      });
      const double dt = row.world.cluster.max_clock() - t0;
      last_sim_s_ += dt;
      if (!check) continue;
      if (ref_s_[i] < 0.0) ref_s_[i] = dt;
      if (!(std::abs(dt - ref_s_[i]) <= 1e-9 * ref_s_[i])) ok = false;
    }
    return ok && last_sim_s_ > 0.0;
  }

  std::vector<std::unique_ptr<Row>> rows_;
  std::vector<double> ref_s_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"hybrid_train", "zero3_ckpt",
                                              "table3_cost64"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name, Settings s) {
  if (name == "hybrid_train") return std::make_unique<HybridTrain>(s);
  if (name == "zero3_ckpt") return std::make_unique<Zero3Ckpt>(s);
  if (name == "table3_cost64") return std::make_unique<Table3Cost64>(s);
  return nullptr;
}

}  // namespace perfbench
