#include "zero/offload.hpp"

#include <cassert>

#include "zero/hybrid_adam.hpp"

namespace ca::zero {

SimOffloadTrainer::SimOffloadTrainer(const tp::Env& env,
                                     OffloadWorkload workload,
                                     const OffloadPolicy& policy,
                                     std::int64_t chunk_bytes)
    : env_(env),
      w_(workload),
      policy_(policy),
      chunks_(env, chunk_bytes, Placement::kHost) {
  auto& dp = env_.ctx->data_group(env_.grank);
  const int p = dp.size();

  // ZeRO-3: each rank stores 1/p of every layer's fp16 parameters, appended
  // tensor by tensor into chunks (qkv, attention projection, and the two MLP
  // matmuls — the registration order PatrickStar's layout uses). Chunks are
  // then placed per policy against the device budget left after activations
  // and a working-set reserve.
  const std::int64_t hh = w_.hidden * w_.hidden / p * w_.bytes_per_elem;
  const std::int64_t reserve = 2 << 30;  // gather buffers, workspace
  const std::int64_t budget =
      env_.dev().gpu().memory_bytes - w_.activation_bytes() - reserve;

  layer_chunks_.reserve(static_cast<std::size_t>(w_.layers));
  for (std::int64_t l = 0; l < w_.layers; ++l) {
    const std::string base = "layer" + std::to_string(l);
    std::vector<int> ids;
    for (const auto& [suffix, bytes] :
         {std::pair<const char*, std::int64_t>{".qkv", 3 * hh},
          {".proj", hh},
          {".fc1", 4 * hh},
          {".fc2", 4 * hh}}) {
      const std::size_t e = chunks_.append(base + suffix, bytes);
      const int cid = chunks_.entry(e).chunk_id;
      if (ids.empty() || ids.back() != cid) ids.push_back(cid);
    }
    layer_chunks_.push_back(std::move(ids));
  }
  std::int64_t committed = 0;
  for (std::size_t c = 0; c < chunks_.num_chunks(); ++c) {
    const int cid = static_cast<int>(c);
    if (policy_.place_param_chunk(chunks_.chunk(cid).capacity_bytes, committed,
                                  budget) == Placement::kDevice) {
      chunks_.move_to(cid, Placement::kDevice);
      committed = chunks_.device_bytes();
    }
  }
  // initial placement traffic is setup cost, not step time
  env_.dev().reset_clock();

  // fp32 master + two moments, sharded over the group
  state_elems_shard_ = 3 * w_.params() / p;
  const std::int64_t state_bytes = state_elems_shard_ * 4;
  gpu_frac_ = policy_.gpu_update_fraction(
      state_bytes, env_.dev().gpu().memory_bytes - w_.activation_bytes() -
                       reserve - chunks_.device_bytes());
}

std::int64_t SimOffloadTrainer::device_param_bytes() const {
  return chunks_.device_bytes();
}

void SimOffloadTrainer::train_step() {
  auto& dp = env_.ctx->data_group(env_.grank);
  const int p = dp.size();
  const std::int64_t be = w_.bytes_per_elem;
  const std::int64_t layer_params = 12 * w_.hidden * w_.hidden;
  const std::int64_t layer_full_bytes = layer_params * be;
  const double layer_flops =
      2.0 * static_cast<double>(layer_params) * w_.batch_per_gpu * w_.seq;
  const double host_bw =
      env_.ctx->backend().cluster().topology().host_link_bandwidth();

  // Streaming a host-resident chunk up for one layer's compute costs the
  // full chunk (possibly carrying other layers' tensors — the fragmentation
  // cost the chunk-size ablation sweeps) plus the per-transfer latency.
  auto stream_cost = [&](int cid) {
    const std::int64_t bytes = chunks_.chunk(cid).capacity_bytes;
    const double t0 = env_.dev().clock();
    const double t =
        ChunkManager::kMoveLatency + static_cast<double>(bytes) / host_bw;
    env_.dev().advance_clock(t);
    if (obs::TraceBuffer* tb = env_.dev().trace()) {
      tb->add(obs::TraceEvent{"chunk.fetch", obs::Category::kMemcpy, t0,
                              t0 + t, t0, bytes, 0.0, 0.0, {}, {}});
    }
  };

  // ---- forward ----------------------------------------------------------------
  for (std::int64_t l = 0; l < w_.layers; ++l) {
    for (int cid : layer_chunks_[static_cast<std::size_t>(l)]) {
      if (chunks_.chunk(cid).placement == Placement::kHost) stream_cost(cid);
    }
    if (p > 1) dp.account_all_gather(env_.grank, layer_full_bytes);
    env_.dev().compute_fp16(layer_flops);
  }

  // ---- backward ---------------------------------------------------------------
  for (std::int64_t l = w_.layers - 1; l >= 0; --l) {
    const auto& cids = layer_chunks_[static_cast<std::size_t>(l)];
    for (int cid : cids) {
      if (chunks_.chunk(cid).placement == Placement::kHost) stream_cost(cid);
    }
    if (p > 1) dp.account_all_gather(env_.grank, layer_full_bytes);
    env_.dev().compute_fp16(2.0 * layer_flops);
    if (p > 1) dp.account_reduce_scatter(env_.grank, layer_full_bytes);
    if (policy_.reuse_fp16_storage()) {
      // Figure 6: gradients land in the fp16 parameter storage — zero new
      // memory and, for device chunks, zero PCIe traffic.
      for (int cid : cids) {
        if (!chunks_.chunk(cid).holds_grads) chunks_.reuse_as_grads(cid);
        if (chunks_.chunk(cid).placement == Placement::kHost) stream_cost(cid);
      }
    } else {
      // static policy: gradient shards always stream down to the host
      const double t0 = env_.dev().clock();
      const double t = ChunkManager::kMoveLatency +
                       static_cast<double>(layer_full_bytes / p) / host_bw;
      env_.dev().advance_clock(t);
      if (obs::TraceBuffer* tb = env_.dev().trace()) {
        tb->add(obs::TraceEvent{"grad.d2h", obs::Category::kMemcpy, t0, t0 + t,
                                t0, layer_full_bytes / p, 0.0, 0.0, {}, {}});
      }
    }
  }

  // ---- hybrid Adam ---------------------------------------------------------------
  const double gpu_elems = gpu_frac_ * static_cast<double>(state_elems_shard_) / 3.0;
  const double cpu_elems =
      (1.0 - gpu_frac_) * static_cast<double>(state_elems_shard_) / 3.0;
  const double t_adam0 = env_.dev().clock();
  env_.dev().advance_clock(gpu_elems / HybridAdam::kGpuElemsPerSec +
                           cpu_elems / HybridAdam::kCpuElemsPerSec);
  const double t_adam1 = env_.dev().clock();
  // updated fp16 shards of host-updated params stream back to the device
  const std::int64_t wb_bytes = static_cast<std::int64_t>(
      (1.0 - gpu_frac_) * static_cast<double>(w_.params() / p * be));
  env_.dev().advance_clock(static_cast<double>(wb_bytes) / host_bw);
  if (obs::TraceBuffer* tb = env_.dev().trace()) {
    tb->add(obs::TraceEvent{"adam.update", obs::Category::kOptimizer, t_adam0,
                            t_adam1, t_adam0, 0, 0.0, 0.0, {}, {}});
    if (wb_bytes > 0) {
      tb->add(obs::TraceEvent{"adam.writeback", obs::Category::kMemcpy,
                              t_adam1, env_.dev().clock(), t_adam1, wb_bytes,
                              0.0, 0.0, {}, {}});
    }
  }

  for (const auto& cids : layer_chunks_) {
    for (int cid : cids) {
      if (chunks_.chunk(cid).holds_grads) chunks_.reuse_as_params(cid);
    }
  }
}

}  // namespace ca::zero
