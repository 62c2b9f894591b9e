#pragma once

#include <string>

#include "nn/layers.hpp"
#include "tp/comm_helpers.hpp"
#include "tp/env.hpp"

namespace ca::tp {

/// 2.5D tensor-parallel linear (Wang et al., "2.5-dimensional distributed
/// model training"): d stacked SUMMA grids of k*k devices. The input batch is
/// split into d slabs, one per depth layer, and each layer runs SUMMA over
/// its slab — that divides the activation communication by d (Table 1:
/// 3(k-1)(S_X/d + S_W)).
///
/// 2D (Xu et al., "An Efficient 2D Method for Training Super-Large Deep
/// Learning Models") is this layer at depth 1: one q*q grid partitions input,
/// weight and output, and the volume is 2D's 3(j-1)(S_X + S_W). Forward runs
/// q SUMMA steps, broadcasting X blocks along rows and W blocks along
/// columns; backward runs two more SUMMA passes (dX and dW) built from
/// broadcasts + reductions.
///
/// Weight storage is fully partitioned over all p = d*k^2 devices (each
/// depth layer holds a 1/d row-slab of its grid block) and, for d > 1, the
/// block is all-gathered over the depth group on use, then released — the
/// gather-use-free pattern that gives 2.5D its memory advantage over 1D in
/// the paper's Figure 8 while weight *traffic* still counts S_W per SUMMA
/// pass. At depth 1 the slab is the block and is used in place.
///
/// Local layout for device (depth dd, row r, col c):
///   X slab:  (rows/(d*k), in/k)       — batch slab dd, SUMMA row r, col c
///   W slab:  (in/(k*d), out/k)        — row-slab dd of grid block (r, c)
///   Y slab:  (rows/(d*k), out/k)
class Linear2p5D : public nn::Module {
 public:
  Linear2p5D(const Env& env, std::string name, std::int64_t in,
             std::int64_t out, std::uint64_t seed, bool with_bias = true);
  /// Construct from an explicit full weight (every rank passes the same
  /// tensor and keeps its slab) — used by the fused-QKV attention layers
  /// whose column layout is not a plain chunk of a seeded weight.
  Linear2p5D(const Env& env, std::string name,
             const tensor::Tensor& full_weight, bool with_bias = true);
  ~Linear2p5D() override;

  tensor::Tensor forward(const tensor::Tensor& x) override;
  tensor::Tensor backward(const tensor::Tensor& dy) override;
  void collect_parameters(std::vector<nn::Parameter*>& out) override;

  [[nodiscard]] nn::Parameter& weight() { return weight_; }
  [[nodiscard]] nn::Parameter* bias() { return with_bias_ ? &bias_ : nullptr; }

  /// Slice the (dd, r, c) activation block out of a full activation: the
  /// first dim (batch rows) in d*k slabs, the last (features) in k chunks.
  /// A (batch, seq, hidden) token tensor keeps full sequences.
  static tensor::Tensor shard_activation(const tensor::Tensor& full, int q,
                                         int depth, int dd, int r, int c);
  /// The same slice for env's rank on env's grid.
  static tensor::Tensor shard_activation(const tensor::Tensor& full,
                                         const Env& env);

 private:
  /// This rank's full (in/k, out/k) grid block: gathered over the depth
  /// group when d > 1, the local slab itself at depth 1.
  tensor::Tensor weight_block();
  /// Tracked bytes of the transient gathered block (0 at depth 1).
  [[nodiscard]] std::int64_t gathered_bytes() const;

  Env env_;
  std::int64_t in_, out_;
  bool with_bias_;
  int q_, d_, r_, c_, dd_;
  nn::Parameter weight_;  // (in/(k*d), out/k): depth slab of block (r, c)
  nn::Parameter bias_;    // (out/k), block c (replicated along rows and depth)
  tensor::Tensor saved_x_;
  ActivationTracker acts_;
  std::int64_t param_bytes_ = 0;
};

/// 2.5D-parallel MLP: Linear2p5D -> GELU -> Linear2p5D. GELU is local
/// because activations are fully partitioned.
class Mlp2p5D : public nn::MlpBody {
 public:
  Mlp2p5D(const Env& env, std::string name, std::int64_t hidden,
          std::int64_t ffn_hidden, std::uint64_t seed);
};

}  // namespace ca::tp
