#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/module.hpp"
#include "tp/env.hpp"

namespace ca::tp {

/// LayerNorm over a hidden dimension split across ranks, for the grid (2D /
/// 2.5D) and 3D layouts. Each rank holds one slice of every local token's
/// hidden vector and the matching gamma/beta slice. The per-token
/// statistics need one small all-reduce over each of `stat_groups` in
/// forward and again in backward; gamma/beta are replicated over the ranks
/// that hold the same slice for other tokens, so their gradients all-reduce
/// over each of `grad_groups`. gamma/beta carry a ShardSpec, so checkpoints
/// store them whole.
class ShardedLayerNorm : public nn::Module {
 public:
  /// `slice` places the local gamma/beta in the full hidden vector
  /// (1-D spec: hidden / row_blocks elements, block row_index).
  ShardedLayerNorm(const Env& env, std::string name, std::int64_t hidden,
                   nn::ShardSpec slice,
                   std::vector<collective::Group*> stat_groups,
                   std::vector<collective::Group*> grad_groups,
                   float eps = 1e-5f);

  /// Grid layout: hidden chunk c of q; statistics reduce over the row,
  /// gradients over the column (and depth when d > 1).
  static std::unique_ptr<ShardedLayerNorm> grid(const Env& env,
                                                std::string name,
                                                std::int64_t hidden);
  /// 3D X layout: hidden chunk k*l + j of l^2; statistics reduce over j then
  /// k, gradients over i.
  static std::unique_ptr<ShardedLayerNorm> cube(const Env& env,
                                                std::string name,
                                                std::int64_t hidden);

  tensor::Tensor forward(const tensor::Tensor& x) override;
  tensor::Tensor backward(const tensor::Tensor& dy) override;
  void collect_parameters(std::vector<nn::Parameter*>& out) override;

 private:
  int grank_;
  std::int64_t hidden_, local_h_;
  float eps_;
  std::vector<collective::Group*> stat_groups_, grad_groups_;
  nn::Parameter gamma_, beta_;
  tensor::Tensor saved_x_, saved_mean_, saved_rstd_;
};

}  // namespace ca::tp
