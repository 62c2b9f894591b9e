#pragma once

#include <string>

#include "nn/layers.hpp"
#include "tp/comm_helpers.hpp"
#include "tp/env.hpp"

namespace ca::tp {

/// Redistribute a Y-layout 3D activation into X-layout so a following 3D
/// layer can consume it (Colossal-AI alternates layouts the same way).
tensor::Tensor convert_3d_y_to_x(const Env& env, const tensor::Tensor& y);
/// Inverse redistribution (the gradient path of convert_3d_y_to_x).
tensor::Tensor convert_3d_x_to_y(const Env& env, const tensor::Tensor& dx);

/// The Y->X conversion as a layer, placed between chained 3D layers:
/// convert_3d_y_to_x forward, convert_3d_x_to_y for the gradient.
class Convert3D : public nn::Module {
 public:
  explicit Convert3D(const Env& env) : env_(env) {}
  tensor::Tensor forward(const tensor::Tensor& y) override {
    return convert_3d_y_to_x(env_, y);
  }
  tensor::Tensor backward(const tensor::Tensor& dx) override {
    return convert_3d_x_to_y(env_, dx);
  }

 private:
  Env env_;
};

/// 3D tensor-parallel linear layer (Bian et al., "Maximizing Parallelism in
/// Distributed Training for Huge Neural Networks"), based on Agarwal's 3D
/// matrix multiplication. Devices form an l*l*l cube with coordinates
/// (i, j, k); input, weight and output are all perfectly partitioned into
/// l^3 blocks:
///
///   X block on (i,j,k): (rows/l, in/l^2)    rows chunk i,  col chunk k*l+j
///   W block on (i,j,k): (in/l,  out/l^2)    rows chunk k,  col chunk j*l+i
///   Y block on (i,j,k): (rows/l^2, out/l)   rows chunk i*l+k, col chunk j
///
/// The rows may be any leading dimensions with features last, chunked along
/// the first: a (batch, seq, features) token tensor keeps full sequences.
///
/// Forward: all-gather X over the j axis (giving X(i,k) of (rows/l, in/l)),
/// all-gather W over the i axis (giving W(k,j)), multiply, reduce-scatter the
/// partial Y over the k axis. Backward mirrors it. Every tensor moves through
/// exactly one all-gather and one reduce-scatter, which yields Table 1's
/// 2(l-1)/l * (S_X + S_W + S_Y) total volume — the best scaling of all modes.
///
/// Note the output block layout differs from the input layout; chain two
/// Linear3D layers through `convert_3d_y_to_x`, which redistributes via the
/// cube groups (Colossal-AI alternates layouts the same way).
class Linear3D : public nn::Module {
 public:
  /// Every rank keeps its block of the serial layer's seeded weight. With
  /// `col_sections` > 1 the weight's columns are that many independent
  /// sections (a fused [q|k|v] QKV weight): W block (i,j,k) holds column
  /// chunk j*l+i of every section, so W(k,j) gathered over i is chunk j of
  /// every section — the heads of cube column j.
  Linear3D(const Env& env, std::string name, std::int64_t in, std::int64_t out,
           std::uint64_t seed, bool with_bias = true, int col_sections = 1);

  tensor::Tensor forward(const tensor::Tensor& x) override;
  tensor::Tensor backward(const tensor::Tensor& dy) override;
  void collect_parameters(std::vector<nn::Parameter*>& out) override;

  [[nodiscard]] nn::Parameter& weight() { return weight_; }

  /// Slice the X-layout block of a full (rows, in) matrix for device (i,j,k):
  /// the first dim in l chunks, the last in l^2. A (batch, seq, hidden)
  /// token tensor keeps full sequences (the block3d.hpp X layout).
  static tensor::Tensor shard_input(const tensor::Tensor& full, int l, int i,
                                    int j, int k);
  /// Slice the Y-layout block of a full (rows, out) matrix for device (i,j,k).
  static tensor::Tensor shard_output(const tensor::Tensor& full, int l, int i,
                                     int j, int k);

 private:
  Env env_;
  std::int64_t in_, out_;
  bool with_bias_;
  int col_sections_;
  int l_, i_, j_, k_;
  nn::Parameter weight_;  // (in/l, out/l^2)
  nn::Parameter bias_;    // (out/l), N-chunk j, replicated over i and k
  sim::ScopedAlloc footprint_;
  tensor::Tensor saved_a_;  // gathered X(i,k): (rows/l, in/l)
  tensor::Tensor saved_b_;  // gathered W(k,j): (in/l, out/l)
  ActivationTracker acts_;
};

/// 3D-parallel MLP; a Convert3D between GELU and fc2 turns fc1's Y-layout
/// output into the X layout fc2 consumes.
class Mlp3D : public nn::MlpBody {
 public:
  Mlp3D(const Env& env, std::string name, std::int64_t hidden,
        std::int64_t ffn_hidden, std::uint64_t seed);
};

}  // namespace ca::tp
