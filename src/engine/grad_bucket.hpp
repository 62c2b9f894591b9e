#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "collective/group.hpp"
#include "nn/module.hpp"

namespace ca::engine {

/// Bucketed gradient synchronization for data parallelism — the DDP overlap
/// design. Parameter gradients are coalesced into size-capped flat buckets
/// (built once, in reverse registration order so a bucket fills in roughly
/// the order backward produces gradients). During backward, `on_grad_ready`
/// marks parameters done; the moment a bucket's last gradient is ready, its
/// gradients are packed and a *non-blocking* averaged all-reduce is issued,
/// so communication of late-layer gradients overlaps with computation of
/// early-layer ones. `finish()` issues any straggler buckets, waits for all
/// of them, and unpacks the averaged results back into the parameter grads.
///
/// Coalescing also replaces many small per-parameter collectives (each
/// paying rendezvous latency) with a few large ones.
///
/// Intended for exactly one backward pass per step; with gradient
/// accumulation (several backwards per step), use serial sync instead.
class GradBucketer {
 public:
  /// `params` in registration order; buckets are built back-to-front.
  /// `bucket_bytes` caps a bucket's payload (a single parameter larger than
  /// the cap gets its own bucket). `wire` is the element type the bucket
  /// all-reduces move over the interconnect: a half wire halves each
  /// bucket's wire bytes (the bucket *cap* stays in fp32 gradient bytes, so
  /// bucket boundaries — and hence the reduction grouping — are identical
  /// across wire dtypes).
  GradBucketer(collective::Group& dp, int grank,
               const std::vector<nn::Parameter*>& params,
               std::int64_t bucket_bytes,
               tensor::Dtype wire = tensor::Dtype::kF32);

  /// Re-arm for a new step: clears per-step ready/issued state so hooks may
  /// trigger eager issue again. Call before backward.
  void start_step();

  /// Notification that `p`'s gradient is final (from the module grad-ready
  /// hook). Issues the owning bucket's async all-reduce if it became full.
  /// Parameters not managed by this bucketer are ignored.
  void on_grad_ready(const nn::Parameter& p);

  /// Issue any not-yet-issued buckets, wait for every bucket (in issue
  /// order), and scatter the averaged gradients back into the parameters.
  void finish();

 private:
  struct Bucket {
    std::vector<nn::Parameter*> params;
    std::vector<std::int64_t> offsets;  // elem offset of each param's grad
    std::int64_t elems = 0;
    std::vector<float> flat;  // coalesced payload, sized `elems`
    // per-step state
    int ready = 0;
    bool issued = false;
    collective::CollectiveHandle handle;
  };

  void issue(Bucket& b);

  collective::Group& dp_;
  int grank_;
  float scale_;  // 1/P gradient averaging, fused into the reduce copy-out
  tensor::Dtype wire_;  // wire element type of the bucket all-reduces
  std::vector<Bucket> buckets_;
  // grad-buffer pointer -> owning bucket index (Tensor storage is stable)
  std::unordered_map<const float*, int> bucket_of_;
  bool armed_ = false;
};

}  // namespace ca::engine
