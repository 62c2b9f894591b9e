#pragma once

#include <cstdint>

namespace ca::sp {

/// BERT-style model/workload shape for the Section 5.3 experiments.
/// Defaults are BERT-Base, the paper's model for sequence parallelism.
struct BertShape {
  std::int64_t layers = 12;
  std::int64_t hidden = 768;
  std::int64_t heads = 12;
  std::int64_t batch = 0;
  std::int64_t seq = 0;
  std::int64_t bytes_per_elem = 2;  ///< fp16 training
  bool with_optimizer = true;      ///< fp32 master + Adam moments
};

/// Per-device peak bytes training with sequence parallelism over p ranks:
/// replicated parameters, all activations (including attention scores)
/// sharded by 1/p along the sequence.
std::int64_t bert_peak_sp(const BertShape& s, int p);

/// Per-device peak bytes with Megatron 1D tensor parallelism over p ranks:
/// parameters sharded 1/p, but block inputs/outputs replicated — the
/// duplicated-activation bottleneck Figure 12 exposes.
std::int64_t bert_peak_1d(const BertShape& s, int p);

/// Largest batch (at fixed seq) that fits `capacity` bytes; 0 if none.
std::int64_t max_batch(std::int64_t (*peak)(const BertShape&, int),
                       BertShape s, int p, std::int64_t capacity);

/// Largest sequence length (at fixed batch) that fits; quantized to
/// multiples of `step`. 0 if none.
std::int64_t max_seq(std::int64_t (*peak)(const BertShape&, int), BertShape s,
                     int p, std::int64_t capacity, std::int64_t step = 64);

}  // namespace ca::sp
