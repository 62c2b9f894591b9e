#pragma once

#include <cmath>
#include <string>

namespace ca::core {

/// Tensor-parallel sharding mode, as in the paper's `mode='1d'|'2d'|'2.5d'|'3d'`
/// configuration field (Listing 1).
enum class TpMode { kNone, k1d, k2d, k2p5d, k3d };

[[nodiscard]] inline std::string to_string(TpMode m) {
  switch (m) {
    case TpMode::kNone: return "none";
    case TpMode::k1d: return "1d";
    case TpMode::k2d: return "2d";
    case TpMode::k2p5d: return "2.5d";
    case TpMode::k3d: return "3d";
  }
  return "?";
}

/// 2D and 2.5D run on one SUMMA grid; 2D is the grid at depth 1.
[[nodiscard]] constexpr bool is_grid(TpMode m) {
  return m == TpMode::k2d || m == TpMode::k2p5d;
}

/// The training-parallelism configuration a user writes — the C++ analogue
/// of the dict passed to colossalai.launch (Listing 1). World size must equal
/// data * pipeline * tensor * sequence.
struct Config {
  int data_parallel_size = 1;
  int pipeline_parallel_size = 1;
  int tensor_parallel_size = 1;
  TpMode tensor_mode = TpMode::kNone;
  int tensor_depth = 1;  ///< the 'd' of 2.5D parallelism; ignored otherwise
  int sequence_parallel_size = 1;

  // ---- knobs -----------------------------------------------------------------
  // Each member below is one row of the knob table (core/knobs.hpp), which
  // owns its config key, allowed values, environment variable and docs; the
  // value any consumer sees resolves env > this member > table default.

  std::string collective_algo = "auto";  ///< `collective_algo`
  std::string comm_dtype = "f32";        ///< `comm_dtype`: wire element type
  std::string pp_schedule = "1f1b";      ///< `pp.schedule`
  double fault_watchdog = 1.0;           ///< `fault.watchdog` (sim seconds)
  std::string sim_backend = "threads";   ///< `sim.backend`
  int sim_workers = 0;                   ///< `sim.workers`
  std::string metrics = "off";           ///< `metrics`
  int metrics_hist_buckets = 64;         ///< `metrics.hist_buckets`
  std::string elastic = "off";           ///< `elastic`
  int elastic_min_world = 1;             ///< `elastic.min_world`

  /// Checkpoint every this-many steps (`checkpoint.interval`; 0 disables).
  int checkpoint_interval = 0;
  /// Where CheckpointHook writes (`checkpoint.dir`).
  std::string checkpoint_dir = ".";

  [[nodiscard]] int world_size() const {
    return data_parallel_size * pipeline_parallel_size * tensor_parallel_size *
           sequence_parallel_size;
  }

  /// Integer side length if n is a perfect square, else 0.
  static int exact_sqrt(int n) {
    const int r = static_cast<int>(std::lround(std::sqrt(static_cast<double>(n))));
    return r * r == n ? r : 0;
  }
  /// Integer side length if n is a perfect cube, else 0.
  static int exact_cbrt(int n) {
    const int r = static_cast<int>(std::lround(std::cbrt(static_cast<double>(n))));
    return r * r * r == n ? r : 0;
  }

  /// Throws std::invalid_argument when sizes are inconsistent with the mode's
  /// topology requirement (2D: j^2 GPUs, 2.5D: d*k^2, 3D: l^3 — Section 2.2).
  /// Knob members are checked against the knob table (core/knobs.hpp).
  void validate() const;
};

}  // namespace ca::core
