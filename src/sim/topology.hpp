#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sim/gpu_model.hpp"

namespace ca::sim {

/// Interconnect model: a dense per-pair bandwidth matrix plus a per-message
/// latency. This is the substrate for the paper's hardware-compatibility
/// study (Figs 9-11): the *same* parallel code run over different Topology
/// instances reproduces the 1D-vs-2D crossover between fully-connected
/// NVLink boxes and partially-connected PCIe boxes.
class Topology {
 public:
  /// `bw` is row-major num_devices x num_devices, bytes/second; diagonal is
  /// ignored. `latency_s` is the per-hop message latency in seconds.
  Topology(std::string name, GpuModel gpu, int gpus_per_node,
           std::vector<double> bw, double latency_s);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const GpuModel& gpu() const { return gpu_; }
  [[nodiscard]] int num_devices() const { return num_devices_; }
  [[nodiscard]] int gpus_per_node() const { return gpus_per_node_; }
  [[nodiscard]] int num_nodes() const { return num_devices_ / gpus_per_node_; }
  [[nodiscard]] double latency() const { return latency_s_; }

  /// Node housing device `dev` (devices are laid out node-major).
  [[nodiscard]] int node_of(int dev) const { return dev / gpus_per_node_; }
  [[nodiscard]] bool same_node(int a, int b) const {
    return node_of(a) == node_of(b);
  }
  /// Whether this rank set touches more than one node — the precondition for
  /// the hierarchical collective algorithms to have two distinct levels.
  [[nodiscard]] bool spans_nodes(std::span<const int> ranks) const;

  /// Slowest intra-node link (0 when every node holds a single device) and
  /// slowest inter-node link (0 on a single-node machine) — the two bandwidth
  /// classes the two-level collective cost model distinguishes.
  [[nodiscard]] double intra_node_bandwidth() const;
  [[nodiscard]] double inter_node_bandwidth() const;

  /// Point-to-point bandwidth between two (distinct) devices, bytes/second.
  [[nodiscard]] double bandwidth(int a, int b) const;

  /// Bandwidth of the slowest link on the logical ring over `ranks` (in the
  /// given order, wrapping around). Ring-based collectives are limited by
  /// exactly this link.
  [[nodiscard]] double ring_bottleneck(std::span<const int> ranks) const;

  /// Host <-> device (PCIe staging) bandwidth used by the offloading engine.
  [[nodiscard]] double host_link_bandwidth() const { return host_bw_; }

  /// NVMe tier streaming bandwidth (the deepest offload target).
  [[nodiscard]] double nvme_bandwidth() const { return nvme_bw_; }

  // ---- Table 2 presets ------------------------------------------------------

  /// System I: 1 node x 8 A100-80GB, NVLink between every pair.
  static Topology system_i();
  /// System II: 1 node x 8 A100-80GB, NVLink only between adjacent pairs
  /// (0-1, 2-3, 4-5, 6-7), PCIe otherwise. Paper Fig 10 measures 184 GB/s on
  /// NVLink pairs vs 15 GB/s through PCIe.
  static Topology system_ii();
  /// System III: 16 nodes x 4 A100-40GB, NVLink inside a node, InfiniBand
  /// HDR (200 Gb/s) across nodes.
  static Topology system_iii(int num_nodes = 16);
  /// System IV: 64 nodes x 1 P100-16GB, Cray Aries dragonfly.
  static Topology system_iv(int num_nodes = 64);

  /// Uniform all-to-all bandwidth (testing convenience).
  static Topology uniform(int num_devices, double bw, GpuModel gpu = a100_80gb(),
                          double latency_s = 5e-6);

 private:
  std::string name_;
  GpuModel gpu_;
  int num_devices_;
  int gpus_per_node_;
  std::vector<double> bw_;  // row-major matrix
  double latency_s_;
  double host_bw_ = 16.0e9;  // PCIe 3.0 x16-ish staging bandwidth
  double nvme_bw_ = 3.0e9;   // NVMe streaming bandwidth
};

}  // namespace ca::sim
