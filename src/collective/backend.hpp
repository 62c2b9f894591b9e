#pragma once

#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "collective/group.hpp"
#include "collective/p2p.hpp"

namespace ca::collective {

/// Factory and registry for process groups and point-to-point channels over
/// one Cluster — the NCCL-communicator bookkeeping layer. Groups are created
/// on the launching thread *before* the SPMD region (mirroring
/// torch.distributed, where new_group() is collective at init time); the
/// returned references stay valid for the Backend's lifetime and are then
/// used concurrently from rank threads.
class Backend {
 public:
  /// Groups start on the cluster's `collective_algo` knob (checked here, so
  /// garbage throws before any rank runs).
  explicit Backend(sim::Cluster& cluster) : cluster_(cluster) {
    policy_.forced = AlgoSelector::parse(
        cluster.knobs().text(core::Knob::kCollectiveAlgo));
    const int n = cluster.world_size();
    channels_.resize(static_cast<std::size_t>(n) * n);
    std::vector<int> all(static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) all[static_cast<std::size_t>(r)] = r;
    world_ = &create_group(all, "world");
  }

  [[nodiscard]] sim::Cluster& cluster() { return cluster_; }

  /// Group containing every rank.
  [[nodiscard]] Group& world() { return *world_; }

  /// Force one collective algorithm for every group of this backend
  /// (ParallelContext sets its resolved `collective_algo` knob here).
  /// Main-thread only, before the SPMD region. nullopt restores auto-select.
  void set_forced_algo(std::optional<Algo> algo) { policy_.forced = algo; }
  [[nodiscard]] const AlgoPolicy& algo_policy() const { return policy_; }

  /// Create a new process group over `ranks`. Main-thread only. `name`
  /// labels the group's comm spans in traces (no '.' allowed).
  Group& create_group(std::vector<int> ranks, std::string name = "group") {
    groups_.push_back(std::make_unique<Group>(cluster_, std::move(ranks),
                                              std::move(name), &policy_));
    return *groups_.back();
  }

  /// Channel for the ordered pair (src, dst), created lazily on first use
  /// from the launching thread or any rank thread (channel creation itself
  /// races only on distinct slots because a pair has exactly two endpoints
  /// and only they touch the slot — guarded by the mutex anyway).
  [[nodiscard]] P2pChannel& channel(int src, int dst) {
    const int n = cluster_.world_size();
    auto& slot = channels_[static_cast<std::size_t>(src) * n + dst];
    std::scoped_lock lock(channel_mutex_);
    if (!slot) slot = std::make_unique<P2pChannel>(cluster_, src, dst);
    return *slot;
  }

  /// Tagged variant: a distinct ordered FIFO per (src, dst, tag), like an
  /// MPI tag. Traffic classes that interleave on the same rank pair — e.g. a
  /// 2-stage interleaved pipeline, where forward activations and backward
  /// dys both flow rank0 -> rank1 — must use distinct tags so each class
  /// keeps its own in-order matching. Tag 0 is the untagged channel.
  [[nodiscard]] P2pChannel& channel(int src, int dst, int tag) {
    if (tag == 0) return channel(src, dst);
    std::scoped_lock lock(channel_mutex_);
    auto& slot = tagged_channels_[{src, dst, tag}];
    if (!slot) slot = std::make_unique<P2pChannel>(cluster_, src, dst);
    return *slot;
  }

 private:
  sim::Cluster& cluster_;
  // Shared by every group this backend creates (groups hold a pointer), so
  // it must outlive them — it does, as a member declared before `groups_`.
  AlgoPolicy policy_;
  std::vector<std::unique_ptr<Group>> groups_;
  std::vector<std::unique_ptr<P2pChannel>> channels_;
  std::map<std::tuple<int, int, int>, std::unique_ptr<P2pChannel>>
      tagged_channels_;
  std::mutex channel_mutex_;
  Group* world_ = nullptr;
};

}  // namespace ca::collective
