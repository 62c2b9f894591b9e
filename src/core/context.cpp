#include "core/context.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <string>

#include "core/knobs.hpp"

namespace ca::core {

ParallelContext::ParallelContext(collective::Backend& backend, Config config)
    : ParallelContext(backend, std::move(config), std::vector<int>{}) {}

ParallelContext::ParallelContext(collective::Backend& backend, Config config,
                                 std::vector<int> members)
    : backend_(backend), config_(config), members_(std::move(members)) {
  config_.validate();
  // tensor_depth is the d of 2.5D; every other mode (2D included) is depth 1.
  depth_ = config_.tensor_mode == TpMode::k2p5d ? config_.tensor_depth : 1;
  const int world = config_.world_size();
  const int cluster_world = backend.cluster().world_size();
  if (members_.empty()) {
    // Identity mapping: virtual rank v == physical rank v.
    if (world != cluster_world) {
      throw std::invalid_argument(
          "config world size " + std::to_string(world) + " != cluster size " +
          std::to_string(backend.cluster().world_size()));
    }
    members_.resize(static_cast<std::size_t>(world));
    for (int v = 0; v < world; ++v) members_[static_cast<std::size_t>(v)] = v;
  }
  if (static_cast<int>(members_.size()) != world) {
    throw std::invalid_argument(
        "member list size " + std::to_string(members_.size()) +
        " != config world size " + std::to_string(world));
  }
  virt_of_.assign(static_cast<std::size_t>(cluster_world), -1);
  for (int v = 0; v < world; ++v) {
    const int g = members_[static_cast<std::size_t>(v)];
    if (g < 0 || g >= cluster_world ||
        virt_of_[static_cast<std::size_t>(g)] != -1) {
      throw std::invalid_argument(
          "member list must hold distinct cluster ranks; bad entry " +
          std::to_string(g));
    }
    virt_of_[static_cast<std::size_t>(g)] = v;
  }
  bool identity = true;
  for (int v = 0; v < world; ++v) {
    identity = identity && members_[static_cast<std::size_t>(v)] == v;
  }
  identity = identity && world == cluster_world;

  // The context-level knobs (env > config > default). The algorithm lands on
  // every group the backend creates.
  const Knobs knobs = Knobs::resolve(&config_);
  backend_.set_forced_algo(
      collective::AlgoSelector::parse(knobs.text(Knob::kCollectiveAlgo)));
  comm_dtype_ = *tensor::parse_dtype(knobs.text(Knob::kCommDtype));

  // The axis table. 2D is the grid at depth 1, and a depth-1 grid has no
  // depth axis (so no depth groups, and depth_coord reads 0).
  const int slot = config_.tensor_parallel_size * config_.sequence_parallel_size;
  extent_[kData] = config_.data_parallel_size;
  extent_[kPipe] = config_.pipeline_parallel_size;
  if (is_grid(config_.tensor_mode)) {
    grid_side_ = Config::exact_sqrt(config_.tensor_parallel_size / depth_);
    if (depth_ > 1) extent_[kDepth] = depth_;
    extent_[kRow] = extent_[kCol] = grid_side_;
  } else if (config_.tensor_mode == TpMode::k3d) {
    grid_side_ = Config::exact_cbrt(config_.tensor_parallel_size);
    extent_[kCubeI] = extent_[kCubeJ] = extent_[kCubeK] = grid_side_;
  }
  int split = 1;  // the sub-axes' share of the slot
  for (int a = kDepth; a < kAxes; ++a) split *= std::max(extent_[a], 1);
  extent_[kTensor] = slot / split;
  int stride = 1;
  for (int a = kAxes - 1; a >= 0; --a) {
    stride_[a] = stride;
    stride *= std::max(extent_[a], 1);
  }

  for (auto& slots : groups_) {
    slots.assign(static_cast<std::size_t>(cluster_world), nullptr);
  }
  world_group_ = identity ? &backend_.world()
                          : &backend_.create_group(members_, "world");

  // Every group is "the ranks that differ only in these axes", enumerated
  // over VIRTUAL ranks and mapped to physical cluster ranks before the group
  // is created, so one loop drives the identity and the elastic form. Absent
  // axes (extent 0) drop out; a kind with none of its axes builds no group.
  struct KindSpec {
    const char* name;
    std::initializer_list<Axis> axes;
  };
  const KindSpec kinds[kKinds] = {
      {"data", {kData}},
      {"tensor", {kTensor, kDepth, kRow, kCol, kCubeI, kCubeJ, kCubeK}},
      {"row", {kCol}},
      {"col", {kRow}},
      {"depth", {kDepth}},
      {"cube_i", {kCubeI}},
      {"cube_j", {kCubeJ}},
      {"cube_k", {kCubeK}},
  };
  for (int kind = 0; kind < kKinds; ++kind) {
    const std::initializer_list<Axis>& axes = kinds[kind].axes;
    int size = 1;
    bool present = false;
    for (Axis a : axes) {
      present = present || extent_[a] > 0;
      size *= std::max(extent_[a], 1);
    }
    if (!present) continue;
    for (int base = 0; base < world; ++base) {
      bool first = true;  // base is the member at digit 0 on every axis
      for (Axis a : axes) first = first && coord(base, a) == 0;
      if (!first) continue;
      std::vector<int> ranks;
      ranks.reserve(static_cast<std::size_t>(size));
      for (int m = 0; m < size; ++m) {  // m's digits over `axes`, ascending
        int v = base, rest = m;
        for (auto a = std::rbegin(axes); a != std::rend(axes); ++a) {
          const int n = std::max(extent_[*a], 1);
          v += rest % n * stride_[*a];
          rest /= n;
        }
        ranks.push_back(members_[static_cast<std::size_t>(v)]);
      }
      auto& g = backend_.create_group(std::move(ranks), kinds[kind].name);
      for (int r : g.ranks()) groups_[kind][static_cast<std::size_t>(r)] = &g;
    }
  }
}

int ParallelContext::virtual_rank(int grank) const {
  const int v = virt_of_.at(static_cast<std::size_t>(grank));
  if (v < 0) {
    throw std::logic_error("rank " + std::to_string(grank) +
                           " is not a member of this parallel context");
  }
  return v;
}

int ParallelContext::pipeline_prev(int grank) const {
  return pipeline_rank(grank) == 0
             ? -1
             : members_[static_cast<std::size_t>(virtual_rank(grank) -
                                                 stride_[kPipe])];
}

int ParallelContext::pipeline_next(int grank) const {
  return is_last_stage(grank)
             ? -1
             : members_[static_cast<std::size_t>(virtual_rank(grank) +
                                                 stride_[kPipe])];
}

collective::Group& ParallelContext::group(Kind kind, int grank,
                                          const char* what) const {
  collective::Group* g = groups_[kind].at(static_cast<std::size_t>(grank));
  if (g == nullptr) {
    throw std::logic_error(std::string(what) +
                           " group not available under this configuration");
  }
  return *g;
}

}  // namespace ca::core
