#include "autop/planner.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

namespace ca::autop {

namespace {
constexpr std::int64_t kF = 4;  // fp32 activations/weights

double ring_all_reduce(const Mesh& mesh, int axis, std::int64_t bytes) {
  const double n = mesh.axis_size(axis);
  if (n <= 1 || bytes == 0) return 0.0;
  return 2.0 * (n - 1) / n * static_cast<double>(bytes) / mesh.axis_bw(axis) +
         2.0 * mesh.alpha * (n - 1);
}
}  // namespace

std::vector<OpStrategy> LinearNode::strategies(const Mesh& mesh,
                                               double flops_per_sec) const {
  std::vector<OpStrategy> out_strats;
  const std::int64_t x_bytes = rows * in * kF;
  const std::int64_t y_bytes = rows * out * kF;
  const std::int64_t w_bytes = in * out * kF;
  const double full_flops = 6.0 * static_cast<double>(rows) * in * out;

  // replicated: every device does everything (the degenerate baseline)
  {
    OpStrategy s;
    s.name = "replicated";
    s.in_spec = ShardingSpec::replicated(2);
    s.out_spec = ShardingSpec::replicated(2);
    s.compute = full_flops / flops_per_sec;
    s.param_bytes = 2 * w_bytes;
    s.act_bytes = y_bytes;
    s.in_bytes = x_bytes;
    out_strats.push_back(s);
  }

  for (int a : {0, 1}) {
    if (mesh.axis_size(a) <= 1) continue;
    const auto n = static_cast<std::int64_t>(mesh.axis_size(a));
    const DimShard S = a == 0 ? DimShard::kS0 : DimShard::kS1;

    // data-parallel over the rows: weights replicated + grad all-reduce
    {
      OpStrategy s;
      s.name = std::string("data-parallel(axis") + std::to_string(a) + ")";
      s.in_spec = ShardingSpec({S, DimShard::kR});
      s.out_spec = ShardingSpec({S, DimShard::kR});
      s.compute = full_flops / n / flops_per_sec;
      s.comm = ring_all_reduce(mesh, a, w_bytes);
      s.param_bytes = 2 * w_bytes;
      s.act_bytes = y_bytes / n;
      s.in_bytes = x_bytes / n;
      out_strats.push_back(s);
    }
    // column-parallel: W split on out; input replicated; backward all-reduce dX
    {
      OpStrategy s;
      s.name = std::string("column-parallel(axis") + std::to_string(a) + ")";
      s.in_spec = ShardingSpec::replicated(2);
      s.out_spec = ShardingSpec({DimShard::kR, S});
      s.compute = full_flops / n / flops_per_sec;
      s.comm = ring_all_reduce(mesh, a, x_bytes);
      s.param_bytes = 2 * w_bytes / n;
      s.act_bytes = y_bytes / n;
      s.in_bytes = x_bytes;
      out_strats.push_back(s);
    }
    // row-parallel: W split on in; input feature-sharded; forward all-reduce Y
    {
      OpStrategy s;
      s.name = std::string("row-parallel(axis") + std::to_string(a) + ")";
      s.in_spec = ShardingSpec({DimShard::kR, S});
      s.out_spec = ShardingSpec::replicated(2);
      s.compute = full_flops / n / flops_per_sec;
      s.comm = ring_all_reduce(mesh, a, y_bytes);
      s.param_bytes = 2 * w_bytes / n;
      s.act_bytes = y_bytes;
      s.in_bytes = x_bytes / n;
      out_strats.push_back(s);
    }
  }
  return out_strats;
}

Plan Planner::plan(const std::vector<LinearNode>& graph,
                   std::int64_t memory_budget) const {
  assert(!graph.empty());
  constexpr double kInf = std::numeric_limits<double>::infinity();

  // enumerate strategies per node
  std::vector<std::vector<OpStrategy>> strats;
  strats.reserve(graph.size());
  for (const auto& node : graph) strats.push_back(node.strategies(mesh_, flops_));

  // Viterbi over the chain: cost[i][k] = best cost ending at node i with
  // strategy k, including conversion of the activation between nodes.
  std::vector<std::vector<double>> cost(graph.size());
  std::vector<std::vector<int>> back(graph.size());
  std::vector<std::vector<double>> conv(graph.size());
  for (std::size_t i = 0; i < graph.size(); ++i) {
    cost[i].assign(strats[i].size(), kInf);
    back[i].assign(strats[i].size(), -1);
    conv[i].assign(strats[i].size(), 0.0);
  }
  for (std::size_t k = 0; k < strats[0].size(); ++k) {
    cost[0][k] = strats[0][k].compute + strats[0][k].comm;
  }
  for (std::size_t i = 1; i < graph.size(); ++i) {
    const std::int64_t act_bytes = graph[i].rows * graph[i].in * kF;
    for (std::size_t k = 0; k < strats[i].size(); ++k) {
      for (std::size_t j = 0; j < strats[i - 1].size(); ++j) {
        if (cost[i - 1][j] == kInf) continue;
        const auto cplan =
            plan_greedy(strats[i - 1][j].out_spec, strats[i][k].in_spec, mesh_,
                        act_bytes);
        const double c = cost[i - 1][j] + cplan.total_cost +
                         strats[i][k].compute + strats[i][k].comm;
        if (c < cost[i][k]) {
          cost[i][k] = c;
          back[i][k] = static_cast<int>(j);
          conv[i][k] = cplan.total_cost;
        }
      }
    }
  }

  // pick the best terminal strategy and walk back
  std::size_t best = 0;
  for (std::size_t k = 1; k < strats.back().size(); ++k)
    if (cost.back()[k] < cost.back()[best]) best = k;

  std::vector<int> choice(graph.size());
  choice.back() = static_cast<int>(best);
  for (std::size_t i = graph.size() - 1; i > 0; --i)
    choice[i - 1] = back[i][static_cast<std::size_t>(choice[i])];

  Plan plan;
  plan.nodes.resize(graph.size());
  plan.step_seconds = cost.back()[best];
  std::int64_t params = 0, acts = 0;
  for (std::size_t i = 0; i < graph.size(); ++i) {
    const auto& s = strats[i][static_cast<std::size_t>(choice[i])];
    plan.nodes[i] = NodePlan{s.name, false,
                             conv[i][static_cast<std::size_t>(choice[i])]};
    params += s.param_bytes;
    // held for backward: the saved input AND the node's activations
    acts += s.in_bytes + s.act_bytes;
  }

  // activation checkpointing folded into the search: while over budget,
  // checkpoint the node with the best (bytes saved) / (recompute seconds).
  // A checkpointed node keeps only its input (nn::Checkpoint semantics).
  while (params + acts > memory_budget) {
    double best_ratio = 0.0;
    int pick = -1;
    for (std::size_t i = 0; i < graph.size(); ++i) {
      if (plan.nodes[i].checkpointed) continue;
      const auto& s = strats[i][static_cast<std::size_t>(choice[i])];
      const std::int64_t saved = s.act_bytes;
      if (saved <= 0) continue;
      // recompute = one extra forward = compute/3 (fwd is 1/3 of fwd+bwd)
      const double recompute = s.compute / 3.0;
      const double ratio =
          static_cast<double>(saved) / (recompute + 1e-12);
      if (ratio > best_ratio) {
        best_ratio = ratio;
        pick = static_cast<int>(i);
      }
    }
    if (pick < 0) {
      plan.feasible = false;  // nothing left to checkpoint
      break;
    }
    const auto& s = strats[static_cast<std::size_t>(pick)]
                          [static_cast<std::size_t>(choice[static_cast<std::size_t>(pick)])];
    plan.nodes[static_cast<std::size_t>(pick)].checkpointed = true;
    acts -= s.act_bytes;
    plan.step_seconds += s.compute / 3.0;
  }
  plan.peak_bytes = params + acts;
  if (plan.peak_bytes > memory_budget) plan.feasible = false;
  return plan;
}

PipeScheduleChoice best_pipeline_schedule(int stages, int micros, int chunks,
                                          const pp::StageSeconds& stage,
                                          std::int64_t held_bytes_per_micro,
                                          std::int64_t memory_budget) {
  std::vector<PipeScheduleChoice> candidates;
  for (const pp::Schedule sched :
       {pp::Schedule::kFillDrain, pp::Schedule::kOneFOneB,
        pp::Schedule::kInterleaved, pp::Schedule::kZeroBubble}) {
    const int v = sched == pp::Schedule::kInterleaved ? chunks : 1;
    if (v <= 1 && sched == pp::Schedule::kInterleaved) continue;
    // per-chunk costs: the stage's work split evenly over its v chunks
    pp::StageSeconds secs = stage;
    secs.fwd_s /= v;
    secs.bwd_input_s /= v;
    secs.bwd_weight_s /= v;
    PipeScheduleChoice c;
    c.sched = sched;
    c.timing = pp::time_schedule(
        *pp::compile_schedule(sched, stages, micros, v), secs);
    c.peak_bytes =
        static_cast<std::int64_t>(c.timing.peak_micros) * held_bytes_per_micro;
    c.feasible = memory_budget <= 0 || c.peak_bytes <= memory_budget;
    candidates.push_back(c);
  }

  const PipeScheduleChoice* best = nullptr;
  for (const auto& c : candidates) {
    if (!c.feasible) continue;
    if (best == nullptr || c.timing.step_s < best->timing.step_s) best = &c;
  }
  if (best != nullptr) return *best;
  // over budget everywhere: surface the least-memory schedule, infeasible
  for (const auto& c : candidates) {
    if (best == nullptr || c.peak_bytes < best->peak_bytes) best = &c;
  }
  return *best;
}

// ---- elastic survivor layout ------------------------------------------------

namespace {

/// Coarse per-device activation-communication volume (elements, fwd+bwd)
/// of one rows x hidden x hidden layer on `n` tensor ranks — the Table 1
/// asymptotics, enough to rank candidate layouts.
double tp_comm_elems(core::TpMode mode, double rows, double hidden, int n,
                     int depth) {
  const double act = rows * hidden;
  switch (mode) {
    case core::TpMode::kNone:
      return 0.0;
    case core::TpMode::k1d:
      return 2.0 * act * (n - 1) / n;
    case core::TpMode::k2d:  // the 2.5D grid at depth 1
    case core::TpMode::k2p5d: {
      const int q = core::Config::exact_sqrt(n / depth);
      const double grid = 4.0 * act / (q * depth);
      return depth > 1 ? grid + 2.0 * hidden * hidden / n : grid;
    }
    case core::TpMode::k3d: {
      const int l = core::Config::exact_cbrt(n);
      return 6.0 * act / (l * l);
    }
  }
  return 0.0;
}

}  // namespace

ElasticLayout best_survivor_layout(int survivors, std::int64_t rows,
                                   std::int64_t hidden, int max_data,
                                   double flops_per_sec, double bandwidth) {
  const auto drows = static_cast<double>(rows);
  const auto dh = static_cast<double>(hidden);
  ElasticLayout best;
  auto consider = [&](core::TpMode mode, int n, int depth, int dp) {
    ElasticLayout c;
    c.mode = mode;
    c.tensor = n;
    c.depth = depth;
    c.data = dp;
    c.ranks_used = dp * n;
    c.feasible = true;
    const double brows = drows / dp;  // rows per data replica
    const double compute = 6.0 * brows * dh * dh / n / flops_per_sec;
    const double tp_comm =
        4.0 * tp_comm_elems(mode, brows, dh, n, depth) / bandwidth;
    const double dp_comm =
        dp > 1 ? 4.0 * 2.0 * dh * dh / n * (dp - 1) / dp / bandwidth : 0.0;
    // A tiny per-member latency term so equal-volume candidates break
    // deterministically toward the smaller group.
    c.step_seconds = compute + tp_comm + dp_comm + 1e-6 * c.ranks_used;
    if (!best.feasible) {
      best = c;
      return;
    }
    // Deterministic preference: more ranks used, then faster, then the
    // simpler mode (enum order: none < 1d < 2d < 2.5d < 3d).
    if (c.ranks_used != best.ranks_used) {
      if (c.ranks_used > best.ranks_used) best = c;
      return;
    }
    if (c.step_seconds != best.step_seconds) {
      if (c.step_seconds < best.step_seconds) best = c;
      return;
    }
    if (static_cast<int>(c.mode) < static_cast<int>(best.mode)) best = c;
  };

  for (int dp = 1; dp <= std::min(max_data, survivors); ++dp) {
    if (rows % dp != 0) continue;
    const int max_n = survivors / dp;
    for (int n = 1; n <= max_n; ++n) {
      const double brows = drows / dp;
      if (n == 1) {
        consider(core::TpMode::kNone, 1, 1, dp);
        continue;
      }
      if (hidden % n == 0) consider(core::TpMode::k1d, n, 1, dp);
      // the SUMMA grid: 2D at depth 1, 2.5D above
      for (int depth = 1; depth <= n; ++depth) {
        if (n % depth != 0) continue;
        const int q = core::Config::exact_sqrt(n / depth);
        if (q > 1 && hidden % (q * depth) == 0 &&
            static_cast<std::int64_t>(brows) % (q * depth) == 0) {
          consider(depth == 1 ? core::TpMode::k2d : core::TpMode::k2p5d, n,
                   depth, dp);
        }
      }
      if (const int l = core::Config::exact_cbrt(n);
          l > 1 && hidden % (l * l) == 0 &&
          static_cast<std::int64_t>(brows) % (l * l) == 0) {
        consider(core::TpMode::k3d, n, 1, dp);
      }
    }
  }
  return best;
}

}  // namespace ca::autop
