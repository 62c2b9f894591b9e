#include "pp/schedule.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <map>
#include <mutex>
#include <stdexcept>
#include <tuple>

namespace ca::pp {

std::optional<Schedule> parse_pipe_sched(std::string_view name) {
  if (name == "fill_drain" || name == "gpipe") return Schedule::kFillDrain;
  if (name == "1f1b") return Schedule::kOneFOneB;
  if (name == "interleaved") return Schedule::kInterleaved;
  if (name == "zero_bubble" || name == "zb") return Schedule::kZeroBubble;
  return std::nullopt;
}

const char* task_name(TaskKind k) {
  switch (k) {
    case TaskKind::kRecvFwd: return "recv_fwd";
    case TaskKind::kFwd: return "fwd";
    case TaskKind::kSendFwd: return "send_fwd";
    case TaskKind::kRecvBwd: return "recv_bwd";
    case TaskKind::kRecompute: return "recompute";
    case TaskKind::kBwdInput: return "bwd_input";
    case TaskKind::kSendBwd: return "send_bwd";
    case TaskKind::kBwdWeight: return "bwd_weight";
  }
  return "unknown";
}

namespace {

constexpr int kNotDone = std::numeric_limits<int>::max();

/// Greedy list-scheduling simulation over the virtual-stage task DAG. Time
/// advances in unit rounds; every logical op occupies its rank for a small
/// integer duration in forward units (fwd 1, recompute 1, dgrad 1, wgrad 1,
/// so a fused backward is 3 rounds and a zero-bubble dgrad leg 2). The
/// priorities and in-flight caps below are the whole difference between the
/// four schedules; everything downstream (programs, channel orders, recv
/// markers) is derived mechanically from the simulation's choices.
class Compiler {
 public:
  Compiler(Schedule kind, int S, int M, int V)
      : kind_(kind), S_(S), M_(M), V_(V), VS_(S * V) {
    done_f_.assign(total(), kNotDone);
    done_b_.assign(total(), kNotDone);
    started_f_.assign(total(), 0);
    started_b_.assign(total(), 0);
    started_w_.assign(total(), 0);
  }

  PipeSchedule run() {
    PipeSchedule out;
    out.kind = kind_;
    out.stages = S_;
    out.micros = M_;
    out.chunks = V_;
    out.ranks.resize(static_cast<std::size_t>(S_));

    const bool fused = kind_ != Schedule::kZeroBubble;
    std::vector<int> busy_until(static_cast<std::size_t>(S_), 0);
    std::vector<int> held(static_cast<std::size_t>(S_), 0);
    // 3 logical ops per (vs, m): fwd, dgrad, wgrad (a fused B retires the
    // latter two together)
    int remaining = VS_ * M_ * 3;
    const int dur_b = fused ? 3 : 2;  // recompute + dgrad (+ fused wgrad)
    const int round_limit = 16 * VS_ * M_ * dur_b + 64;

    int t = 0;
    for (; remaining > 0; ++t) {
      if (t > round_limit) {
        throw std::logic_error("pipe schedule compiler failed to converge");
      }
      for (int r = 0; r < S_; ++r) {
        if (busy_until[static_cast<std::size_t>(r)] > t) continue;
        // B over F over W for every schedule except fill-drain (F over B).
        const bool f_first = kind_ == Schedule::kFillDrain;
        int vs = -1, m = -1;
        char cls = 0;
        if (f_first) {
          if (pick_f(r, t, held, vs, m)) cls = 'F';
          else if (pick_b(r, t, vs, m)) cls = 'B';
        } else {
          if (pick_b(r, t, vs, m)) cls = 'B';
          else if (pick_f(r, t, held, vs, m)) cls = 'F';
          else if (!fused && pick_w(r, t, vs, m)) cls = 'W';
        }
        if (cls == 0) continue;
        auto& prog = out.ranks[static_cast<std::size_t>(r)];
        const auto v = static_cast<std::int16_t>(vs / S_);
        const auto mi = static_cast<std::int16_t>(m);
        switch (cls) {
          case 'F': {
            started_f_[id(vs, m)] = 1;
            done_f_[id(vs, m)] = t + 1;
            busy_until[static_cast<std::size_t>(r)] = t + 1;
            ++held[static_cast<std::size_t>(r)];
            prog.tasks.push_back({TaskKind::kFwd, v, mi});
            if (vs < VS_ - 1) {
              prog.tasks.push_back({TaskKind::kSendFwd, v, mi});
              auto& dst = out.ranks[static_cast<std::size_t>((r + 1) % S_)];
              dst.in_fwd.push_back(
                  {static_cast<std::int16_t>((vs + 1) / S_), mi});
            }
            break;
          }
          case 'B': {
            started_b_[id(vs, m)] = 1;
            done_b_[id(vs, m)] = t + dur_b;
            busy_until[static_cast<std::size_t>(r)] = t + dur_b;
            --held[static_cast<std::size_t>(r)];
            prog.tasks.push_back({TaskKind::kRecompute, v, mi});
            prog.tasks.push_back({TaskKind::kBwdInput, v, mi});
            if (vs > 0) {
              prog.tasks.push_back({TaskKind::kSendBwd, v, mi});
              auto& dst = out.ranks[static_cast<std::size_t>((r + S_ - 1) % S_)];
              dst.in_bwd.push_back(
                  {static_cast<std::int16_t>((vs - 1) / S_), mi});
            }
            if (fused) {
              started_w_[id(vs, m)] = 1;
              prog.tasks.push_back({TaskKind::kBwdWeight, v, mi});
              --remaining;
            }
            break;
          }
          case 'W': {
            started_w_[id(vs, m)] = 1;
            busy_until[static_cast<std::size_t>(r)] = t + 1;
            prog.tasks.push_back({TaskKind::kBwdWeight, v, mi});
            break;
          }
        }
        --remaining;
      }
    }
    for (int r = 0; r < S_; ++r) {
      insert_recv_markers(out.ranks[static_cast<std::size_t>(r)]);
      check_micro_ascending(out.ranks[static_cast<std::size_t>(r)]);
    }
    return out;
  }

 private:
  [[nodiscard]] std::size_t total() const {
    return static_cast<std::size_t>(VS_) * static_cast<std::size_t>(M_);
  }
  [[nodiscard]] std::size_t id(int vs, int m) const {
    return static_cast<std::size_t>(vs) * static_cast<std::size_t>(M_) +
           static_cast<std::size_t>(m);
  }

  /// In-flight cap for rank r: 1F1B-family schedules bound the held
  /// micro-batches to S*V - r (the classic S - r at V = 1); fill-drain and
  /// zero-bubble run uncapped — that unbounded residency is exactly the
  /// memory cost the zero-bubble schedule pays for its empty drain.
  [[nodiscard]] int cap(int r) const {
    if (kind_ == Schedule::kOneFOneB || kind_ == Schedule::kInterleaved) {
      return S_ * V_ - r;
    }
    return std::numeric_limits<int>::max();
  }

  /// Forward priority key: fill-drain is chunk-major (all micros of chunk 0,
  /// then chunk 1, ...); the 1F1B family is group-major like Megatron's
  /// interleaved schedule — S micros of chunk 0, the same S of chunk 1, ...,
  /// then the next group of S micros (plain ascending micros at V = 1).
  [[nodiscard]] std::tuple<int, int, int> f_key(int v, int m) const {
    if (kind_ == Schedule::kFillDrain) return {v, m, 0};
    return {m / S_, v, m % S_};
  }

  bool pick_f(int r, int t, const std::vector<int>& held, int& vs_out,
              int& m_out) {
    if (held[static_cast<std::size_t>(r)] >= cap(r)) return false;
    bool found = false;
    std::tuple<int, int, int> best{};
    for (int v = 0; v < V_; ++v) {
      const int vs = v * S_ + r;
      for (int m = 0; m < M_; ++m) {
        if (started_f_[id(vs, m)]) continue;
        if (vs > 0 && done_f_[id(vs - 1, m)] > t) continue;
        const auto key = f_key(v, m);
        if (!found || key < best) {
          found = true;
          best = key;
          vs_out = vs;
          m_out = m;
        }
      }
    }
    return found;
  }

  bool pick_b(int r, int t, int& vs_out, int& m_out) {
    bool found = false;
    std::pair<int, int> best{};
    for (int v = 0; v < V_; ++v) {
      const int vs = v * S_ + r;
      for (int m = 0; m < M_; ++m) {
        if (started_b_[id(vs, m)]) continue;
        if (done_f_[id(vs, m)] > t) continue;
        if (vs < VS_ - 1 && done_b_[id(vs + 1, m)] > t) continue;
        // Micro-ascending within a chunk is forced by the dependency chain;
        // across chunks, drain the later (deeper) chunk first.
        const std::pair<int, int> key =
            kind_ == Schedule::kFillDrain ? std::pair<int, int>{V_ - 1 - v, m}
                                          : std::pair<int, int>{m, V_ - 1 - v};
        if (!found || key < best) {
          found = true;
          best = key;
          vs_out = vs;
          m_out = m;
        }
      }
    }
    return found;
  }

  bool pick_w(int r, int t, int& vs_out, int& m_out) {
    bool found = false;
    std::pair<int, int> best{};
    for (int v = 0; v < V_; ++v) {
      const int vs = v * S_ + r;
      for (int m = 0; m < M_; ++m) {
        if (started_w_[id(vs, m)]) continue;
        if (done_b_[id(vs, m)] > t) continue;
        const std::pair<int, int> key{m, v};
        if (!found || key < best) {
          found = true;
          best = key;
          vs_out = vs;
          m_out = m;
        }
      }
    }
    return found;
  }

  /// Insert kRecvFwd / kRecvBwd markers. Forward message k is posted before
  /// the consumer of message k-1 runs (message 0 at program start), so the
  /// next activation streams in under the current compute; backward message
  /// k is posted right before its own consumer's recompute (the dy shape is
  /// only known once that chunk ran forward), riding under the recompute.
  /// Anchors are clamped monotone so posts stay in channel-FIFO order.
  void insert_recv_markers(RankProgram& prog) const {
    std::map<std::pair<int, int>, std::size_t> fwd_pos, rec_pos;
    for (std::size_t i = 0; i < prog.tasks.size(); ++i) {
      const auto& tk = prog.tasks[i];
      if (tk.kind == TaskKind::kFwd) fwd_pos[{tk.chunk, tk.micro}] = i;
      if (tk.kind == TaskKind::kRecompute) rec_pos[{tk.chunk, tk.micro}] = i;
    }
    // (anchor, sequence) so a stable sort preserves per-channel FIFO order
    std::vector<std::pair<std::size_t, PipeTask>> inserts;
    std::size_t prev = 0;
    for (std::size_t k = 0; k < prog.in_fwd.size(); ++k) {
      std::size_t anchor = 0;
      if (k > 0) {
        const auto& c = prog.in_fwd[k - 1];
        anchor = fwd_pos.at({c.chunk, c.micro});
      }
      anchor = std::max(anchor, prev);
      prev = anchor;
      inserts.push_back(
          {anchor,
           {TaskKind::kRecvFwd, prog.in_fwd[k].chunk, prog.in_fwd[k].micro}});
    }
    prev = 0;
    for (const auto& c : prog.in_bwd) {
      std::size_t anchor = std::max(rec_pos.at({c.chunk, c.micro}), prev);
      prev = anchor;
      inserts.push_back({anchor, {TaskKind::kRecvBwd, c.chunk, c.micro}});
    }
    if (inserts.empty()) return;
    std::stable_sort(inserts.begin(), inserts.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    std::vector<PipeTask> merged;
    merged.reserve(prog.tasks.size() + inserts.size());
    std::size_t next = 0;
    for (std::size_t i = 0; i < prog.tasks.size(); ++i) {
      while (next < inserts.size() && inserts[next].first == i) {
        merged.push_back(inserts[next].second);
        ++next;
      }
      merged.push_back(prog.tasks[i]);
    }
    while (next < inserts.size()) merged.push_back(inserts[next++].second);
    prog.tasks = std::move(merged);
  }

  /// The bit-identity contract: per chunk, dgrad and wgrad run in ascending
  /// micro order, so gradient accumulation matches the serial oracle.
  void check_micro_ascending(const RankProgram& prog) const {
    std::vector<int> last_b(static_cast<std::size_t>(V_), -1);
    std::vector<int> last_w(static_cast<std::size_t>(V_), -1);
    for (const auto& tk : prog.tasks) {
      if (tk.kind == TaskKind::kBwdInput) {
        assert(tk.micro > last_b[static_cast<std::size_t>(tk.chunk)]);
        last_b[static_cast<std::size_t>(tk.chunk)] = tk.micro;
      } else if (tk.kind == TaskKind::kBwdWeight) {
        assert(tk.micro > last_w[static_cast<std::size_t>(tk.chunk)]);
        last_w[static_cast<std::size_t>(tk.chunk)] = tk.micro;
      }
    }
    (void)prog;
  }

  Schedule kind_;
  int S_, M_, V_, VS_;
  std::vector<int> done_f_, done_b_;
  std::vector<char> started_f_, started_b_, started_w_;
};

}  // namespace

std::shared_ptr<const PipeSchedule> compile_schedule(Schedule kind, int stages,
                                                     int micros, int chunks) {
  if (stages < 1 || micros < 1 || chunks < 1) {
    throw std::invalid_argument("compile_schedule: sizes must be >= 1");
  }
  constexpr int kMaxIndex = std::numeric_limits<std::int16_t>::max();
  if (micros > kMaxIndex || chunks > kMaxIndex) {
    throw std::invalid_argument(
        "compile_schedule: micros and chunks must be <= 32767 (PipeTask "
        "indices are int16)");
  }
  static std::mutex mu;
  static std::map<std::tuple<int, int, int, int>,
                  std::shared_ptr<const PipeSchedule>>
      cache;
  const std::tuple<int, int, int, int> key{static_cast<int>(kind), stages,
                                           micros, chunks};
  std::scoped_lock lock(mu);
  auto it = cache.find(key);
  if (it != cache.end()) return it->second;
  Compiler c(kind, stages, micros, chunks);
  auto sched = std::make_shared<const PipeSchedule>(c.run());
  cache.emplace(key, sched);
  return sched;
}

PipeTiming time_schedule(const PipeSchedule& sched, const StageSeconds& secs) {
  const auto S = static_cast<std::size_t>(sched.stages);
  // One incoming FIFO channel: per position, the producer's send stamp and
  // this rank's post stamp; `pos` maps a consumer tag to its position. Both
  // stamp sequences are nondecreasing, so waiting for message k covers the
  // executor's in-order waits on every earlier message too.
  struct Chan {
    std::map<std::pair<int, int>, std::size_t> pos;
    std::vector<double> sent, posted;
  };
  struct Walk {
    std::size_t pc = 0;
    double clock = 0.0, busy = 0.0;
    int held = 0, peak = 0;
    Chan in[2];  // [0] activations, [1] dys
  };
  std::vector<Walk> walks(S);
  for (std::size_t r = 0; r < S; ++r) {
    const RankProgram& prog = sched.ranks[r];
    for (int d = 0; d < 2; ++d) {
      const auto& order = d == 0 ? prog.in_fwd : prog.in_bwd;
      for (std::size_t k = 0; k < order.size(); ++k)
        walks[r].in[d].pos[{order[k].chunk, order[k].micro}] = k;
    }
  }
  // Run rank r's next task; false while it waits on a message not yet sent.
  // With one stage, payloads are handed over locally and cost nothing.
  auto step = [&](std::size_t r) {
    Walk& w = walks[r];
    const PipeTask& tk = sched.ranks[r].tasks[w.pc];
    const int d = tk.kind == TaskKind::kRecvBwd ||
                  tk.kind == TaskKind::kBwdInput ||
                  tk.kind == TaskKind::kSendBwd;
    Chan& c = w.in[d];
    double compute = 0.0;
    switch (tk.kind) {
      case TaskKind::kRecvFwd:
      case TaskKind::kRecvBwd:
        if (S > 1) {
          const std::size_t k = c.pos.at({tk.chunk, tk.micro});
          while (c.posted.size() <= k) c.posted.push_back(w.clock);
        }
        break;
      case TaskKind::kFwd:
      case TaskKind::kBwdInput: {
        const bool local = d ? r == S - 1 && tk.chunk == sched.chunks - 1
                             : r == 0 && tk.chunk == 0;
        if (S > 1 && !local) {
          const std::size_t k = c.pos.at({tk.chunk, tk.micro});
          if (c.sent.size() <= k) return false;
          while (c.posted.size() <= k) c.posted.push_back(w.clock);
          w.clock = std::max(w.clock,
                             std::max(c.sent[k], c.posted[k]) + secs.hop_s);
        }
        compute = d ? secs.bwd_input_s : secs.fwd_s;
        w.held += d ? -1 : 1;
        w.peak = std::max(w.peak, w.held);
        break;
      }
      case TaskKind::kRecompute: compute = secs.fwd_s; break;
      case TaskKind::kBwdWeight: compute = secs.bwd_weight_s; break;
      case TaskKind::kSendFwd:
      case TaskKind::kSendBwd:
        if (S > 1) {
          const std::size_t dst = d ? (r + S - 1) % S : (r + 1) % S;
          walks[dst].in[d].sent.push_back(w.clock);
          w.clock += secs.send_s;
        }
        break;
    }
    w.clock += compute;
    w.busy += compute;
    return true;
  };

  for (bool moved = true; moved;) {
    moved = false;
    for (std::size_t r = 0; r < S; ++r) {
      const std::size_t n = sched.ranks[r].tasks.size();
      for (; walks[r].pc < n && step(r); ++walks[r].pc) moved = true;
    }
  }
  PipeTiming out;
  double busy = 0.0;
  for (std::size_t r = 0; r < S; ++r) {
    if (walks[r].pc < sched.ranks[r].tasks.size()) {
      throw std::logic_error("time_schedule: programs deadlock");
    }
    out.step_s = std::max(out.step_s, walks[r].clock);
    out.peak_micros = std::max(out.peak_micros, walks[r].peak);
    busy += walks[r].busy;
  }
  if (out.step_s > 0.0) out.bubble_fraction = 1.0 - busy / (S * out.step_s);
  return out;
}

}  // namespace ca::pp
