#include "collective/cost_replay.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>
#include <string>

namespace ca::collective {

namespace {

std::string rank_list(const std::vector<int>& granks) {
  std::string s = "[";
  for (std::size_t i = 0; i < granks.size(); ++i) {
    if (i > 0) s += ", ";
    s += std::to_string(granks[i]);
  }
  return s + "]";
}

std::string describe(Op op, std::int64_t bytes) {
  return std::string(op_name(op)) + " of " + std::to_string(bytes) + " B";
}

}  // namespace

CostReplay::CostReplay(Group& scope, int grank)
    : scope_(scope),
      grank_(grank),
      scope_idx_(scope.index_of(grank)),
      dev_(scope.cluster().device(grank)) {}

void CostReplay::compute(double flops, Precision precision) {
  if (live()) {
    if (precision == Precision::kFp32) {
      dev_.compute_fp32(flops);
    } else {
      dev_.compute_fp16(flops);
    }
    return;
  }
  if (stream_.empty()) open_window();
  stream_.push_back(Record{precision == Precision::kFp32 ? Record::Kind::kFp32
                                                         : Record::Kind::kFp16,
                           0, 0, std::bit_cast<std::uint64_t>(flops)});
}

void CostReplay::collective(Group& g, Op op, std::int64_t bytes) {
  if (g.size() == 1) return;  // account_* charges nothing on a singleton
  if (live()) {
    g.account(grank_, op, bytes);
    return;
  }
  if (stream_.empty()) open_window();
  const std::uint16_t s = slot_of(g);
  if (!g.members_[static_cast<std::size_t>(groups_[s].idx)].pending.empty()) {
    throw std::logic_error("cost replay: rank " + std::to_string(grank_) +
                           " records " + describe(op, bytes) + " on group '" +
                           g.name() + "' with async ops still pending there");
  }
  stream_.push_back(Record{Record::Kind::kCollective,
                           static_cast<std::uint8_t>(op), s,
                           static_cast<std::uint64_t>(bytes)});
}

std::uint16_t CostReplay::slot_of(Group& g) {
  for (std::size_t s = 0; s < groups_.size(); ++s) {
    if (groups_[s].g == &g) return static_cast<std::uint16_t>(s);
  }
  for (const int r : g.ranks()) {
    if (!scope_.contains(r)) {
      throw std::logic_error("cost replay: group '" + g.name() +
                             "' reaches rank " + std::to_string(r) +
                             " outside the scope group '" + scope_.name() +
                             "'");
    }
  }
  if (groups_.size() >= std::numeric_limits<std::uint16_t>::max()) {
    throw std::logic_error("cost replay: too many distinct groups");
  }
  const int idx = g.index_of(grank_);
  groups_.push_back(
      Slot{&g, idx, g.members_[static_cast<std::size_t>(idx)].seq});
  return static_cast<std::uint16_t>(groups_.size() - 1);
}

void CostReplay::open_window() {
  window_clock_ = dev_.clock();
  for (Slot& s : groups_) {
    s.seq = s.g->members_[static_cast<std::size_t>(s.idx)].seq;
  }
}

void CostReplay::check_window() const {
  if (stream_.empty()) return;
  const std::string who = "cost replay: rank " + std::to_string(grank_);
  for (const Slot& s : groups_) {
    const auto& m = s.g->members_[static_cast<std::size_t>(s.idx)];
    if (m.seq != s.seq) {
      throw std::logic_error(who + ": live collective on group '" +
                             s.g->name() + "' while records were pending");
    }
    if (!m.pending.empty()) {
      throw std::logic_error(who + ": async ops pending on group '" +
                             s.g->name() + "' at flush");
    }
  }
  if (dev_.clock() != window_clock_) {
    throw std::logic_error(who +
                           ": device clock moved while records were pending");
  }
}

void CostReplay::flush() {
  if (live()) return;  // every record already executed
  check_window();
  auto& me = scope_.members_[static_cast<std::size_t>(scope_idx_)];
  me.cur_op = "cost_replay";
  me.cur_bytes = 0;
  me.replay = this;
  // Withdrawn on every exit, so no later rendezvous reads a stale recorder.
  struct Unpost {
    Group::MemberState& m;
    ~Unpost() { m.replay = nullptr; }
  } unpost{me};
  if (scope_.size() == 1) {
    settle_all();
  } else {
    try {
      scope_.barrier_.arrive_and_wait([this] { settle_all(); });
    } catch (const sim::RendezvousAborted&) {
      scope_.watchdog_expired(scope_idx_);
    }
  }
  stream_.clear();
}

void CostReplay::settle_all() {
  const auto n = static_cast<std::size_t>(scope_.size());
  std::vector<CostReplay*> recs(n);
  for (std::size_t m = 0; m < n; ++m) {
    recs[m] = scope_.members_[m].replay;
    if (recs[m] == nullptr) {
      throw std::logic_error(
          "cost replay: rank " + std::to_string(scope_.ranks()[m]) +
          " reached the flush rendezvous on group '" + scope_.name() +
          "' without flushing");
    }
  }

  // One matcher per distinct recorded group: the op it is assembling (the
  // group's next op in issue order) and the members that have reached it.
  struct Arrival {
    int member;  // scope index
    int idx;     // index in the matched group
  };
  struct Match {
    Group* g = nullptr;
    std::int64_t index = 0;        // ops completed on g in this flush
    std::vector<Arrival> arrived;  // in arrival order
    Op op = Op::kAllReduce;
    std::int64_t bytes = 0;
    double t_start = 0.0;          // max of the arrivals' entry clocks
  };
  std::vector<Match> matches;
  // match_of[m][slot]: member m's group slot -> its matcher.
  std::vector<std::vector<std::size_t>> match_of(n);
  for (std::size_t m = 0; m < n; ++m) {
    for (const Slot& s : recs[m]->groups_) {
      auto it = std::find_if(matches.begin(), matches.end(),
                             [&](const Match& x) { return x.g == s.g; });
      if (it == matches.end()) {
        it = matches.emplace(matches.end());
        it->g = s.g;
      }
      match_of[m].push_back(static_cast<std::size_t>(it - matches.begin()));
    }
  }

  auto granks = [&](const std::vector<Arrival>& arrivals) {
    std::vector<int> out;
    for (const Arrival& a : arrivals) {
      out.push_back(recs[static_cast<std::size_t>(a.member)]->grank_);
    }
    std::sort(out.begin(), out.end());
    return out;
  };

  // Discrete-event walk: run a member through its stream until it blocks on
  // a collective its peers have not reached; completing an op unblocks them.
  // Each rank's charges happen in its program order, and an op's start
  // depends only on its members' entry clocks, so the result does not
  // depend on the order members are walked in.
  std::vector<std::size_t> pos(n, 0);
  std::vector<int> ready(n);
  for (std::size_t m = 0; m < n; ++m) ready[m] = static_cast<int>(n - 1 - m);
  while (!ready.empty()) {
    const auto m = static_cast<std::size_t>(ready.back());
    ready.pop_back();
    CostReplay& r = *recs[m];
    while (pos[m] < r.stream_.size()) {
      const Record& rec = r.stream_[pos[m]++];
      if (rec.kind == Record::Kind::kFp16) {
        r.dev_.compute_fp16(std::bit_cast<double>(rec.amount));
        continue;
      }
      if (rec.kind == Record::Kind::kFp32) {
        r.dev_.compute_fp32(std::bit_cast<double>(rec.amount));
        continue;
      }
      const auto op = static_cast<Op>(rec.op);
      const auto bytes = static_cast<std::int64_t>(rec.amount);
      Match& x = matches[match_of[m][rec.group]];
      if (x.arrived.empty()) {
        x.op = op;
        x.bytes = bytes;
        x.t_start = r.dev_.clock();
      } else if (x.op != op || x.bytes != bytes) {
        throw std::logic_error(
            "cost replay: asymmetric streams on group '" + x.g->name() +
            "' at op #" + std::to_string(x.index) + ": rank " +
            std::to_string(r.grank_) + " records " + describe(op, bytes) +
            ", ranks " + rank_list(granks(x.arrived)) + " still waiting in " +
            describe(x.op, x.bytes));
      } else {
        x.t_start = std::max(x.t_start, r.dev_.clock());
      }
      x.arrived.push_back(
          Arrival{static_cast<int>(m), r.groups_[rec.group].idx});
      if (std::cmp_less(x.arrived.size(), x.g->size())) break;  // blocked

      // Complete: price once, charge every member through settle.
      const Group::Priced priced = x.g->price_account(x.op, x.bytes);
      for (const Arrival& a : x.arrived) {
        recs[static_cast<std::size_t>(a.member)]->dev_.set_clock(
            x.g->settle(a.idx, x.t_start, priced));
        if (static_cast<std::size_t>(a.member) != m) ready.push_back(a.member);
      }
      x.arrived.clear();
      ++x.index;
    }
  }

  for (const Match& x : matches) {
    if (x.arrived.empty()) continue;
    const std::vector<int> waiting = granks(x.arrived);
    std::vector<int> missing;
    for (const int g : x.g->ranks()) {
      if (std::find(waiting.begin(), waiting.end(), g) == waiting.end()) {
        missing.push_back(g);
      }
    }
    throw std::logic_error(
        "cost replay: asymmetric streams on group '" + x.g->name() +
        "' at op #" + std::to_string(x.index) + " (" +
        describe(x.op, x.bytes) + "): ranks " + rank_list(waiting) +
        " still waiting, ranks " + rank_list(missing) + " never arrive");
  }
}

}  // namespace ca::collective
