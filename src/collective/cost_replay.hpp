#pragma once

#include <cstdint>
#include <vector>

#include "collective/cost.hpp"
#include "collective/group.hpp"
#include "sim/device.hpp"

namespace ca::collective {

/// Deferred cost accounting for cost-only models (tp::SimTransformer).
/// Instead of a rendezvous per modeled collective, each rank appends compact
/// records of its compute and its account-style collectives, and flush()
/// settles every member's stream in one rendezvous on the scope group: the
/// last member to arrive runs a discrete-event evaluator over all streams,
/// then releases the others (DESIGN.md section 6, "Cost replay").
///
/// The evaluator walks each rank's stream in program order, charging compute
/// records through Device::compute_*, and matches each group's collectives
/// in issue order. Once every member of a group has arrived at its next op,
/// the op starts at the max of their entry clocks, is priced once with the
/// algorithm an account_* call would select, and every member is charged
/// through Group::settle — lane, bytes, metrics and trace span — so clocks,
/// bytes, events and metric values are bit-identical to the live account_*
/// path.
///
/// Contract (checked; violations throw std::logic_error):
/// * every member of `scope` owns a CostReplay on it and calls flush()
///   symmetrically, with symmetric streams in between;
/// * every recorded group is a subset of `scope`;
/// * between a record and the next flush, neither this rank's device clock
///   nor a recorded group sees live traffic, and a recorded group has no
///   pending async op of this rank.
///
/// With a fault injector installed, records execute live at once (compute on
/// the device, collectives through the account_* rendezvous), so fail-stop,
/// straggler and link-degradation semantics are exactly the live ones.
/// Injectors are installed between SPMD regions, so whether a window records
/// or executes live is decided once, when it opens.
class CostReplay {
 public:
  enum class Precision : std::uint8_t { kFp16, kFp32 };

  /// Recorder of global rank `grank`, a member of `scope`.
  CostReplay(Group& scope, int grank);

  CostReplay(const CostReplay&) = delete;
  CostReplay& operator=(const CostReplay&) = delete;

  /// `flops` of math at `precision` (Device::compute_fp16 / compute_fp32).
  void compute(double flops, Precision precision = Precision::kFp16);
  /// The account_* collective `op` moving `bytes` on `g`.
  void collective(Group& g, Op op, std::int64_t bytes);
  /// Settle every member's stream: one watchdog-guarded rendezvous on the
  /// scope group. Returns with this rank's clock and counters charged.
  void flush();

 private:
  friend struct detail::ReplayTables;

  /// One stream entry: 16 bytes, so a layer's stream stays small.
  struct Record {
    enum class Kind : std::uint8_t { kFp16, kFp32, kCollective };
    Kind kind;
    std::uint8_t op;       // kCollective: the Op
    std::uint16_t group;   // kCollective: index into groups_
    std::uint64_t amount;  // flops (bits of a double) or bytes
  };
  static_assert(sizeof(Record) == 16);

  /// A group this rank records on, and the liveness snapshot flush checks.
  struct Slot {
    Group* g;
    int idx;           // this rank's index in g
    std::int64_t seq;  // g's op count for this rank when the window opened
  };

  bool live() const { return scope_.cluster().fault_injector() != nullptr; }
  /// True when the next record is deferred to the flush; false when it must
  /// execute live. Opens the window on the first record after a flush.
  bool recording();
  /// g's slot; a new slot is checked for pending async ops once, here.
  std::uint16_t slot_of(Group& g);
  /// Before the first record after a flush: snapshot what must not move,
  /// and reject async ops pending on any known group (they would run live
  /// inside the window).
  void open_window();
  /// Throws if member `idx` of `g` has async ops pending.
  void check_no_pending(const Group& g, int idx) const;
  /// Throws if anything open_window() snapshot moved.
  void check_window() const;
  /// The evaluator, run by the last member to arrive at the flush.
  void settle_all();

  Group& scope_;
  int grank_;
  int scope_idx_;
  sim::Device& dev_;
  std::uint64_t id_;  // unique per recorder, so kept tables spot a new one
  std::vector<Slot> groups_;
  std::uint16_t last_slot_ = 0;  // slot_of's last hit
  std::vector<Record> stream_;
  double window_clock_ = 0.0;
};

namespace detail {

/// The flush evaluator's tables for one scope group (Group::replay_tables_).
/// They outlive a flush: the walk state is reset each time, and the
/// group-to-matcher map is extended only when a member's slot list grew or
/// its recorder was replaced, so a steady-state flush allocates nothing.
struct ReplayTables {
  /// A member that reached a matcher's op.
  struct Arrival {
    int member;  // scope index
    int idx;     // index in the matched group
  };
  /// The op a recorded group is assembling (its next op in issue order) and
  /// the members that have reached it.
  struct Match {
    Group* g = nullptr;
    std::int64_t index = 0;        // ops completed on g in this flush
    std::vector<Arrival> arrived;  // in arrival order
    Op op = Op::kAllReduce;
    std::int64_t bytes = 0;
    double t_start = 0.0;          // max of the arrivals' entry clocks
  };

  explicit ReplayTables(std::size_t n)
      : recs(n), ids(n, 0), match_of(n), pos(n) {}

  /// Point the tables at this flush's recorders and map their new slots.
  void attach(std::size_t m, CostReplay* rec);

  std::vector<CostReplay*> recs;  // per scope member
  std::vector<std::uint64_t> ids;  // recorder each match_of row maps
  std::vector<Match> matches;      // one per distinct recorded group
  // match_of[m][slot]: member m's group slot -> its matcher.
  std::vector<std::vector<std::size_t>> match_of;
  std::vector<std::size_t> pos;  // per member: next record to walk
  std::vector<int> ready;        // members able to walk on
};

}  // namespace detail

}  // namespace ca::collective
