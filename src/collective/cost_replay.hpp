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
  std::uint16_t slot_of(Group& g);
  /// Before the first record after a flush: snapshot what must not move.
  void open_window();
  /// Throws if anything open_window() snapshot moved.
  void check_window() const;
  /// The evaluator, run by the last member to arrive at the flush.
  void settle_all();

  Group& scope_;
  int grank_;
  int scope_idx_;
  sim::Device& dev_;
  std::vector<Slot> groups_;
  std::vector<Record> stream_;
  double window_clock_ = 0.0;
};

}  // namespace ca::collective
