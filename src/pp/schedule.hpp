#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

namespace ca::pp {

/// Pipeline micro-batch schedules, all compiled by compile_schedule and run
/// by the one pp::Pipeline executor:
///   kFillDrain   — GPipe: all forwards, then all backwards
///   kOneFOneB    — PipeDream-flush: bounded in-flight micros
///   kInterleaved — Megatron interleaved virtual stages: V chunks per rank
///                  shrink the fill/drain
///   kZeroBubble  — backward split into dgrad/wgrad; deferred wgrad fills the
///                  drain bubble (ZB-H1-style)
enum class Schedule { kFillDrain, kOneFOneB, kInterleaved, kZeroBubble };

/// Canonical knob spelling ("fill_drain", "1f1b", "interleaved",
/// "zero_bubble") — the values CA_PP_SCHEDULE / `pp.schedule` accept.
constexpr const char* pipe_sched_name(Schedule s) {
  switch (s) {
    case Schedule::kFillDrain: return "fill_drain";
    case Schedule::kOneFOneB: return "1f1b";
    case Schedule::kInterleaved: return "interleaved";
    case Schedule::kZeroBubble: return "zero_bubble";
  }
  return "unknown";
}

/// Parse a knob spelling (also "gpipe" and "zb"); nullopt on anything else.
std::optional<Schedule> parse_pipe_sched(std::string_view name);

/// One executor instruction. A schedule compiles to a per-rank ordered list
/// of these; the executor walks the list and owns all channel/memory state
/// (DESIGN.md section 12).
enum class TaskKind : std::uint8_t {
  kRecvFwd,    ///< post activation recvs through message (chunk, micro)
  kFwd,        ///< run chunk forward for one micro-batch (holds its input)
  kSendFwd,    ///< async-send the forward output downstream
  kRecvBwd,    ///< post dy recvs through message (chunk, micro)
  kRecompute,  ///< re-run the chunk forward from the held input
  kBwdInput,   ///< dgrad: obtain dy (loss on the exit stage), compute dx
  kSendBwd,    ///< async-send dx upstream
  kBwdWeight,  ///< wgrad: accumulate parameter gradients (no-op if unsplit)
};

[[nodiscard]] const char* task_name(TaskKind k);

/// One task of one rank's program: act on micro `micro` of local chunk
/// `chunk` (virtual stage chunk * stages + rank).
struct PipeTask {
  TaskKind kind;
  std::int16_t chunk = 0;
  std::int16_t micro = 0;
};

/// A message tag on one of a rank's two incoming FIFO channels, named by the
/// *consumer*: the payload feeding (chunk, micro) on this rank.
struct MsgTag {
  std::int16_t chunk = 0;
  std::int16_t micro = 0;
};

/// Per-rank compiled program plus the arrival order of both incoming
/// channels. All forward traffic into rank s comes from stage (s-1) mod S
/// (the wrap channel S-1 -> 0 carries chunk transitions) and all backward
/// traffic from stage (s+1) mod S, each a single ordered FIFO; `in_fwd` /
/// `in_bwd` list the consumer tags in exactly the producer's send order, so
/// the executor can pre-post recvs FIFO-correctly even when its own
/// consumption order differs across chunks.
struct RankProgram {
  std::vector<PipeTask> tasks;
  std::vector<MsgTag> in_fwd;
  std::vector<MsgTag> in_bwd;
};

/// A fully compiled schedule: every rank's program for one training step of
/// `micros` micro-batches over `stages` ranks with `chunks` virtual stages
/// per rank. Immutable after compilation; shared across Pipeline instances
/// via the (schedule, stages, micros, chunks) cache.
struct PipeSchedule {
  Schedule kind = Schedule::kOneFOneB;
  int stages = 1;
  int micros = 1;
  int chunks = 1;
  std::vector<RankProgram> ranks;
};

/// Compile (or fetch from the process-wide cache) the program set for one
/// schedule shape. Thread/fiber-safe; the result is immutable and shared.
///
/// The compiler runs a deterministic greedy list-scheduling simulation over
/// the virtual-stage task DAG — F(vs,m) needs F(vs-1,m), B(vs,m) needs
/// B(vs+1,m) (or F(VS-1,m) at the exit), W(vs,m) needs B(vs,m) — with
/// per-schedule priorities and in-flight caps, then inserts recv-posting
/// markers. Guarantees, for every schedule: per (rank, chunk) the dgrad and
/// wgrad task sequences are micro-ascending (the bit-identity contract with
/// the serial oracle), and each program's send order matches its consumer's
/// recv-post order (the FIFO channel contract). Throws
/// std::invalid_argument on sizes below 1, or on `micros` / `chunks` above
/// INT16_MAX (the range of PipeTask::micro / chunk).
std::shared_ptr<const PipeSchedule> compile_schedule(Schedule kind, int stages,
                                                     int micros, int chunks);

/// Seconds per (chunk, micro) task and per message (kRecompute costs fwd_s;
/// a sender pays send_s, a message spends hop_s on the wire).
struct StageSeconds {
  double fwd_s = 0.0, bwd_input_s = 0.0, bwd_weight_s = 0.0;
  double send_s = 0.0, hop_s = 0.0;
};

/// One replayed step: the latest rank's finish, the idle share of the
/// stages * step_s rank-seconds, and the worst rank's peak_in_flight().
struct PipeTiming {
  double step_s = 0.0;
  double bubble_fraction = 0.0;
  int peak_micros = 0;
};

/// Replay `sched` on the executor's clock rules (DESIGN.md section 12): each
/// rank walks its program in order; compute tasks advance its clock; a send
/// stamps the message, then charges the sender send_s; a recv marker stamps
/// its post time; a consumer waits until max(send stamp, post stamp) + hop_s.
/// On a uniform fabric step_s equals the executed Cluster::max_clock() bit
/// for bit. Throws std::logic_error if the programs deadlock.
PipeTiming time_schedule(const PipeSchedule& sched, const StageSeconds& secs);

}  // namespace ca::pp
