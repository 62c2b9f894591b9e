#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "sim/cluster.hpp"
#include "sim/scheduler.hpp"
#include "tensor/dtype.hpp"

namespace ca::collective {

class P2pChannel;

/// Handle to a pre-posted receive (P2pChannel::irecv) — the analogue of an
/// MPI_Irecv request. Posting records the receiver's clock; `wait()` performs
/// the actual dequeue/copy and charges the receiver
/// `max(clock, max(send_clock, post_clock) + transfer_time)`: the NIC makes
/// progress from the moment the recv was posted, so transfer time that
/// elapsed under subsequent compute is hidden. Waits on one channel must
/// happen in post order (the channel is an ordered FIFO).
class RecvHandle {
 public:
  RecvHandle() = default;

  /// Receive the matching message (blocking until one arrives). Idempotent.
  void wait();
  [[nodiscard]] bool valid() const { return chan_ != nullptr; }

 private:
  friend class P2pChannel;
  RecvHandle(P2pChannel* chan, float* ptr, std::int64_t count,
             std::int64_t bytes, double post_clock,
             tensor::Dtype wire = tensor::Dtype::kF32)
      : chan_(chan), ptr_(ptr), count_(count), bytes_(bytes),
        post_clock_(post_clock), wire_(wire) {}

  P2pChannel* chan_ = nullptr;
  float* ptr_ = nullptr;
  std::int64_t count_ = 0;
  std::int64_t bytes_ = 0;
  double post_clock_ = 0.0;
  tensor::Dtype wire_ = tensor::Dtype::kF32;
  bool done_ = false;
};

/// Point-to-point channel for one ordered (src, dst) device pair — the
/// primitive under pipeline-stage activation transfer and ring
/// self-attention. Messages form an unbounded FIFO (like NCCL's buffered
/// isend), with two send flavours:
///
///  * send / send_bytes — synchronous rendezvous (MPI_Ssend): blocks until
///    the matching receive has consumed the payload; both endpoint clocks
///    advance to max(sender, receiver) + transfer time.
///  * send_async / send_async_bytes — eagerly buffered: copies the payload
///    into the channel and returns immediately; the sender's clock advances
///    by the injection latency only, and the receiver finishes at
///    max(arrival, receiver clock) + transfer time. Pipeline schedules rely
///    on this: stages send to each other simultaneously (1F1B) and wrap
///    multiple in-flight activations around the ring (interleaved chunks).
class P2pChannel {
 public:
  P2pChannel(sim::Cluster& cluster, int src, int dst);
  ~P2pChannel();
  P2pChannel(const P2pChannel&) = delete;
  P2pChannel& operator=(const P2pChannel&) = delete;

  /// Blocking (rendezvous) send of `data` (may be empty).
  void send(std::span<const float> data);
  /// Buffered send: returns as soon as the payload is parked in the channel.
  void send_async(std::span<const float> data);
  /// Blocking receive into `data`; sizes must match the paired send.
  void recv(std::span<float> data);
  /// Pre-posted receive: records the current clock and returns immediately.
  /// The payload lands in `data` when the handle is waited; transfer time is
  /// charged from the post, not the wait (overlap with compute is free).
  [[nodiscard]] RecvHandle irecv(std::span<float> data);

  /// Wire-dtype twins: the payload crosses the interconnect in `wire`
  /// elements (count * dtype_bytes(wire) modeled bytes, rounded once on the
  /// sending side via tensor::wire_round_trip) and lands back as fp32. Both
  /// endpoints must name the same wire dtype — pipeline stages resolve it
  /// from ParallelContext::comm_dtype(). kF32 is bit-for-bit the plain path.
  void send_async(std::span<const float> data, tensor::Dtype wire);
  void recv(std::span<float> data, tensor::Dtype wire);
  [[nodiscard]] RecvHandle irecv(std::span<float> data, tensor::Dtype wire);

  /// Cost-model-only twins (no payload).
  void send_bytes(std::int64_t bytes);
  void send_async_bytes(std::int64_t bytes);
  void recv_bytes(std::int64_t bytes);

 private:
  struct Message {
    const float* src_ptr = nullptr;  // rendezvous payload (sender's memory)
    std::vector<float> buffer;       // async payload copy
    std::int64_t count = 0;
    std::int64_t bytes = 0;
    double send_clock = 0.0;
    bool sync = false;
    bool consumed = false;
    double finish_clock = 0.0;
    tensor::Dtype wire = tensor::Dtype::kF32;
  };

  friend class RecvHandle;

  void do_send(const float* ptr, std::int64_t count, std::int64_t bytes,
               bool async, tensor::Dtype wire);
  /// `ready_clock`: the time the receiver became ready for this message
  /// (current clock for blocking recv, post time for pre-posted irecv).
  void do_recv(float* ptr, std::int64_t count, std::int64_t bytes,
               double ready_clock, tensor::Dtype wire);

  /// Watchdog exit for a wait whose peer died: charge the budget, leave a
  /// fault span, raise CommTimeoutError. Called with m_ released.
  [[noreturn]] void abort_timeout(int rank, const char* op,
                                  std::int64_t bytes);

  sim::Cluster& cluster_;
  int src_, dst_;

  std::mutex m_;
  // Hybrid condvar: a blocked endpoint parks its fiber under the tasks
  // backend instead of holding an OS thread (scheduler yield, DESIGN.md
  // section 8); under the threads backend it is a plain condition variable.
  sim::SimCv cv_;
  std::deque<std::shared_ptr<Message>> queue_;
};

}  // namespace ca::collective
