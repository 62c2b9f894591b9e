#include "collective/p2p.hpp"

#include <algorithm>
#include <cassert>

#include "collective/cost.hpp"
#include "tensor/convert.hpp"

namespace ca::collective {

P2pChannel::P2pChannel(sim::Cluster& cluster, int src, int dst)
    : cluster_(cluster), src_(src), dst_(dst) {
  cluster_.fault_state().register_waker(this, [this] {
    std::scoped_lock lock(m_);
    cv_.notify_all();
  });
}

P2pChannel::~P2pChannel() { cluster_.fault_state().unregister_waker(this); }

void P2pChannel::abort_timeout(int rank, const char* op, std::int64_t bytes) {
  auto& fs = cluster_.fault_state();
  auto& dev = cluster_.device(rank);
  const double budget = fs.watchdog();
  const double t0 = dev.clock();
  dev.advance_clock(budget);
  if (obs::TraceBuffer* tb = dev.trace()) {
    tb->add(obs::TraceEvent{"p2p.watchdog", obs::Category::kFault, t0,
                            t0 + budget, t0, bytes, 0.0, 0.0, {}, {}});
  }
  throw sim::CommTimeoutError(rank, "p2p", op, bytes, budget, fs.cause());
}

void P2pChannel::do_send(const float* ptr, std::int64_t count,
                         std::int64_t bytes, bool async, tensor::Dtype wire) {
  auto msg = std::make_shared<Message>();
  msg->count = count;
  msg->bytes = bytes;
  msg->send_clock = cluster_.device(src_).clock();
  msg->sync = !async;
  msg->wire = wire;
  auto& src_dev = cluster_.device(src_);
  if (async) {
    if (ptr != nullptr && count > 0) {
      msg->buffer.assign(ptr, ptr + count);
      // Round once on the sending side: the parked copy already holds the
      // values the payload takes after the reduced-precision wire.
      tensor::wire_round_trip(wire, msg->buffer.data(), msg->buffer.data(),
                              count);
    }
    // eager injection: the sender only pays the injection latency
    src_dev.advance_clock(cluster_.topology().latency());
    src_dev.add_bytes_sent(bytes);
    if (obs::TraceBuffer* tb = src_dev.trace()) {
      tb->add(obs::TraceEvent{"p2p.send", obs::Category::kComm,
                              msg->send_clock, src_dev.clock(),
                              msg->send_clock, bytes, 0.0, 0.0, {},
                              tensor::dtype_name(wire)});
    }
    std::scoped_lock lock(m_);
    queue_.push_back(std::move(msg));
    cv_.notify_all();
    return;
  }
  msg->src_ptr = ptr;
  sim::FaultState& fs = cluster_.fault_state();
  std::unique_lock lock(m_);
  queue_.push_back(msg);
  cv_.notify_all();
  cv_.wait(lock, [&] { return msg->consumed || fs.aborted(); });
  if (!msg->consumed) {
    // Receiver died before matching this send: withdraw the unconsumed
    // message so a later region never sees it, then raise the timeout.
    std::erase(queue_, msg);
    lock.unlock();
    abort_timeout(src_, "send", bytes);
  }
  // Receiver computed the common finish time; adopt it (synchronous send).
  src_dev.set_clock(msg->finish_clock);
  src_dev.add_bytes_sent(bytes);
  if (obs::TraceBuffer* tb = src_dev.trace()) {
    tb->add(obs::TraceEvent{"p2p.send", obs::Category::kComm, msg->send_clock,
                            msg->finish_clock, msg->send_clock, bytes, 0.0,
                            0.0, {}, {}});
  }
}

void P2pChannel::do_recv(float* ptr, std::int64_t count, std::int64_t bytes,
                         double ready_clock, tensor::Dtype wire) {
  std::shared_ptr<Message> msg;
  {
    sim::FaultState& fs = cluster_.fault_state();
    std::unique_lock lock(m_);
    cv_.wait(lock, [&] { return !queue_.empty() || fs.aborted(); });
    if (queue_.empty()) {
      // Sender died with nothing in flight; a parked message is still
      // delivered (it was fully buffered before the death).
      lock.unlock();
      abort_timeout(dst_, "recv", bytes);
    }
    msg = queue_.front();
    queue_.pop_front();
  }
  assert(msg->count == count);
  assert(msg->bytes == bytes);
  assert(msg->wire == wire);
  const float* src = msg->sync ? msg->src_ptr : msg->buffer.data();
  if (ptr != nullptr && count > 0 && src != nullptr) {
    std::copy(src, src + count, ptr);
    // Async payloads were rounded at send; the round trip is idempotent, so
    // applying it here also covers the rendezvous path (which copies out of
    // the sender's still-fp32 memory).
    tensor::wire_round_trip(wire, ptr, ptr, count);
  }
  auto& dst_dev = cluster_.device(dst_);
  // The transfer starts once both the payload is in flight and the receiver
  // was ready for it. For a pre-posted recv ready_clock is the post time, so
  // transfer time hidden under the receiver's subsequent compute is free.
  const double t_start = std::max(msg->send_clock, ready_clock);
  const double finish =
      t_start + p2p_time(cluster_.topology(), src_, dst_, bytes);
  dst_dev.set_clock(std::max(dst_dev.clock(), finish));
  if (obs::TraceBuffer* tb = dst_dev.trace()) {
    // t_issue = when the recv was posted; the span itself covers the wire
    // transfer (which may sit entirely under the receiver's compute).
    tb->add(obs::TraceEvent{"p2p.recv", obs::Category::kComm, t_start, finish,
                            ready_clock, bytes, 0.0, 0.0, {},
                            tensor::dtype_name(wire)});
  }
  if (msg->sync) {
    std::scoped_lock lock(m_);
    msg->finish_clock = finish;
    msg->consumed = true;
    cv_.notify_all();
  }
}

void P2pChannel::send(std::span<const float> data) {
  do_send(data.data(), static_cast<std::int64_t>(data.size()),
          static_cast<std::int64_t>(data.size()) * 4, /*async=*/false,
          tensor::Dtype::kF32);
}

void P2pChannel::send_async(std::span<const float> data) {
  do_send(data.data(), static_cast<std::int64_t>(data.size()),
          static_cast<std::int64_t>(data.size()) * 4, /*async=*/true,
          tensor::Dtype::kF32);
}

void P2pChannel::recv(std::span<float> data) {
  do_recv(data.data(), static_cast<std::int64_t>(data.size()),
          static_cast<std::int64_t>(data.size()) * 4,
          cluster_.device(dst_).clock(), tensor::Dtype::kF32);
}

RecvHandle P2pChannel::irecv(std::span<float> data) {
  return {this, data.data(), static_cast<std::int64_t>(data.size()),
          static_cast<std::int64_t>(data.size()) * 4,
          cluster_.device(dst_).clock()};
}

void P2pChannel::send_async(std::span<const float> data, tensor::Dtype wire) {
  const auto count = static_cast<std::int64_t>(data.size());
  do_send(data.data(), count, count * tensor::dtype_bytes(wire),
          /*async=*/true, wire);
}

void P2pChannel::recv(std::span<float> data, tensor::Dtype wire) {
  const auto count = static_cast<std::int64_t>(data.size());
  do_recv(data.data(), count, count * tensor::dtype_bytes(wire),
          cluster_.device(dst_).clock(), wire);
}

RecvHandle P2pChannel::irecv(std::span<float> data, tensor::Dtype wire) {
  const auto count = static_cast<std::int64_t>(data.size());
  return {this, data.data(), count, count * tensor::dtype_bytes(wire),
          cluster_.device(dst_).clock(), wire};
}

void RecvHandle::wait() {
  if (chan_ == nullptr || done_) return;
  chan_->do_recv(ptr_, count_, bytes_, post_clock_, wire_);
  done_ = true;
}

void P2pChannel::send_bytes(std::int64_t bytes) {
  do_send(nullptr, 0, bytes, /*async=*/false, tensor::Dtype::kF32);
}
void P2pChannel::send_async_bytes(std::int64_t bytes) {
  do_send(nullptr, 0, bytes, /*async=*/true, tensor::Dtype::kF32);
}
void P2pChannel::recv_bytes(std::int64_t bytes) {
  do_recv(nullptr, 0, bytes, cluster_.device(dst_).clock(),
          tensor::Dtype::kF32);
}

}  // namespace ca::collective
