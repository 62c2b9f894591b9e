// Tests for the fiber context switch under the tasks backend (DESIGN.md
// section 8): what a switch must carry besides the stack — the SSE/x87
// rounding controls and the C++ runtime's exception state — and that
// exception unwinding stays on the fiber's own stack after the fiber has
// migrated between worker threads.

#include <gtest/gtest.h>

#include <array>
#include <cfenv>
#include <cstdint>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/scheduler.hpp"

namespace sim = ca::sim;

namespace {

/// Generation barrier for fibers (parks them through SimCv, so every
/// arrival is a switch out and every release a switch back in, possibly on
/// another worker). Each arriver casts a vote; all of them get the AND of
/// the generation's votes back, so fibers leave a loop in lockstep.
class FiberBarrier {
 public:
  explicit FiberBarrier(int n) : n_(n) {}

  bool arrive_and_wait(bool vote) {
    std::unique_lock<std::mutex> lk(mu_);
    all_ = all_ && vote;
    if (++count_ == n_) {
      verdict_ = all_;
      all_ = true;
      count_ = 0;
      ++gen_;
      cv_.notify_all();
      return verdict_;
    }
    const std::uint64_t gen = gen_;
    cv_.wait(lk, [&] { return gen_ != gen; });
    // Stable until this fiber arrives again: the next generation needs us.
    return verdict_;
  }

 private:
  const int n_;
  int count_ = 0;
  std::uint64_t gen_ = 0;
  bool all_ = true;
  bool verdict_ = true;
  std::mutex mu_;
  sim::SimCv cv_;
};

constexpr std::array<int, 4> kModes = {FE_TONEAREST, FE_UPWARD, FE_DOWNWARD,
                                       FE_TOWARDZERO};

/// 1/3 in single precision: an SSE division whose last bit depends on the
/// MXCSR rounding mode.
float one_third() {
  volatile float one = 1.0f;
  volatile float three = 3.0f;
  return one / three;
}

void run_fibers(int n, int workers, const std::function<void(int)>& body) {
  sim::TaskScheduler::Options opts;
  opts.workers = workers;
  sim::TaskScheduler::run(n, body, nullptr, opts);
}

}  // namespace

TEST(FiberSwitch, RoundingModeStaysWithItsFiber) {
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  // The expected quotient under each mode, computed on this thread.
  std::array<float, kModes.size()> want{};
  for (std::size_t m = 0; m < kModes.size(); ++m) {
    std::fesetround(kModes[m]);
    want[m] = one_third();
  }
  std::fesetround(FE_TONEAREST);
  ASSERT_NE(want[1], want[2]);  // the probe can tell the modes apart

  constexpr int kFibers = 12;
  constexpr int kRounds = 40;
  for (const int workers : {1, 3}) {
    FiberBarrier barrier(kFibers);
    std::vector<int> bad(kFibers, 0);
    run_fibers(kFibers, workers, [&](int r) {
      const auto m = static_cast<std::size_t>(r) % kModes.size();
      // Rank 0 mod 4 never touches the mode: it must keep the creator's
      // round-to-nearest even when it runs right after an UPWARD fiber.
      if (kModes[m] != FE_TONEAREST) std::fesetround(kModes[m]);
      for (int round = 0; round < kRounds; ++round) {
        (void)barrier.arrive_and_wait(true);
        // x87 control word (what fegetround reads) and MXCSR (what the SSE
        // division obeys) must both have come back with this fiber.
        if (std::fegetround() != kModes[m] || one_third() != want[m]) {
          ++bad[static_cast<std::size_t>(r)];
        }
      }
    });
    for (int r = 0; r < kFibers; ++r) {
      EXPECT_EQ(bad[static_cast<std::size_t>(r)], 0)
          << "fiber " << r << " workers " << workers;
    }
  }
  // Fibers never ran on this thread; its mode is untouched.
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
  EXPECT_EQ(one_third(), want[0]);
}

namespace {

struct RankError : std::runtime_error {
  explicit RankError(int r)
      : std::runtime_error("rank " + std::to_string(r)), rank(r) {}
  int rank;
};

[[noreturn]] __attribute__((noinline)) void throw_rank(int r) {
  throw RankError(r);
}

/// The hosting worker's id. std::this_thread::get_id() is pthread_self(),
/// which glibc declares const, so the compiler may reuse a value read before
/// a switch; calling through a volatile pointer forces a fresh read.
std::thread::id (*volatile hosting_thread)() = [] {
  return std::this_thread::get_id();
};

}  // namespace

TEST(FiberSwitch, ExceptionAfterMigrationCaughtByOwnHandler) {
  constexpr int kFibers = 12;
  constexpr int kMaxRounds = 5000;
  FiberBarrier barrier(kFibers);
  std::vector<int> caught(kFibers, -1);
  std::vector<int> migrated(kFibers, 0);
  run_fibers(kFibers, 3, [&](int r) {
    const auto u = static_cast<std::size_t>(r);
    try {
      // Park until every fiber has resumed on a worker other than the one
      // it started on (the whole group decides together, via the votes).
      const std::thread::id first = hosting_thread();
      bool moved = false;
      for (int round = 0; round < kMaxRounds; ++round) {
        // Let the other workers in even on a single-core host.
        std::this_thread::yield();
        if (barrier.arrive_and_wait(moved)) break;
        moved = moved || hosting_thread() != first;
      }
      migrated[u] = moved ? 1 : 0;
      // The try block was entered on the first worker; the throw happens
      // on whichever worker hosts the fiber now and must unwind this
      // fiber's stack to this fiber's handler, not the worker's.
      throw_rank(r);
    } catch (const RankError& e) {
      caught[u] = e.rank;
    }
  });
  int moved = 0;
  for (int r = 0; r < kFibers; ++r) {
    EXPECT_EQ(caught[static_cast<std::size_t>(r)], r) << "fiber " << r;
    moved += migrated[static_cast<std::size_t>(r)];
  }
  EXPECT_GT(moved, 0) << "no fiber changed workers; the test did not "
                         "exercise migration";
}

TEST(FiberSwitch, RethrowFromHandlerAfterMigration) {
  // The exception a handler is running for lives in the C++ runtime's
  // per-thread state. A fiber that parks inside the handler (as an elastic
  // recovery does while survivors agree) and resumes on another worker
  // must still find it: `throw;` there would otherwise terminate.
  constexpr int kFibers = 12;
  constexpr int kMaxRounds = 5000;
  FiberBarrier barrier(kFibers);
  std::vector<int> caught(kFibers, -1);
  std::vector<int> migrated(kFibers, 0);
  std::vector<int> in_flight(kFibers, -1);
  run_fibers(kFibers, 3, [&](int r) {
    const auto u = static_cast<std::size_t>(r);
    try {
      try {
        throw_rank(r);
      } catch (const RankError&) {
        const std::thread::id first = hosting_thread();
        bool moved = false;
        for (int round = 0; round < kMaxRounds; ++round) {
          std::this_thread::yield();
          if (barrier.arrive_and_wait(moved)) break;
          moved = moved || hosting_thread() != first;
        }
        migrated[u] = moved ? 1 : 0;
        in_flight[u] = std::uncaught_exceptions();
        throw;
      }
    } catch (const RankError& e) {
      caught[u] = e.rank;
    }
  });
  int moved = 0;
  for (int r = 0; r < kFibers; ++r) {
    const auto u = static_cast<std::size_t>(r);
    EXPECT_EQ(caught[u], r) << "fiber " << r;
    EXPECT_EQ(in_flight[u], 0) << "fiber " << r;
    moved += migrated[u];
  }
  EXPECT_GT(moved, 0) << "no fiber changed workers; the test did not "
                         "exercise migration";
}
