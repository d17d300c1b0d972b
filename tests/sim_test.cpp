// Unit tests for the discrete-event simulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/simulator.h"
#include "util/rng.h"

namespace doxlab::sim {
namespace {

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(30, [&] { order.push_back(3); });
  sim.schedule(10, [&] { order.push_back(1); });
  sim.schedule(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulator, TiesBreakInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(10, [&] { order.push_back(1); });
  sim.schedule(10, [&] { order.push_back(2); });
  sim.schedule(10, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator sim;
  sim.schedule(100, [] {});
  sim.run();
  bool fired = false;
  sim.schedule(-50, [&] { fired = true; });
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now(), 100);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  Timer t = sim.schedule(10, [&] { fired = true; });
  EXPECT_TRUE(t.armed());
  t.cancel();
  EXPECT_FALSE(t.armed());
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelAfterFireIsNoop) {
  Simulator sim;
  int count = 0;
  Timer t = sim.schedule(10, [&] { ++count; });
  sim.run();
  EXPECT_FALSE(t.armed());
  t.cancel();
  sim.run();
  EXPECT_EQ(count, 1);
}

TEST(Simulator, ReentrantSchedulingFromCallback) {
  Simulator sim;
  std::vector<SimTime> times;
  std::function<void()> tick = [&] {
    times.push_back(sim.now());
    if (times.size() < 3) sim.schedule(5, tick);
  };
  sim.schedule(0, tick);
  sim.run();
  EXPECT_EQ(times, (std::vector<SimTime>{0, 5, 10}));
}

TEST(Simulator, RunUntilLeavesLaterEvents) {
  Simulator sim;
  int fired = 0;
  sim.schedule(10, [&] { ++fired; });
  sim.schedule(100, [&] { ++fired; });
  sim.run_until(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 50);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunUntilAdvancesClockWhenIdle) {
  Simulator sim;
  sim.run_until(1234);
  EXPECT_EQ(sim.now(), 1234);
}

TEST(Simulator, StepReturnsFalseWhenEmpty) {
  Simulator sim;
  EXPECT_FALSE(sim.step());
  sim.schedule(1, [] {});
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.schedule(i, [] {});
  Timer t = sim.schedule(99, [] {});
  t.cancel();
  sim.run();
  EXPECT_EQ(sim.events_executed(), 5u);
}

TEST(Simulator, AbsoluteScheduling) {
  Simulator sim;
  SimTime seen = -1;
  sim.at(777, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, 777);
}

TEST(Simulator, CancelInsideCallback) {
  // An ACK handler disarming a retransmission timer: the cancel happens
  // while another event is mid-flight.
  Simulator sim;
  bool retransmitted = false;
  Timer retransmit = sim.schedule(20, [&] { retransmitted = true; });
  sim.schedule(10, [&] { retransmit.cancel(); });
  sim.run();
  EXPECT_FALSE(retransmitted);
  EXPECT_EQ(sim.events_executed(), 1u);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, CancelOwnTimerInsideCallbackIsNoop) {
  Simulator sim;
  Timer self;
  int fired = 0;
  self = sim.schedule(10, [&] {
    ++fired;
    self.cancel();  // already popped; must not corrupt the slab
    EXPECT_FALSE(self.armed());
  });
  sim.schedule(20, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, ReentrantScheduleAtCurrentInstantPreservesOrder) {
  // An event that schedules more work "now" runs it after events that were
  // already queued for the same instant (seq order), not before.
  Simulator sim;
  std::vector<int> order;
  sim.schedule(10, [&] {
    order.push_back(1);
    sim.schedule(0, [&] { order.push_back(3); });
  });
  sim.schedule(10, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 10);
}

TEST(Simulator, RunUntilAllCancelledAdvancesClock) {
  // A queue holding only cancelled entries is logically empty: run_until
  // must drain it and still advance the clock to the deadline.
  Simulator sim;
  std::vector<Timer> timers;
  for (int i = 0; i < 8; ++i) {
    timers.push_back(sim.schedule(10 + i, [] {}));
  }
  for (Timer& t : timers) t.cancel();
  EXPECT_EQ(sim.pending(), 0u);
  sim.run_until(500);
  EXPECT_EQ(sim.now(), 500);
  EXPECT_EQ(sim.events_executed(), 0u);
  EXPECT_EQ(sim.queued_entries(), 0u);
}

TEST(Simulator, TimerOutlivesSimulator) {
  // Handles share ownership of the slab (like the seed's shared state
  // block), so poking one after the Simulator dies is safe. A never-fired
  // event still reports armed — matching the original semantics where the
  // shared `fired` flag stays false.
  Timer t;
  {
    Simulator sim;
    t = sim.schedule(10, [] {});
  }
  EXPECT_TRUE(t.armed());
  t.cancel();
  EXPECT_FALSE(t.armed());
  t.cancel();  // double-cancel after death is also a no-op

  Timer fired_timer;
  {
    Simulator sim;
    fired_timer = sim.schedule(1, [] {});
    sim.run();
  }
  EXPECT_FALSE(fired_timer.armed());
  fired_timer.cancel();
}

TEST(Simulator, CompactionReclaimsCancelledEntries) {
  // When more than half the queue is dead, a sweep drops the cancelled
  // entries instead of leaving pop() to skip them one at a time.
  Simulator sim;
  std::vector<Timer> timers;
  constexpr int kEvents = 128;
  for (int i = 0; i < kEvents; ++i) {
    timers.push_back(sim.schedule(i, [] {}));
  }
  EXPECT_EQ(sim.queued_entries(), static_cast<std::size_t>(kEvents));
  // Cancel 3/4 of them; compaction triggers once dead*2 > queued.
  for (int i = 0; i < kEvents; ++i) {
    if (i % 4 != 0) timers[i].cancel();
  }
  EXPECT_GE(sim.compactions(), 1u);
  // The sweep dropped dead entries; later cancels may re-accumulate below
  // the trigger threshold, so the queue is smaller but not minimal.
  EXPECT_LT(sim.queued_entries(), static_cast<std::size_t>(kEvents));
  EXPECT_EQ(sim.pending(), static_cast<std::size_t>(kEvents / 4));
  // The survivors still fire.
  sim.run();
  EXPECT_EQ(sim.events_executed(), static_cast<std::uint64_t>(kEvents / 4));
}

TEST(Simulator, SmallQueueSkipsCompaction) {
  // Below the size floor, cancelled entries are reclaimed lazily on pop.
  Simulator sim;
  std::vector<Timer> timers;
  for (int i = 0; i < 16; ++i) timers.push_back(sim.schedule(i, [] {}));
  for (Timer& t : timers) t.cancel();
  EXPECT_EQ(sim.compactions(), 0u);
  EXPECT_EQ(sim.queued_entries(), 16u);  // still queued, lazily dead
  sim.run();
  EXPECT_EQ(sim.queued_entries(), 0u);
  EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(Simulator, SlotReuseDoesNotConfuseStaleTimers) {
  // After an event fires, its slot is recycled; a stale handle onto the old
  // generation must not cancel the new occupant.
  Simulator sim;
  Timer old = sim.schedule(1, [] {});
  sim.run();
  bool fired = false;
  Timer fresh = sim.schedule(1, [&] { fired = true; });  // reuses the slot
  old.cancel();  // stale generation: must be a no-op
  EXPECT_TRUE(fresh.armed());
  sim.run();
  EXPECT_TRUE(fired);
}

TEST(Simulator, SmallCallbacksNeverHitEventFnHeap) {
  // The slab plus 96-byte inline EventFn storage means typical protocol
  // callbacks (a few pointers of capture) never fall back to the heap.
  const std::uint64_t before = EventFn::heap_allocations();
  Simulator sim;
  long counter = 0;
  void* a = &counter;
  void* b = &sim;
  for (int i = 0; i < 1000; ++i) {
    sim.schedule(i, [&counter, a, b] {
      counter += (a != b);
    });
  }
  sim.run();
  EXPECT_EQ(counter, 1000);
  EXPECT_EQ(EventFn::heap_allocations(), before);

  // An oversized capture (> inline buffer) must still work via the heap
  // fallback, and be counted.
  struct Big {
    char bytes[200] = {};
  } big;
  bool ran = false;
  sim.schedule(1, [big, &ran] { ran = big.bytes[0] == 0; });
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(EventFn::heap_allocations(), before + 1);
}

TEST(Simulator, ReservedSequenceFiresAheadOfLaterScheduledTie) {
  // The reserved number was handed out before the ordinary event was
  // scheduled, so at the same instant it fires first even though it is
  // queued later in program order — where eager scheduling puts it.
  Simulator sim;
  std::vector<int> order;
  const std::uint64_t reserved = sim.reserve_sequence(1);
  sim.schedule(10, [&] { order.push_back(2); });
  sim.at(10, reserved, [&] { order.push_back(1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));

  Simulator eager;
  eager.schedule(10, [] {});
  eager.schedule(10, [] {});
  eager.run();
  EXPECT_EQ(sim.event_stream_digest(), eager.event_stream_digest());
  EXPECT_EQ(sim.events_executed(), eager.events_executed());
}

/// One chain of events at sorted times (with ties), fed either eagerly —
/// every link scheduled up front — or lazily from a reserved block, each
/// link queueing the next when it fires. Around the chain, seeded noise
/// timers are scheduled at the same instants and cancelled in bursts, so
/// lazy cancels and compaction sweeps interleave with the chain.
class ChainRun {
 public:
  ChainRun(std::uint64_t seed, std::vector<SimTime> times, bool lazy)
      : rng_(seed), times_(std::move(times)), lazy_(lazy) {}

  void run() {
    for (int i = 0; i < 8; ++i) add_noise();
    if (lazy_) {
      first_ = sim_.reserve_sequence(times_.size());
      schedule_link(0);
    } else {
      for (std::size_t i = 0; i < times_.size(); ++i) {
        sim_.at(times_[i], [this, i] { on_link(i); });
      }
    }
    for (int i = 0; i < 8; ++i) add_noise();
    sim_.run();
  }

  const Simulator& sim() const { return sim_; }
  const std::vector<std::int64_t>& order() const { return order_; }

 private:
  void schedule_link(std::size_t i) {
    if (i == times_.size()) return;
    sim_.at(times_[i], first_ + i, [this, i] { on_link(i); });
  }
  void on_link(std::size_t i) {
    order_.push_back(static_cast<std::int64_t>(i));
    if (lazy_) schedule_link(i + 1);
    const auto spawn = rng_.uniform_int(0, 12);
    for (std::int64_t k = 0; k < spawn; ++k) add_noise();
    const auto cancels = rng_.uniform_int(0, 12);
    for (std::int64_t k = 0; k < cancels && !noise_.empty(); ++k) {
      const auto recent = std::min<std::int64_t>(
          64, static_cast<std::int64_t>(noise_.size()));
      noise_[noise_.size() - 1 -
             static_cast<std::size_t>(rng_.uniform_int(0, recent - 1))]
          .cancel();
    }
  }
  void add_noise() {
    const std::int64_t id = next_noise_++;
    noise_.push_back(sim_.schedule(rng_.uniform_int(0, 200), [this, id] {
      order_.push_back(-id - 1);
    }));
  }

  Simulator sim_;
  Rng rng_;
  std::vector<SimTime> times_;
  bool lazy_;
  std::uint64_t first_ = 0;
  std::vector<Timer> noise_;
  std::int64_t next_noise_ = 0;
  std::vector<std::int64_t> order_;
};

TEST(Simulator, LazyReservedChainMatchesEagerScheduling) {
  for (const std::uint64_t seed : {1u, 7u, 42u}) {
    Rng rng(seed);
    std::vector<SimTime> times;
    SimTime t = 0;
    for (int i = 0; i < 2000; ++i) {
      t += rng.uniform_int(0, 3);  // zero gaps make same-instant ties
      times.push_back(t);
    }
    ChainRun eager(seed, times, /*lazy=*/false);
    ChainRun lazy(seed, times, /*lazy=*/true);
    eager.run();
    lazy.run();

    EXPECT_EQ(lazy.order(), eager.order()) << "seed " << seed;
    EXPECT_EQ(lazy.sim().event_stream_digest(),
              eager.sim().event_stream_digest())
        << "seed " << seed;
    EXPECT_EQ(lazy.sim().events_executed(), eager.sim().events_executed());
    EXPECT_GT(lazy.sim().compactions(), 0u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace doxlab::sim
