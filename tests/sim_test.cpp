// Unit tests for the discrete-event simulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
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
  // Cancelling every event empties the queue: run_until must still
  // advance the clock to the deadline.
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

TEST(Simulator, CancelRemovesItsEntryAtAnyQueueSize) {
  // A cancel takes its entry out of the queue at once, whatever the
  // queue's size: pending() — the queue's length — drops by one per cancel
  // and not at all for a repeated one, and the survivors fire in order.
  for (const int size : {1, 2, 3, 16, 63, 64, 65, 128, 1000}) {
    SCOPED_TRACE("size " + std::to_string(size));
    Simulator sim;
    Rng rng(static_cast<std::uint64_t>(size));
    std::vector<Timer> timers;
    std::vector<SimTime> fired;
    for (int i = 0; i < size; ++i) {
      timers.push_back(sim.schedule(rng.uniform_int(0, 100),
                                    [&] { fired.push_back(sim.now()); }));
    }
    // Cancel three quarters of them in a random order.
    std::vector<std::size_t> order(timers.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1],
                order[static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<std::int64_t>(i) - 1))]);
    }
    std::size_t live = timers.size();
    for (std::size_t k = 0; k < timers.size() * 3 / 4; ++k) {
      Timer& timer = timers[order[k]];
      timer.cancel();
      --live;
      EXPECT_EQ(sim.pending(), live);
      timer.cancel();
      EXPECT_EQ(sim.pending(), live);
    }
    sim.run();
    EXPECT_EQ(sim.events_executed(), live);
    EXPECT_EQ(fired.size(), live);
    EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
    EXPECT_EQ(sim.pending(), 0u);
  }
}

TEST(Simulator, CancelFromTheClosuresOwnDestructorIsNoop) {
  // Closures own objects whose destructors disarm timers, their own
  // event's included. Cancelling the event runs that destructor, and the
  // nested cancel of the same event must leave the queue intact.
  struct CancelOnDestroy {
    Timer* timer = nullptr;
    ~CancelOnDestroy() {
      if (timer != nullptr) timer->cancel();
    }
  };
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    sim.schedule(10 + i, [&order, i] { order.push_back(i); });
  }
  Timer victim;
  auto guard = std::make_shared<CancelOnDestroy>();
  guard->timer = &victim;
  victim = sim.schedule(5, [guard] {});
  guard.reset();  // the closure holds the only reference now
  victim.cancel();
  EXPECT_FALSE(victim.armed());
  EXPECT_EQ(sim.pending(), 8u);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
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
/// cancels interleave with the chain.
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
  }
}

/// Differential check of the event queue against a std::set ordered by
/// (time, seq): seeded random `schedule`, `at`, reserved-sequence `at` and
/// `cancel` calls, made from the top level and from inside callbacks, run
/// on both. Each fired event must be the set's first element, at the
/// simulator's clock; at the end the executed order, the count and the
/// stream digest (folded here by the same formula) must agree.
class Differential {
 public:
  explicit Differential(std::uint64_t seed) : rng_(seed) {}

  void run() {
    // A deep start, so that cancels land all over a many-level heap.
    for (int i = 0; i < 400; ++i) random_op();
    // Run in slices of random length, with top-level calls between them,
    // and stop while events may still be queued.
    for (int round = 0; round < 200; ++round) {
      const SimTime deadline = sim_->now() + rng_.uniform_int(0, 40);
      sim_->run_until(deadline);
      EXPECT_EQ(sim_->now(), deadline);
      EXPECT_TRUE(model_.empty() || model_.begin()->time > deadline);
      for (int k = rng_.uniform_int(0, 4); k > 0; --k) random_op();
    }
    EXPECT_EQ(sim_order_, model_order_);
    EXPECT_EQ(sim_->events_executed(), model_order_.size());
    EXPECT_EQ(sim_->event_stream_digest(), model_digest_);
    EXPECT_GT(stale_cancels_, 0);
    EXPECT_GT(self_cancels_, 0);
    EXPECT_GT(reserved_used_, 0);

    // Handles outlive the simulator: a queued event still reads armed,
    // and each cancel then disarms it.
    sim_.reset();
    for (std::size_t id = 0; id < timers_.size(); ++id) {
      EXPECT_EQ(timers_[id].armed(), queued_[id]) << "event " << id;
      timers_[id].cancel();
      EXPECT_FALSE(timers_[id].armed());
    }
  }

  /// Events still queued when run() returned (before destroying the
  /// simulator).
  std::size_t left_queued() const { return model_.size(); }

 private:
  struct RefEvent {
    SimTime time;
    std::uint64_t seq;
    std::size_t id;
    bool operator<(const RefEvent& other) const {
      return time != other.time ? time < other.time : seq < other.seq;
    }
  };

  void random_op() {
    switch (rng_.uniform_int(0, 5)) {
      case 0: {
        const SimTime delay = rng_.uniform_int(-5, kSpan);
        add(sim_->now() + std::max<SimTime>(delay, 0), next_seq_++,
            [&](auto fn) { return sim_->schedule(delay, std::move(fn)); });
        break;
      }
      case 1: {
        const SimTime time = sim_->now() + rng_.uniform_int(-5, kSpan);
        add(std::max(time, sim_->now()), next_seq_++,
            [&](auto fn) { return sim_->at(time, std::move(fn)); });
        break;
      }
      case 2: {
        const auto n = static_cast<std::uint64_t>(rng_.uniform_int(1, 4));
        const std::uint64_t first = sim_->reserve_sequence(n);
        EXPECT_EQ(first, next_seq_);
        for (std::uint64_t k = 0; k < n; ++k) reserved_.push_back(first + k);
        next_seq_ += n;
        break;
      }
      case 3: {
        if (reserved_.empty()) break;
        const std::size_t pick = static_cast<std::size_t>(rng_.uniform_int(
            0, static_cast<std::int64_t>(reserved_.size()) - 1));
        const std::uint64_t seq = reserved_[pick];
        reserved_.erase(reserved_.begin() +
                        static_cast<std::ptrdiff_t>(pick));
        const SimTime time = sim_->now() + rng_.uniform_int(-5, kSpan);
        add(std::max(time, sim_->now()), seq,
            [&](auto fn) { return sim_->at(time, seq, std::move(fn)); });
        ++reserved_used_;
        break;
      }
      default:
        cancel_random();
        break;
    }
    EXPECT_EQ(sim_->pending(), model_.size());
  }

  /// Queues one event on both sides; `schedule` makes the simulator call.
  template <typename Schedule>
  void add(SimTime time, std::uint64_t seq, Schedule&& schedule) {
    if (timers_.size() >= kMaxEvents) return;
    const std::size_t id = timers_.size();
    keys_.push_back(RefEvent{time, seq, id});
    queued_.push_back(true);
    model_.insert(keys_.back());
    timers_.push_back(schedule([this, id] { on_fire(id); }));
  }

  void cancel_random() {
    if (timers_.empty()) return;
    const std::size_t id = static_cast<std::size_t>(rng_.uniform_int(
        0, static_cast<std::int64_t>(timers_.size()) - 1));
    EXPECT_EQ(timers_[id].armed(), queued_[id]) << "event " << id;
    if (queued_[id]) {
      model_.erase(keys_[id]);
      queued_[id] = false;
    } else {
      ++stale_cancels_;  // fired or cancelled; its slot is likely reused
    }
    timers_[id].cancel();
    EXPECT_FALSE(timers_[id].armed());
  }

  void on_fire(std::size_t id) {
    sim_order_.push_back(id);
    if (model_.empty()) {
      ADD_FAILURE() << "event " << id << " fired with the reference empty";
      return;
    }
    const RefEvent top = *model_.begin();
    model_.erase(model_.begin());
    queued_[top.id] = false;
    model_order_.push_back(top.id);
    EXPECT_EQ(sim_->now(), top.time);
    model_digest_ ^= static_cast<std::uint64_t>(top.time) +
                     0x9E3779B97F4A7C15ull * (top.seq + 1);
    model_digest_ *= 0xBF58476D1CE4E5B9ull;

    EXPECT_FALSE(timers_[id].armed());
    if (rng_.chance(0.2)) {
      timers_[id].cancel();  // its own timer: a no-op once popped
      ++self_cancels_;
      EXPECT_EQ(sim_->pending(), model_.size());
    }
    for (int k = rng_.uniform_int(0, 3); k > 0; --k) random_op();
  }

  /// Events fall due up to this far ahead; slices run up to 40 at a time.
  static constexpr SimTime kSpan = 200;
  static constexpr std::size_t kMaxEvents = 6000;

  Rng rng_;
  std::unique_ptr<Simulator> sim_ = std::make_unique<Simulator>();
  std::set<RefEvent> model_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t model_digest_ = 0x6A09E667F3BCC909ull;
  std::vector<Timer> timers_;      // by event id
  std::vector<RefEvent> keys_;     // by event id
  std::vector<bool> queued_;       // by event id
  std::vector<std::uint64_t> reserved_;
  std::vector<std::size_t> sim_order_;
  std::vector<std::size_t> model_order_;
  int stale_cancels_ = 0;
  int self_cancels_ = 0;
  int reserved_used_ = 0;
};

TEST(Simulator, MatchesOrderedSetReference) {
  std::size_t left_queued = 0;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Differential run(seed);
    run.run();
    left_queued += run.left_queued();
  }
  // Some seeds must stop with events queued, or the checks after the
  // simulator's destruction see only fired and cancelled handles.
  EXPECT_GT(left_queued, 0u);
}

}  // namespace
}  // namespace doxlab::sim
