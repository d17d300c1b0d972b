// Discrete-event simulator core.
//
// A single-threaded event loop over simulated time. Events scheduled for the
// same instant fire in scheduling order (a monotonically increasing sequence
// number breaks ties), which keeps runs deterministic.
//
// Protocol state machines interact with the simulator through two verbs:
//   schedule(delay, fn)  — run fn after a relative delay
//   at(time, fn)         — run fn at an absolute time
// Both return a `Timer` handle that can cancel the event (needed for
// retransmission timers that are disarmed by an ACK).
//
// Reserved sequences: reserve_sequence(n) hands out n consecutive sequence
// numbers without queueing anything, and at(time, seq, fn) later schedules
// an event under one of them. The queue orders by (time, seq), so an event
// scheduled late under a reserved number fires exactly where scheduling it
// at reservation time would have put it: same ties, same events_executed(),
// same event_stream_digest(). The one condition is that it is queued before
// the loop pops anything that should follow it. A long arrival stream uses
// this to keep one pending event instead of its whole schedule: each
// arrival queues the next (engine/shard.h's arrival cursor).
//
// Hot-path layout: events live in a slab of pooled slots (recycled through a
// free list, generation-counted so stale `Timer` handles can never touch a
// reused slot), the priority queue holds small (time, seq, slot) records,
// and callbacks are small-buffer-optimized `EventFn`s — zero heap
// allocations per event once the slab is warm. Cancellation is lazy:
// cancelled entries stay queued until popped, but when more than half of the
// queue is dead (retransmission timers disarmed by ACKs) a compaction sweep
// drops them and re-heapifies, keeping pop cost proportional to live events.
// schedule/at are templates so the callable's erasure ops are still known
// constants where they inline — the compiler flattens the capture move into
// the slot instead of bouncing through function pointers.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event_fn.h"
#include "util/types.h"

namespace doxlab::sim {

class Simulator;

namespace detail {

/// The slab + queue state. Owned jointly by the Simulator and any Timer
/// handles (via CorePtr below) so handles stay valid — and simply report
/// disarmed — after the Simulator dies.
struct SimCore {
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
  /// Compaction only kicks in past this queue size: tiny queues are cheap
  /// to skip through and re-heapifying them would dominate.
  static constexpr std::size_t kCompactionMinEntries = 64;

  /// One pooled event record. `gen` increments every time the slot is
  /// released, invalidating outstanding Timer handles.
  struct Slot {
    EventFn fn;
    std::uint32_t gen = 0;
    std::uint32_t next_free = kNoSlot;
    bool in_use = false;
    bool cancelled = false;
  };

  /// Priority-queue record; `slot` points into the slab.
  struct QueueEntry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  /// Max-heap comparator whose "largest" element fires first: earliest
  /// time, then lowest sequence number.
  struct Later {
    bool operator()(const QueueEntry& a, const QueueEntry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  std::vector<Slot> slots;
  std::vector<QueueEntry> heap;
  std::uint32_t free_head = kNoSlot;
  std::uint64_t next_seq = 0;
  std::size_t live = 0;   // queued and not cancelled
  std::size_t dead = 0;   // cancelled entries still sitting in `heap`
  std::uint64_t compactions = 0;

  std::uint32_t acquire() {
    if (free_head != kNoSlot) {
      const std::uint32_t idx = free_head;
      free_head = slots[idx].next_free;
      slots[idx].in_use = true;
      return idx;
    }
    slots.emplace_back();
    slots.back().in_use = true;
    return static_cast<std::uint32_t>(slots.size() - 1);
  }

  void release(std::uint32_t idx) {
    Slot& s = slots[idx];
    s.fn.reset();
    ++s.gen;
    s.in_use = false;
    s.cancelled = false;
    s.next_free = free_head;
    free_head = idx;
  }

  void push(SimTime time, std::uint64_t seq, std::uint32_t slot) {
    heap.push_back(QueueEntry{time, seq, slot});
    std::push_heap(heap.begin(), heap.end(), Later{});
  }

  QueueEntry pop() {
    std::pop_heap(heap.begin(), heap.end(), Later{});
    const QueueEntry entry = heap.back();
    heap.pop_back();
    return entry;
  }

  bool cancel(std::uint32_t idx, std::uint32_t gen);
  bool armed(std::uint32_t idx, std::uint32_t gen) const;
  void maybe_compact();

  std::uint32_t refs = 0;  // managed by CorePtr
};

/// Intrusive, deliberately non-atomic refcounted pointer to SimCore. A
/// simulator and all of its Timer handles live on one thread (parallel
/// campaigns give each task its own simulator), so the count needs no
/// synchronization — which keeps Timer construction on the schedule hot
/// path free of locked instructions (a shared_ptr copy costs two once any
/// thread exists in the process).
class CorePtr {
 public:
  CorePtr() = default;
  explicit CorePtr(SimCore* core) : core_(core) {
    if (core_ != nullptr) ++core_->refs;
  }
  CorePtr(const CorePtr& other) : core_(other.core_) {
    if (core_ != nullptr) ++core_->refs;
  }
  CorePtr(CorePtr&& other) noexcept : core_(other.core_) {
    other.core_ = nullptr;
  }
  CorePtr& operator=(CorePtr other) noexcept {
    std::swap(core_, other.core_);
    return *this;
  }
  ~CorePtr() {
    if (core_ != nullptr && --core_->refs == 0) delete core_;
  }

  SimCore& operator*() const { return *core_; }
  SimCore* operator->() const { return core_; }
  explicit operator bool() const { return core_ != nullptr; }

 private:
  SimCore* core_ = nullptr;
};

}  // namespace detail

/// Cancellation handle for a scheduled event. Copyable; all copies refer to
/// the same underlying event. Cancelling an already-fired event is a no-op.
/// Handles keep the slab alive (like the seed's shared state block) so they
/// stay safe to poke even after the Simulator is destroyed.
class Timer {
 public:
  Timer() = default;

  /// Prevents the event from firing. Safe to call multiple times.
  void cancel();

  /// True if the event has neither fired nor been cancelled.
  bool armed() const;

 private:
  friend class Simulator;
  Timer(const detail::CorePtr& core, std::uint32_t slot, std::uint32_t gen)
      : core_(core), slot_(slot), gen_(gen) {}

  detail::CorePtr core_;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

/// The event loop. One instance drives one experiment.
class Simulator {
 public:
  Simulator() : core_(new detail::SimCore) {}
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Destroys every still-queued closure. Closures routinely capture Timer
  /// handles (retransmission timers owned by the objects they fire on), and
  /// a Timer keeps the slab alive — leaving the closures in place would
  /// cycle and leak their object graphs. Slot metadata survives so
  /// outstanding handles still answer armed()/cancel() safely.
  ~Simulator() {
    for (detail::SimCore::Slot& slot : core_->slots) slot.fn.reset();
  }

  /// Current simulated time.
  SimTime now() const { return now_; }

  /// Schedules `fn` to run `delay` from now. Negative delays clamp to zero.
  template <typename F>
  Timer schedule(SimTime delay, F&& fn) {
    if (delay < 0) delay = 0;
    return at(now_ + delay, std::forward<F>(fn));
  }

  /// Schedules `fn` at an absolute time (clamped to be >= now()).
  template <typename F>
  Timer at(SimTime time, F&& fn) {
    return at(time, core_->next_seq++, std::forward<F>(fn));
  }

  /// Hands out `n` consecutive sequence numbers and returns the first. No
  /// event is queued; each number is later used once, through the `at`
  /// overload below.
  std::uint64_t reserve_sequence(std::uint64_t n) {
    const std::uint64_t first = core_->next_seq;
    core_->next_seq += n;
    return first;
  }

  /// Schedules `fn` at an absolute time (clamped to be >= now()) under a
  /// sequence number from reserve_sequence(). It fires exactly where an
  /// event scheduled at reservation time would have: ties break on `seq`,
  /// and the stream digest folds `seq` in.
  template <typename F>
  Timer at(SimTime time, std::uint64_t seq, F&& fn) {
    if (time < now_) time = now_;
    detail::SimCore& core = *core_;
    const std::uint32_t idx = core.acquire();
    detail::SimCore::Slot& slot = core.slots[idx];
    // Construct the capture directly into the slab slot; where this
    // inlines, the erasure ops are compile-time constants and the store is
    // a plain copy of the capture bytes.
    try {
      slot.fn.emplace(std::forward<F>(fn));
    } catch (...) {
      core.release(idx);
      throw;
    }
    core.push(time, seq, idx);
    ++core.live;
    return Timer(core_, idx, slot.gen);
  }

  /// Runs until the event queue is empty.
  void run() {
    while (step_before(kSimTimeNever)) {
    }
  }

  /// Runs events with time <= `deadline`; leaves later events queued and
  /// advances the clock to `deadline`.
  void run_until(SimTime deadline) {
    while (step_before(deadline)) {
    }
    if (now_ < deadline) now_ = deadline;
  }

  /// Runs at most one event. Returns false if the queue was empty.
  bool step() { return step_before(kSimTimeNever); }

  /// Number of events executed since construction.
  std::uint64_t events_executed() const { return executed_; }

  /// Order-sensitive digest of the executed event stream: every fired
  /// event folds its (time, sequence-number) pair into a 64-bit mix. Two
  /// runs that execute the same events at the same simulated times in the
  /// same order — and only those — agree on the digest, which is what the
  /// sharded-engine determinism tests pin: a shard's stream must be a pure
  /// function of its seed, never of wall-clock interleaving with other
  /// shards.
  std::uint64_t event_stream_digest() const { return stream_digest_; }

  /// Number of live (not cancelled) pending events.
  std::size_t pending() const { return core_->live; }

  /// Queue entries including lazily-cancelled ones (compaction test hook).
  std::size_t queued_entries() const { return core_->heap.size(); }

  /// Number of lazy-cancel compaction sweeps performed (test hook).
  std::uint64_t compactions() const { return core_->compactions; }

 private:
  /// Pops and runs the earliest live event if its time is <= `deadline`
  /// (skipping and reclaiming cancelled entries on the way). Returns false
  /// if nothing fired. Shared by step(), run() and run_until().
  bool step_before(SimTime deadline) {
    detail::SimCore& core = *core_;
    while (!core.heap.empty()) {
      const detail::SimCore::QueueEntry& top = core.heap.front();
      if (core.slots[top.slot].cancelled) {
        const auto entry = core.pop();
        core.release(entry.slot);
        --core.dead;
        continue;
      }
      if (top.time > deadline) return false;
      const auto entry = core.pop();
      now_ = entry.time;
      // Move the closure out and free the slot *before* invoking so that
      // re-entrant scheduling from within the callback sees a consistent
      // slab (and cancelling the running event's own Timer is a no-op).
      EventFn fn = std::move(core.slots[entry.slot].fn);
      core.release(entry.slot);
      --core.live;
      ++executed_;
      // Two multiplies and a xor per event: noise next to the heap pop,
      // and it buys a run-to-run fingerprint of the whole schedule.
      stream_digest_ ^= static_cast<std::uint64_t>(entry.time) +
                        0x9E3779B97F4A7C15ull * (entry.seq + 1);
      stream_digest_ *= 0xBF58476D1CE4E5B9ull;
      fn.invoke_consume();
      return true;
    }
    return false;
  }

  SimTime now_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t stream_digest_ = 0x6A09E667F3BCC909ull;  // sqrt(2) seed
  detail::CorePtr core_;
};

}  // namespace doxlab::sim
