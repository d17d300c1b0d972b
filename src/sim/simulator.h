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
// reused slot), the priority queue is a binary heap of small (time, seq,
// slot) records, and callbacks are small-buffer-optimized `EventFn`s — zero
// heap allocations per event once the slab is warm. Cancellation is eager:
// every queued slot knows its heap index, so Timer::cancel removes its entry
// at once and the heap only ever holds live events (retransmission and
// deadline timers are disarmed far more often than they fire).
// schedule/at are templates so the callable's erasure ops are still known
// constants where they inline — the compiler flattens the capture move into
// the slot instead of bouncing through function pointers.
#pragma once

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

  /// One pooled event record. `gen` increments every time the slot is
  /// released (fired or cancelled), invalidating outstanding Timer handles:
  /// a handle whose generation still matches names a queued event.
  struct Slot {
    EventFn fn;
    std::uint32_t gen = 0;
    std::uint32_t next_free = kNoSlot;
  };

  /// Priority-queue record; `slot` points into the slab.
  struct QueueEntry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  /// Firing order: earliest time, then lowest sequence number. Sequence
  /// numbers are unique, so this is a total order and the heap's shape
  /// never shows in the order events fire. (One short-circuit expression:
  /// GCC then branches where the if/return form selects, and branches let
  /// a sift through a deep heap run its loads ahead. That was 1.6x faster
  /// per event with 500k queued, and no different on the engine's
  /// workloads, whose queues are shallow.)
  static bool before(const QueueEntry& a, const QueueEntry& b) {
    return a.time < b.time || (a.time == b.time && a.seq < b.seq);
  }

  std::vector<Slot> slots;
  /// Per slot: the index of its entry in `heap` while queued. Kept apart
  /// from the slab so a sift through a deep heap touches 4 bytes per
  /// moved entry, not a 128-byte slot.
  std::vector<std::uint32_t> heap_pos;
  std::vector<QueueEntry> heap;  ///< binary min-heap of the queued events
  std::uint32_t free_head = kNoSlot;
  std::uint64_t next_seq = 0;

  std::uint32_t acquire() {
    if (free_head != kNoSlot) {
      const std::uint32_t idx = free_head;
      free_head = slots[idx].next_free;
      return idx;
    }
    slots.emplace_back();
    heap_pos.emplace_back();
    return static_cast<std::uint32_t>(slots.size() - 1);
  }

  void release(std::uint32_t idx) {
    // Disarm before the closure dies: its destructors may cancel timers,
    // this event's own included, and that must be a no-op here.
    ++slots[idx].gen;
    slots[idx].fn.reset();
    slots[idx].next_free = free_head;
    free_head = idx;
  }

  void push(SimTime time, std::uint64_t seq, std::uint32_t slot) {
    heap.emplace_back();
    sift_up(heap.size() - 1, QueueEntry{time, seq, slot});
  }

  /// Removes and returns the earliest entry; the heap must not be empty.
  QueueEntry pop() {
    const QueueEntry top = heap.front();
    const QueueEntry last = heap.back();
    heap.pop_back();
    if (!heap.empty()) sift_down(0, last);
    return top;
  }

  /// Removes the entry at heap index `pos`, refilling the hole with the
  /// last entry moved up or down to where it belongs.
  void remove_at(std::size_t pos) {
    const QueueEntry last = heap.back();
    heap.pop_back();
    if (pos == heap.size()) return;
    if (pos > 0 && before(last, heap[(pos - 1) / 2])) {
      sift_up(pos, last);
    } else {
      sift_down(pos, last);
    }
  }

  /// Stores `entry` at heap index `pos` and records the index for its slot.
  void place(std::size_t pos, const QueueEntry& entry) {
    heap[pos] = entry;
    heap_pos[entry.slot] = static_cast<std::uint32_t>(pos);
  }

  /// Moves the hole at `pos` up past every parent `entry` fires before,
  /// then fills it with `entry`.
  void sift_up(std::size_t pos, const QueueEntry& entry) {
    while (pos > 0) {
      const std::size_t parent = (pos - 1) / 2;
      if (!before(entry, heap[parent])) break;
      place(pos, heap[parent]);
      pos = parent;
    }
    place(pos, entry);
  }

  /// Moves the hole at `pos` down past every child that fires before
  /// `entry`, then fills it with `entry`.
  void sift_down(std::size_t pos, const QueueEntry& entry) {
    const std::size_t n = heap.size();
    for (;;) {
      std::size_t child = 2 * pos + 1;
      if (child >= n) break;
      if (child + 1 < n && before(heap[child + 1], heap[child])) ++child;
      if (!before(heap[child], entry)) break;
      place(pos, heap[child]);
      pos = child;
    }
    place(pos, entry);
  }

  bool cancel(std::uint32_t idx, std::uint32_t gen);
  bool armed(std::uint32_t idx, std::uint32_t gen) const {
    return idx < slots.size() && slots[idx].gen == gen;
  }

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

  /// Number of pending events: the queue's length, since a cancel removes
  /// its entry at once.
  std::size_t pending() const { return core_->heap.size(); }

 private:
  /// Pops and runs the earliest event if its time is <= `deadline`.
  /// Returns false if nothing fired. Shared by step(), run() and
  /// run_until().
  bool step_before(SimTime deadline) {
    detail::SimCore& core = *core_;
    if (core.heap.empty() || core.heap.front().time > deadline) return false;
    const detail::SimCore::QueueEntry entry = core.pop();
    now_ = entry.time;
    // Move the closure out and free the slot *before* invoking so that
    // re-entrant scheduling from within the callback sees a consistent
    // slab (and cancelling the running event's own Timer is a no-op).
    EventFn fn = std::move(core.slots[entry.slot].fn);
    core.release(entry.slot);
    ++executed_;
    // Two multiplies and a xor per event: noise next to the heap pop,
    // and it buys a run-to-run fingerprint of the whole schedule.
    stream_digest_ ^= static_cast<std::uint64_t>(entry.time) +
                      0x9E3779B97F4A7C15ull * (entry.seq + 1);
    stream_digest_ *= 0xBF58476D1CE4E5B9ull;
    fn.invoke_consume();
    return true;
  }

  SimTime now_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t stream_digest_ = 0x6A09E667F3BCC909ull;  // sqrt(2) seed
  detail::CorePtr core_;
};

}  // namespace doxlab::sim
