// Pending-event set for the discrete-event simulator, ordered by
// (time, insertion sequence) — simultaneous events fire in FIFO order,
// which makes runs reproducible.
//
// Storage is a generation-tagged slab: each scheduled callback lives in a
// recycled Slot, and the handle returned to callers packs the slot index
// with the slot's generation counter (EventId = generation << 32 | slot).
// Cancellation is O(1) — bump the generation, drop the callback, return
// the slot to the free list — with no hash table; any heap record or stale
// handle that still carries the old generation is dead by construction
// (this is also what makes recycled handles ABA-safe). Ordering is a 4-ary
// implicit heap of 24-byte POD records {time, seq, slot, generation};
// dead records are skipped lazily when they reach the front.
//
// Together with the small-buffer callbacks (sim::InplaceEvent) this makes
// steady-state push/cancel/pop churn allocation-free once the slab, heap,
// and free-list vectors have reached their high-water capacity (asserted
// by tests/test_zero_alloc.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/inplace_event.h"

namespace manet::sim {

/// Simulated time in seconds.
using Time = double;

/// Opaque handle to a scheduled event; valid until the event fires or is
/// cancelled. Id 0 is never issued and acts as "no event" (generations
/// start at 1, so every issued id has a nonzero high word).
using EventId = std::uint64_t;
inline constexpr EventId kNoEvent = 0;

using EventFn = InplaceEvent;

class EventQueue {
 public:
  /// Pre-sizes the slab, free list, and heap for `capacity` concurrently
  /// scheduled events (the heap gets headroom for lazily-deleted records),
  /// so a workload that stays within the bound never reallocates.
  void reserve(std::size_t capacity);

  /// Schedules `fn` at absolute time `t`. Returns a cancellation handle.
  EventId push(Time t, EventFn fn);

  /// Cancels a pending event. Returns false if the handle is unknown,
  /// already fired, or already cancelled — all safe to ignore.
  bool cancel(EventId id);

  /// True if the event is scheduled and not yet fired or cancelled.
  bool pending(EventId id) const {
    const std::uint32_t slot = slot_of(id);
    return slot < slots_.size() &&
           slots_[slot].generation == generation_of(id);
  }

  /// True when no live (non-cancelled) events remain.
  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }

  /// Time of the earliest live event. Requires !empty().
  Time next_time() const;

  /// Removes and returns the earliest live event. Requires !empty().
  struct Fired {
    Time time;
    EventId id;
    EventFn fn;
  };
  Fired pop();

  /// Lifetime counters, exposed for stats/tests.
  std::uint64_t total_scheduled() const { return next_seq_; }
  std::uint64_t total_cancelled() const { return cancelled_count_; }

 private:
  struct Slot {
    EventFn fn;
    // Arming epoch. Bumped whenever the slot is disarmed (fire or cancel),
    // so a handle or heap record minted under an older generation can
    // never match again. Starts at 1; wraps after 2^32 reuses of one slot,
    // which no simulation approaches.
    std::uint32_t generation = 1;
  };

  // POD ordering record; the callback stays in the slab so heap sifts move
  // 24 bytes, never a callable.
  struct HeapRecord {
    Time time;
    std::uint64_t seq;       // insertion order, FIFO tiebreak
    std::uint32_t slot;
    std::uint32_t generation;
  };

  static std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>(id);
  }
  static std::uint32_t generation_of(EventId id) {
    return static_cast<std::uint32_t>(id >> 32);
  }
  static EventId make_id(std::uint32_t generation, std::uint32_t slot) {
    return (static_cast<EventId>(generation) << 32) | slot;
  }

  static bool before(const HeapRecord& a, const HeapRecord& b) {
    if (a.time != b.time) {
      return a.time < b.time;
    }
    return a.seq < b.seq;
  }

  // A heap record is live iff its generation still matches its slot's.
  bool record_live(const HeapRecord& rec) const {
    return slots_[rec.slot].generation == rec.generation;
  }

  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  void remove_root();
  void drop_dead_front();

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<HeapRecord> heap_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t cancelled_count_ = 0;
  std::size_t live_ = 0;
};

}  // namespace manet::sim
