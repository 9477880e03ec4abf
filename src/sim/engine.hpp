// Discrete-event simulation engine.
//
// A single time-ordered event queue drives the whole simulator. Events are
// closures scheduled at an absolute simulated time; ties are broken by
// schedule order, which makes runs fully deterministic.
//
// Hot-path layout: callbacks live in a generation-tagged slot slab instead
// of hash containers. Scheduling pops a free slot (or grows the slab —
// amortized, no per-event allocation once warm), firing and cancelling are
// O(1) array accesses with no hashing, and small callbacks (captures up to
// 48 bytes, i.e. every scheduler closure) are stored inline with no heap
// traffic at all. An EventId packs {slot index, slot generation}; a stale
// handle — the slot was fired or cancelled and possibly reused — simply
// fails the generation check, so cancel-after-fire stays a safe no-op.
// The heap holds plain {time, seq, slot, generation} records; entries whose
// generation no longer matches the slab are dropped lazily when they
// surface, exactly like the old cancelled-set design but without the set.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "obs/observer.hpp"
#include "sim/event_payload.hpp"
#include "util/error.hpp"
#include "util/small_function.hpp"
#include "util/units.hpp"

namespace dmsim::snapshot {
class Writer;
class Reader;
}  // namespace dmsim::snapshot

namespace dmsim::sim {

/// Opaque handle for a scheduled event; used only for cancellation.
/// Packs {generation, slot + 1}: value 0 (default) is never a live event.
struct EventId {
  std::uint64_t value = 0;
  [[nodiscard]] constexpr bool valid() const noexcept { return value != 0; }
  friend constexpr bool operator==(EventId, EventId) noexcept = default;
};

class Engine : public obs::Clock {
 public:
  /// Capacity covers every closure the scheduler creates; larger captures
  /// fall back to one boxed allocation, never a failure.
  using Callback = util::SmallFunction<void(), 48>;

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] Seconds now() const noexcept { return now_; }
  [[nodiscard]] Seconds sim_now() const noexcept override { return now_; }

  /// Wire observability: trace schedule/fire/cancel and register the
  /// engine.* counters. Pass nullptr to disable (the default); disabled
  /// instrumentation is one branch on a null pointer per site.
  void set_observer(const obs::Observer* observer);

  /// Install the receiver for typed events. Must outlive the engine (or be
  /// reset). Required before any schedule_typed() event fires.
  void set_handler(EventHandler* handler) noexcept { handler_ = handler; }

  /// Schedule `fn` at absolute time `when` (must be >= now()).
  EventId schedule(Seconds when, Callback fn);

  /// Schedule `fn` after a relative delay (must be >= 0).
  EventId schedule_after(Seconds delay, Callback fn) {
    return schedule(now_ + delay, std::move(fn));
  }

  /// Schedule a typed payload at absolute time `when` (must be >= now()).
  /// Typed events are serializable (see save_state) and dispatch through
  /// the installed EventHandler; otherwise they behave exactly like
  /// closure events — same ids, same trace records, same tie-breaking.
  EventId schedule_typed(Seconds when, const EventPayload& payload);

  /// Schedule a typed payload after a relative delay (must be >= 0).
  EventId schedule_typed_after(Seconds delay, const EventPayload& payload) {
    return schedule_typed(now_ + delay, payload);
  }

  /// Cancel a pending event. Cancelling an already-fired, stale (slot since
  /// reused) or invalid handle is a no-op, so callers need not track firing
  /// themselves.
  void cancel(EventId id);

  /// True if no runnable (non-cancelled) events remain.
  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }

  [[nodiscard]] std::size_t pending_events() const noexcept { return live_; }

  /// Run a single event. Returns false if the queue is empty.
  bool step();

  /// Run until the queue drains (or `max_events` fire — a runaway guard).
  /// Returns the number of events executed.
  std::uint64_t run(std::uint64_t max_events = UINT64_MAX);

  /// Run all events with time <= until (events exactly at `until` included).
  /// Afterwards now() == max(now, until).
  std::uint64_t run_until(Seconds until);

  /// Run all events with time <= until WITHOUT advancing the clock past the
  /// last fired event. This is the checkpoint cut primitive: unlike
  /// run_until, it leaves now() exactly where an uninterrupted run would
  /// have it mid-stream, so the saved state is indistinguishable from a run
  /// that was never paused.
  std::uint64_t run_ready(Seconds until);

  [[nodiscard]] std::uint64_t executed_events() const noexcept { return executed_; }

  /// Serialize clock, counters, the slot slab (occupancy, generations, free
  /// list — exact order, so slot reuse and tie-breaking replay identically)
  /// and every live heap entry. Throws snapshot::SnapshotError if any
  /// pending event is closure-backed: closures are not serializable, and
  /// production code must schedule typed payloads only.
  void save_state(snapshot::Writer& writer) const;

  /// Rebuild engine state from save_state bytes. Existing state is
  /// discarded; the observer wiring and handler are kept. Heap entries are
  /// re-pushed in saved order — pop order is a total order on unique
  /// (time, seq) keys, so the replayed fire sequence is identical.
  void restore_state(snapshot::Reader& reader);

 private:
  struct Entry {
    Seconds time;
    std::uint64_t seq;  // tie-break: FIFO among equal times
    std::uint32_t slot;
    std::uint32_t generation;
    /// Strict ordering: earlier time first, then schedule order. The key is
    /// unique (seq is monotonic), so the pop sequence is a total order and
    /// independent of the heap's internal layout.
    [[nodiscard]] bool before(const Entry& other) const noexcept {
      if (time != other.time) return time < other.time;
      return seq < other.seq;
    }
  };

  /// 4-ary min-heap over Entry. Shallower than a binary heap and the four
  /// children of a node share a cache line pair, which measurably cuts the
  /// per-event sift cost in the engine's steady-state churn.
  class EventHeap {
   public:
    [[nodiscard]] bool empty() const noexcept { return v_.empty(); }
    [[nodiscard]] const Entry& top() const noexcept { return v_.front(); }

    void push(const Entry& e) {
      std::size_t i = v_.size();
      v_.push_back(e);
      while (i > 0) {
        const std::size_t parent = (i - 1) / kArity;
        if (!v_[i].before(v_[parent])) break;
        std::swap(v_[i], v_[parent]);
        i = parent;
      }
    }

    void pop() {
      v_.front() = v_.back();
      v_.pop_back();
      const std::size_t n = v_.size();
      std::size_t i = 0;
      for (;;) {
        const std::size_t first = i * kArity + 1;
        if (first >= n) break;
        std::size_t best = first;
        const std::size_t last = std::min(first + kArity, n);
        for (std::size_t c = first + 1; c < last; ++c) {
          if (v_[c].before(v_[best])) best = c;
        }
        if (!v_[best].before(v_[i])) break;
        std::swap(v_[i], v_[best]);
        i = best;
      }
    }

    /// Raw entries in heap-internal order, for slab-order-preserving
    /// serialization. Re-pushing them in this order is not required for
    /// correctness (pop order is a total order) but keeps snapshots stable.
    [[nodiscard]] const std::vector<Entry>& entries() const noexcept {
      return v_;
    }

    void clear() noexcept { v_.clear(); }

   private:
    static constexpr std::size_t kArity = 4;
    std::vector<Entry> v_;
  };

  struct Slot {
    Callback fn;
    EventPayload payload;        // type == None for closure-backed slots
    std::uint64_t trace_id = 0;  // stable 1-based schedule number, for traces
    std::uint32_t generation = 1;
    bool occupied = false;
  };

  [[nodiscard]] static constexpr std::uint64_t pack(
      std::uint32_t slot, std::uint32_t generation) noexcept {
    return (static_cast<std::uint64_t>(generation) << 32) |
           (static_cast<std::uint64_t>(slot) + 1);
  }

  /// True when a heap entry still refers to the live occupant of its slot.
  [[nodiscard]] bool entry_live(const Entry& e) const noexcept {
    const Slot& s = slots_[e.slot];
    return s.occupied && s.generation == e.generation;
  }

  /// Free a slot: drop the callback, advance the generation (stale handles
  /// and heap entries die here) and recycle the index.
  void release_slot(std::uint32_t slot);

  /// Claim a free (or freshly grown) slot and fill the common bookkeeping;
  /// shared tail of schedule() and schedule_typed().
  EventId enqueue_slot(Seconds when, std::uint32_t slot);

  /// The snapshot section's field list, run by save_state / restore_state.
  template <class Self, class Ar>
  static void io(Self& self, Ar&& ar);

  EventHandler* handler_ = nullptr;
  EventHeap queue_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_ = 0;  // scheduled, not yet fired or cancelled
  Seconds now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;

  // Observability (all nullptr when disabled).
  obs::TraceSink* trace_ = nullptr;
  std::uint64_t* c_scheduled_ = nullptr;
  std::uint64_t* c_fired_ = nullptr;
  std::uint64_t* c_cancelled_ = nullptr;
  /// Fired events per simulated-time window — the event-rate profile of the
  /// run. Sim-time only, so the series is identical across hosts/threads.
  obs::TimeSeries* s_events_ = nullptr;
  /// Slab occupancy high-water marks: live events and total slots grown.
  obs::Gauge* g_slab_live_ = nullptr;
  obs::Gauge* g_slab_slots_ = nullptr;
};

}  // namespace dmsim::sim
