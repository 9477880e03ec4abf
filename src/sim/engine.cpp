#include "sim/engine.hpp"

#include <algorithm>
#include <utility>

#include "snapshot/snapshot.hpp"

namespace dmsim::sim {

namespace {
constexpr std::uint32_t kEngineSection =
    snapshot::section_tag('E', 'N', 'G', 'I');
constexpr auto kMaxEventType = static_cast<std::uint8_t>(EventType::TraceSample);
}  // namespace

void Engine::set_observer(const obs::Observer* observer) {
  trace_ = observer != nullptr ? observer->sink : nullptr;
  c_scheduled_ = obs::counter_handle(observer, "engine.scheduled");
  c_fired_ = obs::counter_handle(observer, "engine.fired");
  c_cancelled_ = obs::counter_handle(observer, "engine.cancelled");
  s_events_ = obs::series_handle(observer, "engine.events_per_window");
  g_slab_live_ = obs::gauge_handle(observer, "engine.slab_live");
  g_slab_slots_ = obs::gauge_handle(observer, "engine.slab_slots");
}

void Engine::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn.reset();
  s.payload = EventPayload{};  // a reused slot must not inherit a stale type
  s.occupied = false;
  // Generation 0 is reserved so a default EventId never matches; skip it on
  // the (theoretical) 2^32 wrap-around of a single slot.
  if (++s.generation == 0) ++s.generation;
  free_slots_.push_back(slot);
}

EventId Engine::enqueue_slot(Seconds when, std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.occupied = true;
  const std::uint64_t seq = next_seq_++;
  s.trace_id = seq + 1;  // matches the pre-slab engine's monotonic event ids
  queue_.push(Entry{when, seq, slot, s.generation});
  ++live_;
  obs::bump(c_scheduled_);
  if (g_slab_live_ != nullptr) {
    g_slab_live_->set(static_cast<std::int64_t>(live_));
    g_slab_slots_->set(static_cast<std::int64_t>(slots_.size()));
  }
  if (trace_) {
    obs::Event e{obs::EventKind::EngineSchedule, now_};
    e.when = when;
    trace_->emit(e.with("id", static_cast<std::int64_t>(s.trace_id)));
  }
  return EventId{pack(slot, s.generation)};
}

EventId Engine::schedule(Seconds when, Callback fn) {
  DMSIM_ASSERT(when >= now_, "cannot schedule an event in the past");
  DMSIM_ASSERT(fn != nullptr, "event callback must be callable");
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[slot].fn = std::move(fn);
  return enqueue_slot(when, slot);
}

EventId Engine::schedule_typed(Seconds when, const EventPayload& payload) {
  DMSIM_ASSERT(when >= now_, "cannot schedule an event in the past");
  DMSIM_ASSERT(payload.type != EventType::None,
               "typed events must carry a concrete EventType");
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[slot].payload = payload;
  return enqueue_slot(when, slot);
}

void Engine::cancel(EventId id) {
  if (!id.valid()) return;
  const std::uint64_t slot_plus_one = id.value & 0xffffffffULL;
  if (slot_plus_one == 0 || slot_plus_one > slots_.size()) return;
  const auto slot = static_cast<std::uint32_t>(slot_plus_one - 1);
  const auto generation = static_cast<std::uint32_t>(id.value >> 32);
  Slot& s = slots_[slot];
  if (!s.occupied || s.generation != generation) return;  // fired or stale
  const std::uint64_t trace_id = s.trace_id;
  release_slot(slot);
  --live_;
  obs::bump(c_cancelled_);
  if (trace_) {
    trace_->emit(obs::Event{obs::EventKind::EngineCancel, now_}.with(
        "id", static_cast<std::int64_t>(trace_id)));
  }
}

bool Engine::step() {
  while (!queue_.empty()) {
    const Entry top = queue_.top();
    queue_.pop();
    if (!entry_live(top)) continue;  // lazily drop a cancelled entry
    Slot& s = slots_[top.slot];
    Callback fn = std::move(s.fn);
    // Copy out before releasing: the handler may schedule into this slot.
    const EventPayload payload = s.payload;
    const std::uint64_t trace_id = s.trace_id;
    release_slot(top.slot);
    --live_;
    DMSIM_ASSERT(top.time >= now_, "event queue went backwards in time");
    now_ = top.time;
    ++executed_;
    obs::bump(c_fired_);
    obs::record(s_events_, now_, 1);
    if (trace_) {
      trace_->emit(obs::Event{obs::EventKind::EngineFire, now_}.with(
          "id", static_cast<std::int64_t>(trace_id)));
    }
    if (payload.type != EventType::None) {
      DMSIM_ASSERT(handler_ != nullptr,
                   "typed event fired with no handler installed");
      handler_->on_event(payload);
    } else {
      fn();
    }
    return true;
  }
  return false;
}

std::uint64_t Engine::run(std::uint64_t max_events) {
  std::uint64_t n = 0;
  while (n < max_events && step()) ++n;
  return n;
}

std::uint64_t Engine::run_ready(Seconds until) {
  std::uint64_t n = 0;
  for (;;) {
    // Peek past cancelled entries without firing anything late.
    while (!queue_.empty() && !entry_live(queue_.top())) queue_.pop();
    if (queue_.empty() || queue_.top().time > until) break;
    if (step()) ++n;
  }
  return n;
}

std::uint64_t Engine::run_until(Seconds until) {
  const std::uint64_t n = run_ready(until);
  now_ = std::max(now_, until);
  return n;
}

template <class Self, class Ar>
void Engine::io(Self& self, Ar&& ar) {
  ar.section(kEngineSection, "engine");
  ar.f64(self.now_);
  ar.u64(self.next_seq_);
  ar.u64(self.executed_);
  std::uint64_t live = self.live_;
  ar.u64(live);
  std::uint64_t occupied = 0;
  ar.seq(self.slots_, [&](auto& s) {
    ar.boolean(s.occupied);
    ar.u32(s.generation);
    ar.require(s.generation != 0, "snapshot: slot generation 0 is reserved");
    if (!s.occupied) return;
    ++occupied;
    if (!Ar::kLoading && s.payload.type == EventType::None) {
      throw snapshot::SnapshotError(
          "snapshot: pending closure event (trace id " +
          std::to_string(s.trace_id) +
          ") is not serializable — production code must use "
          "schedule_typed()");
    }
    ar.u64(s.trace_id);
    ar.u8(s.payload.type);
    const auto type = static_cast<std::uint8_t>(s.payload.type);
    if (type == 0 || type > kMaxEventType) {
      throw snapshot::SnapshotError("snapshot: unknown event type " +
                                    std::to_string(int{type}));
    }
    ar.u32(s.payload.job);
    ar.u64(s.payload.index);
  });
  ar.require(occupied == live,
             "snapshot: occupied slot count does not match live event count");
  ar.seq(self.free_slots_, [&](auto& f) {
    ar.u32(f);
    ar.require(f < self.slots_.size() && !self.slots_[f].occupied,
               "snapshot: free list names a live slot");
  });
  // Live heap entries in internal heap order. Stale entries (cancelled, not
  // yet lazily popped) are skipped: dropping them now is exactly what the
  // running engine would eventually do, and fire order is unaffected
  // because pop order is a total order on the unique (time, seq) key.
  std::vector<Entry> entries;
  if constexpr (!Ar::kLoading) {
    entries = self.queue_.entries();
    std::erase_if(entries, [&](const Entry& e) { return !self.entry_live(e); });
    DMSIM_ASSERT(entries.size() == live,
                 "heap live entries out of sync with slab");
  }
  ar.seq(entries, [&](auto& e) {
    ar.f64(e.time);
    ar.u64(e.seq);
    ar.u32(e.slot);
    ar.u32(e.generation);
    ar.require(e.slot < self.slots_.size() && self.entry_live(e),
               "snapshot: heap entry refers to a dead slot");
    ar.require(!(e.time < self.now_), "snapshot: pending event in the past");
  });
  ar.require(entries.size() == live,
             "snapshot: heap entry count does not match live event count");
  if constexpr (Ar::kLoading) {
    self.queue_.clear();
    for (const Entry& e : entries) self.queue_.push(e);
    self.live_ = entries.size();
  }
}

void Engine::save_state(snapshot::Writer& writer) const {
  io(*this, snapshot::Saver(writer));
}

void Engine::restore_state(snapshot::Reader& reader) {
  io(*this, snapshot::Loader(reader));
}

}  // namespace dmsim::sim
