#include "monitor/monitor.hpp"

#include <algorithm>
#include <cmath>

#include "snapshot/snapshot.hpp"
#include "util/error.hpp"

namespace dmsim::monitor {

namespace {

/// SplitMix64 finalizer: a well-mixed 64-bit hash for the noise sequence.
[[nodiscard]] std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Deterministic uniform in [0, 1) from (seed, job, update counter).
[[nodiscard]] double uniform01(std::uint64_t seed, std::uint32_t job,
                               std::uint64_t counter) noexcept {
  const std::uint64_t h =
      mix64(seed ^ mix64((static_cast<std::uint64_t>(job) << 32) ^ counter));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

[[nodiscard]] MiB clamp_mib(double value) noexcept {
  if (!(value > 0.0)) return 0;
  return static_cast<MiB>(std::llround(value));
}

/// Relative error of `est` against `truth`, with a 1-MiB floor so tiny
/// truths do not blow the ratio up.
[[nodiscard]] double relative_miss(MiB est, MiB truth) noexcept {
  const MiB diff = est > truth ? est - truth : truth - est;
  return static_cast<double>(diff) /
         static_cast<double>(std::max<MiB>(truth, 1));
}

/// Snapshot field lists of the stateful monitors (see snapshot::Saver).
template <class Counters, class Ar>
void counters_io(Counters& counters, Ar&& ar) {
  ar.map(
      counters, [&](std::uint32_t /*job*/, auto& n) { ar.u64(n); },
      "snapshot: duplicate sampled-monitor job");
}

template <class Jobs, class Ar>
void jobs_io(Jobs& jobs, Ar&& ar) {
  ar.map(
      jobs,
      [&](std::uint32_t /*job*/, auto& st) {
        ar.f64(st.interval);
        ar.u32(st.agreements);
        ar.seq(st.regions, [&](auto& region) {
          ar.f64(region.from);
          ar.f64(region.to);
          ar.i64(region.est);
        });
      },
      "snapshot: duplicate adaptive-monitor job");
}

}  // namespace

const char* to_string(MonitorKind kind) noexcept {
  switch (kind) {
    case MonitorKind::Oracle:
      return "oracle";
    case MonitorKind::Sampled:
      return "sampled";
    case MonitorKind::Adaptive:
      return "adaptive";
  }
  return "unknown";
}

double demand_window_end(double progress, Seconds lookahead, Seconds duration,
                         double slowdown) noexcept {
  if (!(duration > 0.0) || !(lookahead > 0.0)) return 1.0;
  const double end = progress + lookahead / (duration * slowdown);
  // NaN compares false, catching both poisoned inputs and inverted windows;
  // an overflowed (infinite) window degrades to "the rest of the job".
  if (!(end >= progress) || !std::isfinite(end)) return 1.0;
  return end;
}

MiB MemoryMonitor::plan_initial(JobId /*id*/, const trace::JobSpec& /*spec*/,
                                double /*progress*/, double /*slowdown*/,
                                Seconds /*first_gap*/) {
  return 0;  // no opinion before the first real sample: the request stands
}

void MemoryMonitor::on_job_stop(JobId /*id*/) {}

void MemoryMonitor::save_state(snapshot::Writer& /*writer*/) const {}

void MemoryMonitor::restore_state(snapshot::Reader& /*reader*/) {}

// ---------------------------------------------------------------------------
// OracleMonitor
// ---------------------------------------------------------------------------

Reading OracleMonitor::update(JobId /*id*/, const trace::JobSpec& spec,
                              double progress, double slowdown,
                              Seconds base_interval, bool /*interval_locked*/) {
  Reading r;
  r.next_interval = base_interval;
  const double end =
      demand_window_end(progress, base_interval, spec.duration, slowdown);
  r.demand = spec.usage.max_in(progress, end);
  return r;
}

MiB OracleMonitor::plan_initial(JobId /*id*/, const trace::JobSpec& spec,
                                double progress, double slowdown,
                                Seconds first_gap) {
  return spec.usage.max_in(
      progress, demand_window_end(progress, first_gap, spec.duration, slowdown));
}

// ---------------------------------------------------------------------------
// SampledMonitor
// ---------------------------------------------------------------------------

Reading SampledMonitor::update(JobId id, const trace::JobSpec& spec,
                               double progress, double slowdown,
                               Seconds base_interval, bool /*interval_locked*/) {
  Reading r;
  r.next_interval = base_interval;
  const double end =
      demand_window_end(progress, base_interval, spec.duration, slowdown);
  const MiB truth = spec.usage.max_in(progress, end);

  // Staleness: the estimate describes the window as it looked `staleness`
  // seconds ago, i.e. shifted back along the progress axis by the distance
  // the job covered in that time.
  double from = progress;
  double to = end;
  if (config_.staleness > 0.0 && spec.duration > 0.0) {
    const double shift = config_.staleness / (spec.duration * slowdown);
    if (std::isfinite(shift)) {
      from = std::max(0.0, progress - shift);
      to = std::max(from, end - shift);
    } else {
      from = 0.0;
      to = 0.0;
    }
  }
  const MiB observed = spec.usage.max_in(from, to);

  std::uint64_t& counter = counters_[id.get()];
  const double u = uniform01(config_.seed, id.get(), counter);
  ++counter;
  const double factor = 1.0 + config_.relative_error * (2.0 * u - 1.0);
  const MiB estimate = clamp_mib(static_cast<double>(observed) * factor);
  // Provision to the estimate's upper confidence bound: a monitor that knows
  // its error model adds that much headroom, so runtime OOMs happen only
  // when the actual miss (noise compounded with staleness) exceeds the
  // advertised bound — not on every coin-flip underestimate.
  r.demand = clamp_mib(static_cast<double>(estimate) *
                       (1.0 + config_.relative_error));
  r.abs_error = estimate > truth ? estimate - truth : truth - estimate;
  return r;
}

void SampledMonitor::on_job_stop(JobId id) { counters_.erase(id.get()); }

void SampledMonitor::save_state(snapshot::Writer& writer) const {
  counters_io(counters_, snapshot::Saver(writer));
}

void SampledMonitor::restore_state(snapshot::Reader& reader) {
  counters_io(counters_, snapshot::Loader(reader));
}

// ---------------------------------------------------------------------------
// AdaptiveMonitor
// ---------------------------------------------------------------------------

namespace {
/// Regions narrower than this are never split further: the progress axis is
/// [0, 1], so 2^-20 of it is far below any real usage-trace feature.
constexpr double kMinRegionWidth = 1e-6;
}  // namespace

AdaptiveMonitor::AdaptiveMonitor(MonitorConfig config) : config_(config) {
  DMSIM_ASSERT(config_.min_interval > 0.0,
               "adaptive monitor: min_interval must be positive");
  DMSIM_ASSERT(config_.max_interval >= config_.min_interval,
               "adaptive monitor: max_interval < min_interval");
  DMSIM_ASSERT(config_.error_bound > 0.0,
               "adaptive monitor: error_bound must be positive");
  DMSIM_ASSERT(config_.overhead_us_per_region >= 0.0,
               "adaptive monitor: negative overhead");
}

AdaptiveMonitor::JobState& AdaptiveMonitor::state_of(JobId id,
                                                     Seconds base_interval) {
  auto [it, inserted] = jobs_.try_emplace(id.get());
  if (inserted) {
    it->second.regions.push_back(Region{0.0, 1.0, 0});
    it->second.interval = std::clamp(base_interval, config_.min_interval,
                                     config_.max_interval);
  }
  return it->second;
}

Reading AdaptiveMonitor::update(JobId id, const trace::JobSpec& spec,
                                double progress, double slowdown,
                                Seconds base_interval, bool interval_locked) {
  JobState& st = state_of(id, base_interval);
  // In GlobalBatch mode a single timer drives every job, so the elapsed
  // period is always base_interval regardless of what the regions want.
  const Seconds period = interval_locked ? base_interval : st.interval;

  const double end =
      demand_window_end(progress, period, spec.duration, slowdown);
  const MiB truth = spec.usage.max_in(progress, end);

  // Probe every region overlapping the window at the overlap midpoint; the
  // probe becomes the region's belief and the window estimate is the maximum
  // belief across the overlap. Coarse regions blur narrow spikes — exactly
  // DAMON's accuracy/overhead trade.
  MiB estimate = 0;
  int touched = 0;
  bool any_overlap = false;
  for (Region& region : st.regions) {
    const double lo = std::max(region.from, progress);
    const double hi = std::min(region.to, std::min(end, 1.0));
    if (hi < lo) continue;
    region.est = spec.usage.at((lo + hi) * 0.5);
    estimate = std::max(estimate, region.est);
    ++touched;
    any_overlap = true;
  }
  if (!any_overlap) {
    estimate = spec.usage.at(std::clamp(progress, 0.0, 1.0));
    touched = 1;
  }

  // Split / merge and period adaptation.
  if (relative_miss(estimate, truth) > config_.error_bound) {
    std::vector<Region> next;
    next.reserve(std::min(st.regions.size() * 2, kMaxRegionsPerJob));
    std::size_t remaining = st.regions.size();
    for (const Region& region : st.regions) {
      --remaining;
      const bool overlaps = region.to >= progress && region.from <= end;
      const double width = region.to - region.from;
      // Split only while the final count (each unvisited region contributes
      // at least one) stays within the cap.
      if (overlaps && width > kMinRegionWidth &&
          next.size() + 2 + remaining <= kMaxRegionsPerJob) {
        const double mid = region.from + width * 0.5;
        next.push_back(Region{region.from, mid, region.est});
        next.push_back(Region{mid, region.to, region.est});
      } else {
        next.push_back(region);
      }
    }
    st.regions = std::move(next);
    st.agreements = 0;
    st.interval = std::max(config_.min_interval, st.interval * 0.5);
  } else {
    ++st.agreements;
    if (st.agreements >= 2) {
      // Merge adjacent regions whose beliefs agree within the bound.
      std::vector<Region>& regions = st.regions;
      std::size_t out = 0;
      for (std::size_t i = 1; i < regions.size(); ++i) {
        Region& prev = regions[out];
        const Region& cur = regions[i];
        if (relative_miss(prev.est, cur.est) <= config_.error_bound) {
          prev.to = cur.to;
          prev.est = std::max(prev.est, cur.est);
        } else {
          regions[++out] = cur;
        }
      }
      regions.resize(out + 1);
      st.interval = std::min(config_.max_interval, st.interval * 2.0);
      st.agreements = 0;
    }
  }

  Reading r;
  r.next_interval = interval_locked ? base_interval : st.interval;
  // Provision to the error bound the split/merge loop maintains: misses
  // beyond it (a spike thinner than the finest region, a stale belief)
  // surface as runtime OOMs.
  r.demand =
      clamp_mib(static_cast<double>(estimate) * (1.0 + config_.error_bound));
  r.abs_error = estimate > truth ? estimate - truth : truth - estimate;
  r.regions = static_cast<int>(st.regions.size());
  r.overhead_us = static_cast<std::int64_t>(
      std::llround(static_cast<double>(touched) * config_.overhead_us_per_region));
  // The charge is amortized over the period it bought: overhead seconds per
  // period seconds of useful work.
  const Seconds next_period = std::max(r.next_interval, config_.min_interval);
  r.overhead_factor =
      1.0 + (static_cast<double>(r.overhead_us) * 1e-6) / next_period;
  return r;
}

void AdaptiveMonitor::on_job_stop(JobId id) { jobs_.erase(id.get()); }

std::size_t AdaptiveMonitor::region_count(JobId id) const noexcept {
  const auto it = jobs_.find(id.get());
  return it == jobs_.end() ? 0 : it->second.regions.size();
}

void AdaptiveMonitor::save_state(snapshot::Writer& writer) const {
  jobs_io(jobs_, snapshot::Saver(writer));
}

void AdaptiveMonitor::restore_state(snapshot::Reader& reader) {
  jobs_io(jobs_, snapshot::Loader(reader));
}

std::unique_ptr<MemoryMonitor> make_monitor(const MonitorConfig& config) {
  switch (config.kind) {
    case MonitorKind::Oracle:
      return std::make_unique<OracleMonitor>();
    case MonitorKind::Sampled:
      return std::make_unique<SampledMonitor>(config);
    case MonitorKind::Adaptive:
      return std::make_unique<AdaptiveMonitor>(config);
  }
  DMSIM_ASSERT(false, "unknown monitor kind");
  return nullptr;
}

}  // namespace dmsim::monitor
