#include "snapshot/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <span>

#include "cluster/cluster.hpp"
#include "obs/counters.hpp"
#include "sched/scheduler.hpp"
#include "sim/engine.hpp"
#include "snapshot/format.hpp"
#include "snapshot/image.hpp"
#include "snapshot/snapshot.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dmsim::snapshot {

namespace {

[[nodiscard]] double elapsed_since(
    std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

void check_components(const Components& c) {
  DMSIM_ASSERT(c.engine != nullptr && c.cluster != nullptr &&
                   c.scheduler != nullptr,
               "checkpoint components must name engine, cluster and scheduler");
}

// Little-endian u32 at `offset` — the section tag each payload section
// leads with, lifted back out for the section table.
[[nodiscard]] std::uint32_t tag_at(std::string_view payload,
                                   std::size_t offset) {
  std::uint32_t tag = 0;
  for (int i = 0; i < 4; ++i) {
    tag |= static_cast<std::uint32_t>(static_cast<unsigned char>(
               payload[offset + static_cast<std::size_t>(i)]))
           << (8 * i);
  }
  return tag;
}

}  // namespace

namespace detail {

namespace {

template <class Snap, class Ar>
void io(Snap& snap, Ar&& ar) {
  ar.seq(snap.counters, [&](auto& c) {
    ar.str(c.name);
    ar.u64(c.value);
  });
  ar.seq(snap.gauges, [&](auto& g) {
    ar.str(g.name);
    ar.i64(g.value);
    ar.i64(g.high_water);
  });
  ar.seq(snap.histograms, [&](auto& h) {
    ar.str(h.name);
    ar.u64(h.count);
    ar.i64(h.sum);
    ar.i64(h.min);
    ar.i64(h.max);
    ar.seq(h.buckets, [&](auto& bucket) {
      ar.u32(bucket.first);
      ar.u64(bucket.second);
    });
  });
  ar.seq(snap.series, [&](auto& s) {
    ar.str(s.name);
    ar.f64(s.window_width);
    ar.seq(s.points, [&](auto& p) {
      ar.i64(p.window);
      ar.u64(p.count);
      ar.i64(p.sum);
      ar.i64(p.min);
      ar.i64(p.max);
    });
  });
}

}  // namespace

void save_counters_section(Writer& w, const obs::Counters* counters) {
  w.section(kCountersSection);
  w.boolean(counters != nullptr);
  if (counters == nullptr) return;
  const obs::CountersSnapshot snap = counters->snapshot();
  io(snap, Saver(w));
}

void restore_counters_section(Reader& r, obs::Counters* counters) {
  r.expect_section(kCountersSection, "counters");
  obs::CountersSnapshot snap;
  // An absent section (the saving run carried no registry) restores as an
  // empty snapshot, so replay-time bumps (workload submission) do not
  // linger as phantom counts.
  if (r.boolean()) io(snap, Loader(r));
  // A restore target without a registry simply drops the section.
  if (counters != nullptr) counters->restore(snap);
}

}  // namespace detail

void Stats::publish(obs::Counters& registry) const {
  registry.counter("sim.checkpoint.saves") = saves;
  registry.counter("sim.checkpoint.restores") = restores;
  registry.counter("sim.checkpoint.bytes_written") = bytes_written;
  registry.counter("sim.checkpoint.bytes_read") = bytes_read;
  // Phase timers, exported at microsecond resolution like the profiler.
  registry.counter("sim.checkpoint.save_micros") =
      static_cast<std::uint64_t>(save_seconds * 1e6);
  registry.counter("sim.checkpoint.restore_micros") =
      static_cast<std::uint64_t>(restore_seconds * 1e6);
  // Per-save high-water marks as gauges: the largest snapshot written and
  // the slowest single save, invisible in the accumulated totals above.
  registry.gauge("sim.checkpoint.bytes")
      .set(static_cast<std::int64_t>(max_save_bytes));
  registry.gauge("sim.checkpoint.save_us")
      .set(static_cast<std::int64_t>(max_save_seconds * 1e6));
}

std::uint64_t config_fingerprint(const cluster::Cluster& cl,
                                 const sched::SchedulerConfig& sc,
                                 const trace::Workload& jobs) {
  Writer w;
  // The hash input layout is frozen: the fingerprint is in every snapshot
  // header and in serve `info` replies, both pinned byte for byte by
  // checkpoint_golden_test and perfbench/identity.txt. So the layout only
  // grows by conditional appends that leave existing configurations' bytes
  // alone. Cluster topology + lender policy: node count, then (capacity,
  // cores, large) per node in id order.
  w.u32(static_cast<std::uint32_t>(cl.node_count()));
  const std::span<const MiB> capacity = cl.capacity_column();
  for (std::uint32_t i = 0; i < capacity.size(); ++i) {
    w.i64(capacity[i]);
    w.i64(cl.cores_of(NodeId{i}));
    w.boolean(cl.is_large(NodeId{i}));
  }
  w.u8(static_cast<std::uint8_t>(cl.lender_policy()));
  // Memory-tier topology — appended ONLY when non-degenerate, so a flat
  // topology hashes exactly as it did before tiers existed.
  if (cl.tiered()) {
    w.u32(static_cast<std::uint32_t>(cl.tiers().size()));
    for (const cluster::MemoryTier& t : cl.tiers()) {
      w.str(t.name);
      w.f64(t.latency_ns);
      w.f64(t.bandwidth_gbs);
      w.u8(static_cast<std::uint8_t>(t.scope));
    }
    for (const std::uint8_t t : cl.tier_column()) w.u8(t);
    for (const std::uint16_t rk : cl.rack_column()) w.u32(rk);
  }
  // Scheduler configuration.
  w.f64(sc.sched_interval);
  w.i64(sc.queue_depth);
  w.i64(sc.backfill_depth);
  w.boolean(sc.enable_backfill);
  w.u8(static_cast<std::uint8_t>(sc.backfill_mode));
  w.f64(sc.update_interval);
  w.u8(static_cast<std::uint8_t>(sc.update_mode));
  w.u8(static_cast<std::uint8_t>(sc.oom_handling));
  w.i64(sc.guaranteed_after_failures);
  w.i64(sc.priority_boost_per_failure);
  w.i64(sc.max_restarts);
  w.boolean(sc.enforce_walltime);
  w.f64(sc.sample_interval);
  // Monitor model — appended ONLY for non-oracle monitors, so an oracle
  // configuration hashes exactly as it did before monitors existed.
  if (sc.monitor.kind != monitor::MonitorKind::Oracle) {
    w.u8(static_cast<std::uint8_t>(sc.monitor.kind));
    w.f64(sc.monitor.relative_error);
    w.f64(sc.monitor.staleness);
    w.f64(sc.monitor.min_interval);
    w.f64(sc.monitor.max_interval);
    w.f64(sc.monitor.error_bound);
    w.f64(sc.monitor.overhead_us_per_region);
    w.u64(sc.monitor.seed);
  }
  // The full workload: any perturbation (different seed, different trace)
  // changes every downstream decision, so it all goes into the hash.
  w.u64(jobs.size());
  for (const trace::JobSpec& spec : jobs) {
    w.u32(spec.id.get());
    w.f64(spec.submit_time);
    w.i64(spec.num_nodes);
    w.i64(spec.requested_mem);
    w.f64(spec.duration);
    w.f64(spec.walltime);
    w.u32(static_cast<std::uint32_t>(spec.usage.size()));
    for (const trace::UsagePoint& p : spec.usage.points()) {
      w.f64(p.progress);
      w.i64(p.mem);
    }
    w.u32(static_cast<std::uint32_t>(spec.node_usage_scale.size()));
    for (const double s : spec.node_usage_scale) w.f64(s);
    w.i64(spec.app_profile);
    w.u32(spec.preceding_job.get());
    w.f64(spec.think_time);
  }
  return util::fnv1a(w.buffer());
}

std::uint64_t config_fingerprint(const Components& components) {
  check_components(components);
  return config_fingerprint(*components.cluster,
                            components.scheduler->config(),
                            components.scheduler->workload());
}

std::string hex_u64(std::uint64_t v) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i, v >>= 4) {
    s[static_cast<std::size_t>(i)] = kHex[v & 0xfU];
  }
  return s;
}

std::string save_bytes(const Components& components) {
  check_components(components);
  Writer payload;
  // Section boundaries, recorded as each component writes so the envelope
  // trailer can index the payload without re-parsing it.
  std::size_t offsets[5];
  offsets[0] = payload.buffer().size();
  components.engine->save_state(payload);
  offsets[1] = payload.buffer().size();
  components.cluster->save_state(payload);
  offsets[2] = payload.buffer().size();
  components.scheduler->save_state(payload);
  offsets[3] = payload.buffer().size();
  detail::save_counters_section(payload, components.counters);
  offsets[4] = payload.buffer().size();
  payload.section(detail::kEndSection);

  Writer out;
  for (const char c : detail::kMagic) out.u8(static_cast<std::uint8_t>(c));
  out.u32(kFormatVersion);
  out.u64(config_fingerprint(components));
  out.u64(payload.buffer().size());
  const std::uint64_t checksum = util::fnv1a(payload.buffer());
  std::string bytes = out.take();
  bytes += payload.buffer();
  Writer tail;
  tail.u64(checksum);
  // Section table: self-checksummed trailer AFTER the payload checksum (see
  // detail::kTocSection).
  tail.section(detail::kTocSection);
  constexpr std::uint32_t kSectionCount = 5;
  tail.u32(kSectionCount);
  const std::string_view view = payload.buffer();
  for (std::uint32_t i = 0; i < kSectionCount; ++i) {
    const std::size_t begin = offsets[i];
    const std::size_t end = i + 1 < kSectionCount ? offsets[i + 1]
                                                  : payload.buffer().size();
    tail.u32(tag_at(view, begin));
    tail.u64(begin);
    tail.u64(end - begin);
    tail.u64(util::fnv1a(view.substr(begin, end - begin)));
  }
  // Trailer checksum covers the trailer bytes only (the payload checksum
  // field precedes the trailer and already guards the payload).
  tail.u64(util::fnv1a(std::string_view(tail.buffer()).substr(8)));
  bytes += tail.buffer();
  return bytes;
}

void restore_bytes(std::string_view bytes, const Components& components) {
  check_components(components);
  Image::from_bytes(std::string(bytes))->materialize(components);
}

void save_file(const std::string& path, const Components& components,
               Stats* stats) {
  const auto start = std::chrono::steady_clock::now();
  const std::string bytes = save_bytes(components);
  // Write-then-rename so an interrupted save never clobbers the previous
  // (complete) snapshot with a truncated one. The temp file is fsynced
  // before the rename and the directory after it — otherwise a crash right
  // after "success" can surface a renamed-but-unwritten (truncated) file.
  const std::string tmp = path + ".tmp";
  {
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
      throw SnapshotError("snapshot: cannot open '" + tmp + "' for writing");
    }
    std::size_t written = 0;
    while (written < bytes.size()) {
      const ssize_t n =
          ::write(fd, bytes.data() + written, bytes.size() - written);
      if (n < 0) {
        ::close(fd);
        throw SnapshotError("snapshot: short write to '" + tmp + "'");
      }
      written += static_cast<std::size_t>(n);
    }
    if (::fsync(fd) != 0) {
      ::close(fd);
      throw SnapshotError("snapshot: cannot fsync '" + tmp + "'");
    }
    if (::close(fd) != 0) {
      throw SnapshotError("snapshot: short write to '" + tmp + "'");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw SnapshotError("snapshot: cannot rename '" + tmp + "' to '" + path +
                        "'");
  }
  {
    // Durability of the rename itself requires fsyncing the directory.
    const std::size_t slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash + 1);
    const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd >= 0) {
      // Some filesystems reject directory fsync; the rename is still atomic
      // there, so failure downgrades durability rather than the save.
      (void)::fsync(dfd);
      ::close(dfd);
    }
  }
  if (stats != nullptr) {
    ++stats->saves;
    stats->bytes_written += bytes.size();
    const double elapsed = elapsed_since(start);
    stats->save_seconds += elapsed;
    if (bytes.size() > stats->max_save_bytes) {
      stats->max_save_bytes = bytes.size();
    }
    if (elapsed > stats->max_save_seconds) stats->max_save_seconds = elapsed;
  }
}

void restore_file(const std::string& path, const Components& components,
                  Stats* stats) {
  const auto start = std::chrono::steady_clock::now();
  check_components(components);
  // Restores are usually several layers from the CLI flag that named the
  // file; without the path a "checksum mismatch" is unactionable. open()
  // names it in its own errors.
  const std::shared_ptr<const Image> image = Image::open(path);
  try {
    image->materialize(components);
  } catch (const SnapshotError& e) {
    throw SnapshotError("restoring '" + path + "': " + e.what());
  }
  if (stats != nullptr) {
    ++stats->restores;
    stats->bytes_read += image->size_bytes();
    stats->restore_seconds += elapsed_since(start);
  }
}

void run_with_checkpoints(const Components& components, const Plan& plan,
                          Stats* stats) {
  check_components(components);
  DMSIM_ASSERT(!plan.path.empty() || !plan.active(),
               "checkpoint plan with cuts needs a path");
  constexpr Seconds kInf = std::numeric_limits<Seconds>::infinity();
  std::vector<Seconds> cuts = plan.cuts;
  std::sort(cuts.begin(), cuts.end());
  std::size_t ci = 0;
  // Cuts at or before the clock were already taken by the run this one
  // resumed from; re-saving would capture the post-restore state and, worse,
  // loop forever on a cut that no event ever advances past.
  while (ci < cuts.size() && cuts[ci] <= components.engine->now()) ++ci;
  Seconds periodic = kInf;
  if (plan.every > 0.0) {
    periodic =
        (std::floor(components.engine->now() / plan.every) + 1.0) * plan.every;
  }
  for (;;) {
    const Seconds next_cut = ci < cuts.size() ? cuts[ci] : kInf;
    const Seconds target = std::min(next_cut, periodic);
    if (!std::isfinite(target)) {
      components.scheduler->run_ready(kInf);
      return;
    }
    // run_ready leaves the clock at the last fired event (<= target), which
    // is exactly the mid-run state of an uninterrupted run — the snapshot
    // below is indistinguishable from one cut by luck at this moment.
    components.scheduler->run_ready(target);
    if (next_cut <= target) ++ci;
    while (periodic <= target) periodic += plan.every;
    if (components.engine->empty()) return;  // drained: nothing to resume
    save_file(plan.path, components, stats);
  }
}

}  // namespace dmsim::snapshot
