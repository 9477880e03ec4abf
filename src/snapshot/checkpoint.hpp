// Checkpoint/restore orchestration.
//
// Stitches the per-component save_state/restore_state sections (engine,
// cluster, scheduler, counters) into one versioned, checksummed snapshot:
//
//   "DMSIMSNP" | u32 version | u64 config fingerprint | u64 payload size |
//   payload sections | u64 FNV-1a(payload) | section table
//
// The workload and system configuration are deliberately NOT serialized —
// they are regenerated deterministically from the run configuration, and
// the fingerprint (a hash over cluster topology, policy, scheduler config
// and every job spec) refuses a restore against anything else. This keeps
// snapshots small and makes "restore under a silently different config"
// a loud error instead of a divergent replay.
//
// Determinism contract: restoring a snapshot cut at time T and running to
// completion produces byte-identical results (JSON document, metrics,
// counters) to the uninterrupted run, and an NDJSON trace identical from
// the cut point onward. Saves are side-effect-free — every save path is
// const — so checkpointing cannot perturb the simulation it observes.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "trace/job_spec.hpp"
#include "util/units.hpp"

namespace dmsim::obs {
class Counters;
}
namespace dmsim::sim {
class Engine;
}
namespace dmsim::cluster {
class Cluster;
}
namespace dmsim::sched {
class Scheduler;
struct SchedulerConfig;
}

namespace dmsim::snapshot {

/// The one snapshot format: save_bytes writes it and restore reads nothing
/// else. Exposed so tools (dmsim_run --version, serve info replies) report
/// the real format instead of a hardcoded string. Snapshots are per-run
/// working files, so a layout change bumps the version and older files are
/// refused with a typed "unsupported version" error instead of being
/// converted. v5 is the first layout with every current section: the
/// columnar cluster ledger led by the memory-tier table, per-running-job
/// monitor fold state and the monitor's per-job state, and the section
/// table trailer (a file without one is refused too).
inline constexpr std::uint32_t kFormatVersion = 5;

/// The simulation objects a checkpoint spans. All pointers are borrowed;
/// `counters` may be nullptr (counter state is then neither saved nor
/// restored).
struct Components {
  sim::Engine* engine = nullptr;
  cluster::Cluster* cluster = nullptr;
  sched::Scheduler* scheduler = nullptr;
  obs::Counters* counters = nullptr;
};

/// Checkpoint activity counters + wall-clock phase timers. Kept OUT of the
/// simulation's counters registry: the registry is embedded in the JSON
/// result document, and a restored run performs a different number of
/// checkpoint operations than the uninterrupted run it must match byte for
/// byte.
struct Stats {
  std::uint64_t saves = 0;
  std::uint64_t restores = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t bytes_read = 0;
  double save_seconds = 0.0;
  double restore_seconds = 0.0;
  /// Largest single snapshot and slowest single save seen so far; exported
  /// as gauge high-water marks (per-save visibility the totals can't give).
  std::uint64_t max_save_bytes = 0;
  double max_save_seconds = 0.0;

  /// Export as sim.checkpoint.* into a (separate) counters registry:
  /// totals as counters plus `sim.checkpoint.bytes` / `sim.checkpoint.save_us`
  /// gauges carrying the per-save high-water marks.
  void publish(obs::Counters& registry) const;
};

/// When to cut checkpoints while driving a run (see run_with_checkpoints).
struct Plan {
  std::string path;            ///< snapshot file, overwritten on each save
  Seconds every = 0.0;         ///< periodic save interval; 0 disables
  std::vector<Seconds> cuts;   ///< additional explicit cut times

  [[nodiscard]] bool active() const noexcept {
    return every > 0.0 || !cuts.empty();
  }
};

/// Hash of everything a snapshot assumes but does not carry: cluster
/// topology + lender policy, scheduler config, and the full workload.
[[nodiscard]] std::uint64_t config_fingerprint(const Components& components);

/// Same hash computed from the raw configuration pieces, without live
/// components. Lets a serve loop fingerprint a scenario ONCE (cluster built
/// from config, base scheduler config, base workload) and fork images with
/// the cheap trusted compare instead of re-hashing per fork.
[[nodiscard]] std::uint64_t config_fingerprint(
    const cluster::Cluster& cluster, const sched::SchedulerConfig& config,
    const trace::Workload& workload);

/// `v` as 16 lowercase hex digits: how fingerprints and checksums are shown
/// (dmsim_run --snapshot-info, serve info replies and errors).
[[nodiscard]] std::string hex_u64(std::uint64_t v);

/// Serialize the full simulation state to snapshot bytes (envelope
/// included). Const in effect: the simulation is not perturbed.
[[nodiscard]] std::string save_bytes(const Components& components);

/// Restore simulation state from save_bytes output. The components must be
/// freshly constructed from the identical configuration with the workload
/// already submitted (fingerprint-enforced). Throws SnapshotError on
/// corruption, truncation, version or fingerprint mismatch.
void restore_bytes(std::string_view bytes, const Components& components);

/// save_bytes + atomic-ish file write (write temp, rename). Updates
/// `stats` (saves, bytes, timing) when non-null.
void save_file(const std::string& path, const Components& components,
               Stats* stats = nullptr);

/// Image::open + materialize; errors name the path. Updates `stats` when
/// non-null.
void restore_file(const std::string& path, const Components& components,
                  Stats* stats = nullptr);

/// Drive the scheduler to completion, saving a checkpoint to plan.path at
/// each cut: explicit `cuts` plus every `every` seconds of sim time. Cuts
/// at or before the current clock (e.g. the cut a restore resumed from) are
/// skipped, as is a save after the engine drains (there is nothing left to
/// resume). The caller must still call scheduler->finalize() afterwards.
void run_with_checkpoints(const Components& components, const Plan& plan,
                          Stats* stats = nullptr);

}  // namespace dmsim::snapshot
