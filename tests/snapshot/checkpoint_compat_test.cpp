// Snapshot format contracts. save_bytes writes format v5 with its section
// table, and the reader accepts exactly that. Pinned here:
//   * a full v5 snapshot round-trips — flat and tiered — with restore +
//     re-save byte-identical, and the header carries version 5,
//   * any other header version (an older v4 file included) is refused with
//     "unsupported version", and a file without the section table with a
//     typed SnapshotError,
//   * the cluster section cross-checks the tier topology and rejects an
//     out-of-range ledger,
//   * corrupt payloads, truncation, bad magic and out-of-range versions are
//     rejected loudly before any component state is touched, and file-level
//     restore errors name the offending path.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "policy/policy.hpp"
#include "sched/scheduler.hpp"
#include "sim/engine.hpp"
#include "slowdown/model.hpp"
#include "snapshot/checkpoint.hpp"
#include "snapshot/image.hpp"
#include "snapshot/snapshot.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace dmsim {
namespace {

cluster::ClusterConfig small_config() {
  return cluster::make_cluster_config(8, gib(64), 4, gib(128));
}

/// Two jobs with local shares and borrow edges: enough ledger structure for
/// a cluster section that carries slots and edges.
void populate(cluster::Cluster& c) {
  const JobId j1{1};
  const JobId j2{2};
  c.assign_job(j1, std::vector<NodeId>{NodeId{0}, NodeId{1}});
  (void)c.grow_local(j1, NodeId{0}, gib(60));
  (void)c.grow_remote(j1, NodeId{0}, gib(20));
  (void)c.grow_local(j1, NodeId{1}, gib(10));
  c.assign_job(j2, std::vector<NodeId>{NodeId{9}});
  (void)c.grow_local(j2, NodeId{9}, gib(100));
  (void)c.grow_remote(j2, NodeId{9}, gib(8));
}

TEST(SnapshotCompat, RejectsOutOfRangeLedger) {
  // local + lent beyond capacity must be caught at restore, not later.
  const cluster::ClusterConfig cfg = small_config();
  cluster::Cluster c(cfg);
  snapshot::Writer w;
  w.section(snapshot::section_tag('C', 'L', 'U', 'S'));
  const std::size_t n = c.node_count();
  w.u32(static_cast<std::uint32_t>(n));
  w.u32(static_cast<std::uint32_t>(c.tiers().size()));
  for (const cluster::MemoryTier& t : c.tiers()) {
    w.str(t.name);
    w.f64(t.latency_ns);
    w.f64(t.bandwidth_gbs);
    w.u8(static_cast<std::uint8_t>(t.scope));
  }
  for (const std::uint8_t t : c.tier_column()) w.u8(t);
  for (const std::uint16_t r : c.rack_column()) w.u32(r);
  for (std::size_t i = 0; i < n; ++i) w.u32(NodeId::kInvalid);
  for (std::size_t i = 0; i < n; ++i) {
    w.i64(i == 0 ? gib(1024) : 0);  // node 0 claims 1 TiB used on 64 GiB
  }
  for (std::size_t i = 0; i < n; ++i) w.i64(0);
  w.u32(0);  // no jobs
  w.i64(gib(1024));
  w.i64(0);
  w.u64(0);

  snapshot::Reader r(w.buffer());
  try {
    c.restore_state(r);
    FAIL() << "out-of-range ledger restored";
  } catch (const snapshot::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("node ledger out of range"),
              std::string::npos)
        << e.what();
  }
}

TEST(SnapshotCompat, V4RejectsMismatchedTierTopology) {
  // A snapshot written by a tiered cluster must refuse to restore into the
  // same node layout under a different tier table.
  cluster::ClusterConfig cfg = small_config();
  cfg.tiers = {cluster::MemoryTier{"near", 150.0, 90.0,
                                   cluster::TierScope::Local},
               cluster::MemoryTier{"far", 900.0, 40.0,
                                   cluster::TierScope::CrossRack}};
  for (std::size_t i = 0; i < cfg.nodes.size(); ++i) {
    cfg.nodes[i].tier = i < 6 ? 0 : 1;
  }
  cluster::Cluster src(cfg);
  populate(src);
  snapshot::Writer w;
  src.save_state(w);

  {  // different tier latency
    cluster::ClusterConfig other = cfg;
    other.tiers[1].latency_ns = 901.0;
    cluster::Cluster dst(other);
    snapshot::Reader r(w.buffer());
    EXPECT_THROW(dst.restore_state(r), snapshot::SnapshotError);
  }
  {  // different node-to-tier assignment
    cluster::ClusterConfig other = cfg;
    other.nodes[0].tier = 1;
    cluster::Cluster dst(other);
    snapshot::Reader r(w.buffer());
    EXPECT_THROW(dst.restore_state(r), snapshot::SnapshotError);
  }
  {  // the matching topology restores fine
    cluster::Cluster dst(cfg);
    snapshot::Reader r(w.buffer());
    dst.restore_state(r);
    EXPECT_TRUE(r.at_end());
    dst.check_invariants();
  }
}

/// A minimal full simulation (engine + cluster + scheduler) for whole-file
/// snapshot tests, advanced to a busy mid-point.
struct MiniSim {
  explicit MiniSim(const workload::SyntheticWorkload& w, bool tiered = false) {
    cluster::ClusterConfig ccfg =
        cluster::make_cluster_config(12, gib(64), 4, gib(128));
    if (tiered) {
      ccfg.tiers = {cluster::MemoryTier{"near", 150.0, 90.0,
                                        cluster::TierScope::Local},
                    cluster::MemoryTier{"far", 1200.0, 40.0,
                                        cluster::TierScope::CrossRack}};
      for (std::size_t i = 0; i < ccfg.nodes.size(); ++i) {
        ccfg.nodes[i].tier = i < 8 ? 0 : 1;
        ccfg.nodes[i].rack = i < 8 ? 0 : 1;
      }
    }
    cluster_ = std::make_unique<cluster::Cluster>(std::move(ccfg));
    policy_ = policy::make_policy(policy::PolicyKind::Dynamic);
    sched::SchedulerConfig cfg;
    cfg.sample_interval = 300.0;
    scheduler_ = std::make_unique<sched::Scheduler>(
        engine_, *cluster_, *policy_, &w.apps, cfg, nullptr);
    scheduler_->submit_workload(w.jobs);
  }
  [[nodiscard]] snapshot::Components components() noexcept {
    return {&engine_, cluster_.get(), scheduler_.get(), nullptr};
  }
  sim::Engine engine_;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<policy::AllocationPolicy> policy_;
  std::unique_ptr<sched::Scheduler> scheduler_;
};

workload::SyntheticWorkload mini_workload(double target_load = 0.8) {
  workload::SyntheticWorkloadConfig cfg;
  cfg.cirne.num_jobs = 48;
  cfg.cirne.system_nodes = 16;
  cfg.cirne.max_job_nodes = 4;
  cfg.cirne.target_load = target_load;
  cfg.pct_large_jobs = 0.5;
  cfg.overestimation = 0.4;
  cfg.seed = 20260808;
  return workload::generate_synthetic(cfg);
}

[[nodiscard]] std::uint32_t header_version(const std::string& bytes) {
  // Layout: 8 magic bytes, then the format version as little-endian u32.
  return static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[8])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[9])) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[10]))
             << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[11]))
             << 24;
}

TEST(SnapshotCompat, V5RoundTripIsByteIdentical) {
  const workload::SyntheticWorkload w = mini_workload();
  MiniSim source(w);
  MiniSim target(w);
  (void)source.scheduler_->run_ready(15000.0);

  const std::string bytes = snapshot::save_bytes(source.components());
  EXPECT_EQ(header_version(bytes), snapshot::kFormatVersion);
  EXPECT_EQ(header_version(bytes), 5U);

  snapshot::restore_bytes(bytes, target.components());
  target.cluster_->set_debug_parity(true);
  target.cluster_->check_invariants();
  EXPECT_EQ(snapshot::save_bytes(target.components()), bytes);
}

TEST(SnapshotCompat, OlderFormatVersionIsRefused) {
  // A v4 header in front of v5 bytes: the reader names the version instead
  // of misparsing the sections.
  const workload::SyntheticWorkload w = mini_workload();
  MiniSim source(w);
  std::string v4 = snapshot::save_bytes(source.components());
  v4[8] = '\x04';  // version u32 little-endian at offset 8
  ASSERT_EQ(header_version(v4), 4U);

  MiniSim target(w);
  try {
    snapshot::restore_bytes(v4, target.components());
    FAIL() << "v4 header accepted";
  } catch (const snapshot::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported version 4"),
              std::string::npos)
        << e.what();
  }
}

TEST(SnapshotCompat, FileWithoutSectionTableIsRefused) {
  // Cutting the trailer leaves header + payload + payload checksum, all
  // intact: the layout of files written before the section table existed.
  const workload::SyntheticWorkload w = mini_workload();
  MiniSim source(w);
  (void)source.scheduler_->run_ready(15000.0);
  const std::string bytes = snapshot::save_bytes(source.components());
  const std::size_t payload_size =
      snapshot::Image::from_bytes(bytes)->payload().size();
  const std::string no_toc = bytes.substr(0, 28 + payload_size + 8);

  MiniSim target(w);
  try {
    snapshot::restore_bytes(no_toc, target.components());
    FAIL() << "file without a section table accepted";
  } catch (const snapshot::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("section table"), std::string::npos)
        << e.what();
  }
}

TEST(SnapshotCompat, TieredRoundTripIsByteIdentical) {
  // Same contract on a two-tier topology: the fingerprint (which now covers
  // the tier table) matches between identically configured sims, the tier
  // columns survive the trip, and re-save is byte-identical.
  const workload::SyntheticWorkload w = mini_workload();
  MiniSim source(w, /*tiered=*/true);
  MiniSim target(w, /*tiered=*/true);
  (void)source.scheduler_->run_ready(15000.0);

  const std::string bytes = snapshot::save_bytes(source.components());
  snapshot::restore_bytes(bytes, target.components());
  target.cluster_->set_debug_parity(true);
  target.cluster_->check_invariants();
  EXPECT_EQ(snapshot::save_bytes(target.components()), bytes);

  // A flat sim must refuse the tiered snapshot at the fingerprint.
  MiniSim flat(w);
  EXPECT_THROW(snapshot::restore_bytes(bytes, flat.components()),
               snapshot::SnapshotError);
}

TEST(SnapshotCompat, BusyCutRestoresLedgerAndQueueExactly) {
  // mini_workload()'s first job arrives after the 15000 s cut the tests
  // above use, so those cuts carry no job state. Here the same jobs arrive
  // at the generator's highest offered load, and the cut holds running
  // jobs, pending jobs and borrow edges on both topologies: the restored
  // ledger must pass the full audit (per-tier indexes rebuilt from live
  // edges) and re-save every section but the engine's byte for byte. The
  // engine section is left out because its re-save is not byte-identical
  // at such a cut: saving drops cancelled heap entries, the remaining
  // order need not be a heap, and restore re-pushes it into another layout.
  const workload::SyntheticWorkload w = mini_workload(/*target_load=*/1.5);
  for (const bool tiered : {false, true}) {
    SCOPED_TRACE(tiered ? "tiered" : "flat");
    MiniSim source(w, tiered);
    MiniSim target(w, tiered);
    (void)source.scheduler_->run_ready(65000.0);
    ASSERT_GT(source.scheduler_->running_count(), 0U);
    ASSERT_GT(source.scheduler_->pending_count(), 0U);
    ASSERT_GT(source.cluster_->total_lent(), 0);

    const std::string bytes = snapshot::save_bytes(source.components());
    snapshot::restore_bytes(bytes, target.components());
    target.cluster_->set_debug_parity(true);
    target.cluster_->check_invariants();
    EXPECT_EQ(target.cluster_->total_lent(), source.cluster_->total_lent());
    for (std::uint8_t t = 0; t < source.cluster_->tier_count(); ++t) {
      EXPECT_EQ(target.cluster_->tier_lent(t), source.cluster_->tier_lent(t));
      EXPECT_EQ(target.cluster_->tier_free(t), source.cluster_->tier_free(t));
    }

    const std::string again = snapshot::save_bytes(target.components());
    const auto saved = snapshot::Image::from_bytes(bytes)->sections();
    const auto resaved = snapshot::Image::from_bytes(again)->sections();
    ASSERT_EQ(saved.size(), resaved.size());
    for (std::size_t i = 0; i < saved.size(); ++i) {
      ASSERT_EQ(saved[i].name, resaved[i].name);
      if (saved[i].name == "ENGI") continue;
      EXPECT_EQ(saved[i].size, resaved[i].size) << saved[i].name;
      EXPECT_EQ(saved[i].checksum, resaved[i].checksum) << saved[i].name;
    }
  }
}

TEST(SnapshotCompat, CorruptSnapshotsAreRejected) {
  const workload::SyntheticWorkload w = mini_workload();
  MiniSim source(w);
  (void)source.scheduler_->run_ready(15000.0);
  const std::string bytes = snapshot::save_bytes(source.components());
  MiniSim target(w);
  const snapshot::Components dst = target.components();

  {  // payload bit flip -> checksum mismatch
    std::string bad = bytes;
    bad[40] = static_cast<char>(bad[40] ^ 0x5A);
    EXPECT_THROW(snapshot::restore_bytes(bad, dst), snapshot::SnapshotError);
  }
  {  // truncation
    EXPECT_THROW(
        snapshot::restore_bytes(bytes.substr(0, bytes.size() - 4), dst),
        snapshot::SnapshotError);
  }
  {  // bad magic
    std::string bad = bytes;
    bad[0] = 'X';
    EXPECT_THROW(snapshot::restore_bytes(bad, dst), snapshot::SnapshotError);
  }
  {  // versions below (v1) and above (v6) the one format
    for (const char v : {'\x01', '\x06'}) {
      std::string bad = bytes;
      bad[8] = v;
      EXPECT_THROW(snapshot::restore_bytes(bad, dst), snapshot::SnapshotError);
    }
  }
  // The pristine bytes still restore after all those rejections.
  snapshot::restore_bytes(bytes, dst);
  target.cluster_->check_invariants();
}

TEST(SnapshotCompat, EveryBitFlipAndTruncationIsRefused) {
  // Mutation sweep over a small mid-run snapshot. FNV-1a catches every
  // single-byte change, so no single-bit flip and no truncation may restore:
  // payload and section-table flips must fail at their checksum, header
  // flips at the magic, version, size or fingerprint check. A mutant must
  // never be accepted, crash or trip an assert.
  // Hand-built jobs that overflow their 64 GiB hosts mid-run, so the cut
  // carries running jobs, borrow edges, pending work and live events.
  workload::SyntheticWorkload w;
  for (std::uint32_t i = 0; i < 6; ++i) {
    trace::JobSpec j;
    j.id = JobId{i + 1};
    j.submit_time = 60.0 * i;
    j.num_nodes = 2 + static_cast<int>(i % 2);
    j.requested_mem = gib(96);
    j.duration = 4000.0 + 500.0 * i;
    j.walltime = 2.0 * j.duration;
    j.usage = trace::UsageTrace({{0.0, gib(40)}, {0.5, gib(90)}});
    w.jobs.push_back(std::move(j));
  }
  MiniSim source(w);
  (void)source.scheduler_->run_ready(500.0);
  ASSERT_GT(source.scheduler_->running_count(), 0U);
  ASSERT_GT(source.scheduler_->pending_count(), 0U);
  ASSERT_GT(source.cluster_->total_lent(), 0);
  const std::string bytes = snapshot::save_bytes(source.components());
  const std::size_t payload_end =
      28 + snapshot::Image::from_bytes(bytes)->payload().size();

  MiniSim target(w);
  const auto refusal = [&](const std::string& mutant) -> std::string {
    try {
      snapshot::Image::from_bytes(mutant)->materialize(target.components());
    } catch (const snapshot::SnapshotError& e) {
      return e.what();
    }
    return "";
  };
  const auto expected_cause = [&](std::size_t byte) -> const char* {
    if (byte < 8) return "bad magic";
    if (byte < 12) return "unsupported version";
    if (byte < 20) return "fingerprint mismatch";
    if (byte < 28) return nullptr;  // size: truncated or checksum, see below
    if (byte < payload_end + 8) return "payload checksum mismatch";
    return "section table checksum mismatch";
  };
  for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutant = bytes;
      mutant[byte] = static_cast<char>(mutant[byte] ^ (1 << bit));
      const std::string why = refusal(mutant);
      const auto has = [&](const char* text) {
        return why.find(text) != std::string::npos;
      };
      const char* cause = expected_cause(byte);
      // A changed payload size overruns the file or moves the checksum
      // field, which then reads other bytes.
      const bool ok = cause != nullptr ? has(cause)
                                       : has("truncated payload") ||
                                             has("payload checksum mismatch");
      ASSERT_TRUE(ok) << "byte " << byte << " bit " << bit << ": '" << why
                      << "'";
    }
  }
  for (std::size_t size = 0; size < bytes.size(); ++size) {
    ASSERT_NE(refusal(bytes.substr(0, size)), "") << "truncated to " << size;
  }
  // The untouched bytes still restore, onto a fresh target.
  MiniSim fresh(w);
  snapshot::Image::from_bytes(bytes)->materialize(fresh.components());
  EXPECT_EQ(snapshot::save_bytes(fresh.components()), bytes);
}

TEST(SnapshotCompat, RestoreFileErrorsNameThePath) {
  const workload::SyntheticWorkload w = mini_workload();
  MiniSim target(w);
  const std::string path =
      testing::TempDir() + "dmsim_compat_corrupt.snap";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "NOTASNAPSHOT";
  }
  try {
    snapshot::restore_file(path, target.components());
    FAIL() << "corrupt file restored";
  } catch (const snapshot::SnapshotError& e) {
    // The wrapped message must carry both the path (so `dmsim_run
    // --restore` failures are actionable) and the underlying cause.
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("bad magic"), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dmsim
