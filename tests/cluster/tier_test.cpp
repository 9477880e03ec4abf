// Memory-tier topology: the tier table, per-tier indexes and accounting,
// nearest-tier lender selection, the shrink_remote_edge primitive, and the
// policy-layer migration pass. A flat topology is the one-tier case of the
// same code and a lone tier is normalised to the flat pool (the
// byte-identity goldens pin the full-simulation side; this file pins the
// ledger-level contracts).
#include <gtest/gtest.h>

#include <vector>

#include "cluster/cluster.hpp"
#include "policy/policy.hpp"
#include "util/units.hpp"

namespace dmsim::cluster {
namespace {

constexpr MiB kGiB = 1024;

/// 6 nodes in 3 tiers of 2: ids {0,1} local (fast), {2,3} rack CXL,
/// {4,5} cross-rack (slow). Lender policy LeastFree keeps in-tier order
/// deterministic and capacity-independent.
ClusterConfig three_tier_config(MiB capacity = 64 * kGiB) {
  ClusterConfig cfg = make_cluster_config(6, capacity, 0, 0);
  cfg.tiers = {MemoryTier{"local", 150.0, 90.0, TierScope::Local},
               MemoryTier{"rack", 450.0, 64.0, TierScope::Rack},
               MemoryTier{"far", 1200.0, 40.0, TierScope::CrossRack}};
  for (std::size_t i = 0; i < cfg.nodes.size(); ++i) {
    cfg.nodes[i].tier = static_cast<std::uint8_t>(i / 2);
    cfg.nodes[i].rack = static_cast<std::uint16_t>(i / 2);
  }
  cfg.lender_policy = LenderPolicy::LeastFree;
  return cfg;
}

TEST(Tiers, FlatConfigGetsTheImplicitDefaultTier) {
  const Cluster c(make_cluster_config(4, 64 * kGiB, 0, 0));
  EXPECT_FALSE(c.tiered());
  ASSERT_EQ(c.tier_count(), 1u);
  const MemoryTier& t = c.tiers()[0];
  EXPECT_EQ(t.name, "pool");
  EXPECT_DOUBLE_EQ(t.latency_ns, kTierReferenceLatencyNs);
  EXPECT_DOUBLE_EQ(t.bandwidth_gbs, kTierReferenceBandwidthGbs);
  // Exactly at the reference point: both factors are exactly 1, so the
  // slowdown model's tier-weighted math reproduces the flat numbers.
  EXPECT_EQ(c.tier_latency_factor(0), 1.0);
  EXPECT_EQ(c.tier_bandwidth_factor(0), 1.0);
  EXPECT_EQ(c.tier_of(NodeId{0}), 0);
  EXPECT_EQ(c.rack_of(NodeId{0}), 0);
  // The one tier's totals are the whole ledger's.
  EXPECT_EQ(c.tier_free(0), c.total_free());
  EXPECT_EQ(c.tier_lent(0), 0);
}

TEST(Tiers, LoneTierIsTheFlatPoolWhateverItsSpeed) {
  // A single tier away from the reference point has no other tier to be
  // slower than: the constructor normalises both factors to exactly 1.
  ClusterConfig cfg = make_cluster_config(4, 64 * kGiB, 0, 0);
  cfg.tiers = {MemoryTier{"odd", 900.0, 25.0, TierScope::CrossRack}};
  const Cluster c(std::move(cfg));
  EXPECT_FALSE(c.tiered());
  ASSERT_EQ(c.tier_count(), 1u);
  EXPECT_EQ(c.tiers()[0].latency_ns, 900.0);
  EXPECT_EQ(c.tier_latency_factor(0), 1.0);
  EXPECT_EQ(c.tier_bandwidth_factor(0), 1.0);
}

TEST(Tiers, FlatTierTotalsTrackTheLedger) {
  Cluster c(make_cluster_config(4, 64 * kGiB, 0, 0));
  const auto expect_tracks = [&c] {
    EXPECT_EQ(c.tier_free(0), c.total_free());
    EXPECT_EQ(c.tier_lent(0), c.total_lent());
  };
  const JobId job{1};
  const NodeId host{0};
  c.assign_job(job, std::vector<NodeId>{host});
  ASSERT_EQ(c.grow_local(job, host, 48 * kGiB), 48 * kGiB);
  expect_tracks();
  ASSERT_EQ(c.grow_remote(job, host, 100 * kGiB), 100 * kGiB);
  EXPECT_EQ(c.tier_lent(0), 100 * kGiB);
  expect_tracks();
  ASSERT_EQ(c.shrink_remote(job, host, 30 * kGiB), 30 * kGiB);
  expect_tracks();
  const NodeId lender = c.slot(job, host).remote.front().first;
  ASSERT_GT(c.shrink_remote_edge(job, host, lender, 10 * kGiB), 0);
  expect_tracks();
  ASSERT_EQ(c.shrink_local(job, host, 8 * kGiB), 8 * kGiB);
  expect_tracks();
  c.check_invariants();
  c.finish_job(job);
  EXPECT_EQ(c.tier_lent(0), 0);
  EXPECT_EQ(c.tier_free(0), c.total_capacity());
  expect_tracks();
  c.check_invariants();
}

TEST(Tiers, TierTableAndColumnsAreExposed) {
  const Cluster c(three_tier_config());
  EXPECT_TRUE(c.tiered());
  ASSERT_EQ(c.tier_count(), 3u);
  EXPECT_GT(c.tier_latency_factor(2), c.tier_latency_factor(0));
  ASSERT_EQ(c.tier_column().size(), 6u);
  EXPECT_EQ(c.tier_of(NodeId{0}), 0);
  EXPECT_EQ(c.tier_of(NodeId{3}), 1);
  EXPECT_EQ(c.tier_of(NodeId{5}), 2);
  EXPECT_EQ(c.rack_of(NodeId{4}), 2);
  // tier_order_ is latency-ascending; this table is already sorted.
  ASSERT_EQ(c.tier_order().size(), 3u);
  EXPECT_EQ(c.tier_order()[0], 0);
  EXPECT_EQ(c.tier_order()[2], 2);
  for (std::uint8_t t = 0; t < 3; ++t) {
    EXPECT_EQ(c.tier_free(t), 2 * 64 * kGiB) << int(t);
    EXPECT_EQ(c.tier_lent(t), 0) << int(t);
  }
  c.check_invariants();
}

TEST(Tiers, GrowRemoteFillsNearestTierFirst) {
  Cluster c(three_tier_config());
  const JobId job{1};
  const NodeId host{4};  // far tier, so every other node can lend
  c.assign_job(job, std::vector<NodeId>{host});
  // Borrow more than the local tier can lend: 2 * 64 GiB from tier 0, the
  // remainder must spill into tier 1 — and never reach tier 2.
  const MiB want = 3 * 64 * kGiB;
  ASSERT_EQ(c.grow_remote(job, host, want), want);
  EXPECT_EQ(c.tier_lent(0), 2 * 64 * kGiB);
  EXPECT_EQ(c.tier_lent(1), 64 * kGiB);
  EXPECT_EQ(c.tier_lent(2), 0);
  EXPECT_EQ(c.tier_free(0), 0);
  // Every borrow edge carries its lender's tier tag.
  for (const Cluster::BorrowEdge& e : c.borrowers_of(NodeId{0})) {
    EXPECT_EQ(e.tier, 0);
    EXPECT_EQ(e.job, job);
  }
  c.check_invariants();
  c.finish_job(job);
  EXPECT_EQ(c.tier_lent(0), 0);
  EXPECT_EQ(c.tier_lent(1), 0);
  c.check_invariants();
}

TEST(Tiers, ShrinkRemoteEdgeTargetsOneLender) {
  Cluster c(three_tier_config());
  const JobId job{1};
  const NodeId host{5};
  c.assign_job(job, std::vector<NodeId>{host});
  ASSERT_EQ(c.grow_remote(job, host, 3 * 64 * kGiB), 3 * 64 * kGiB);
  // Tier 1 holds one lent slab; shrink half of it, the other edges stay.
  const NodeId lender{2};
  const MiB before = c.tier_lent(1);
  EXPECT_EQ(c.shrink_remote_edge(job, host, lender, 32 * kGiB), 32 * kGiB);
  EXPECT_EQ(c.tier_lent(1), before - 32 * kGiB);
  EXPECT_EQ(c.tier_lent(0), 2 * 64 * kGiB);
  // Over-asking releases only what the edge holds; a missing edge is 0.
  EXPECT_EQ(c.shrink_remote_edge(job, host, lender, 1024 * kGiB), 32 * kGiB);
  EXPECT_EQ(c.shrink_remote_edge(job, host, lender, kGiB), 0);
  c.check_invariants();
  c.finish_job(job);
}

TEST(Tiers, MigrationPromotesTowardNearerTiers) {
  Cluster c(three_tier_config());
  const JobId filler{1};
  const NodeId host{5};
  // Fill tiers 0 and 1 via a filler job so the victim's borrow lands far.
  c.assign_job(filler, std::vector<NodeId>{NodeId{4}});
  ASSERT_EQ(c.grow_remote(filler, NodeId{4}, 3 * 64 * kGiB), 3 * 64 * kGiB);
  const JobId job{2};
  c.assign_job(job, std::vector<NodeId>{host});
  // Only tier 1's leftover (64 GiB) and the host's own tier remain; borrow
  // 64 GiB — it lands in tier 1 (node 3).
  ASSERT_EQ(c.grow_remote(job, host, 64 * kGiB), 64 * kGiB);
  ASSERT_EQ(c.tier_lent(1), 2 * 64 * kGiB);

  // Nothing nearer is free yet: migration is a no-op.
  policy::MigrateOutcome out = policy::migrate_to_nearest_tier(c, job, host);
  EXPECT_EQ(out.migrated, 0);
  EXPECT_FALSE(out.remote_changed);

  // The filler releases everything; now tier 0 has 2 * 64 GiB free and the
  // victim's single 64 GiB edge promotes fully into tier 0.
  c.finish_job(filler);
  out = policy::migrate_to_nearest_tier(c, job, host);
  EXPECT_EQ(out.migrated, 64 * kGiB);
  EXPECT_TRUE(out.remote_changed);
  EXPECT_EQ(c.tier_lent(0), 64 * kGiB);
  EXPECT_EQ(c.tier_lent(1), 0);
  c.check_invariants();

  // Already in the nearest tier: promoting again moves nothing.
  out = policy::migrate_to_nearest_tier(c, job, host);
  EXPECT_EQ(out.migrated, 0);
  c.finish_job(job);
}

TEST(Tiers, MigrationIsANoOpOnFlatTopologies) {
  Cluster c(make_cluster_config(4, 64 * kGiB, 0, 0));
  const JobId job{1};
  c.assign_job(job, std::vector<NodeId>{NodeId{0}});
  ASSERT_GT(c.grow_remote(job, NodeId{0}, 8 * kGiB), 0);
  const policy::MigrateOutcome out =
      policy::migrate_to_nearest_tier(c, job, NodeId{0});
  EXPECT_EQ(out.migrated, 0);
  EXPECT_FALSE(out.remote_changed);
  c.finish_job(job);
}

TEST(Tiers, UnsortedTierTableIsWalkedLatencyAscending) {
  // Declare the far tier first: tier_order_ must still walk 150 -> 450 ->
  // 1200 ns, so lender selection starts at tier id 2.
  ClusterConfig cfg = make_cluster_config(6, 64 * kGiB, 0, 0);
  cfg.tiers = {MemoryTier{"far", 1200.0, 40.0, TierScope::CrossRack},
               MemoryTier{"rack", 450.0, 64.0, TierScope::Rack},
               MemoryTier{"local", 150.0, 90.0, TierScope::Local}};
  for (std::size_t i = 0; i < cfg.nodes.size(); ++i) {
    cfg.nodes[i].tier = static_cast<std::uint8_t>(2 - i / 2);
  }
  Cluster c(std::move(cfg));
  ASSERT_EQ(c.tier_order().size(), 3u);
  EXPECT_EQ(c.tier_order()[0], 2);  // local
  EXPECT_EQ(c.tier_order()[1], 1);
  EXPECT_EQ(c.tier_order()[2], 0);  // far
  const JobId job{1};
  const NodeId host{0};  // tier id 2 = "local" (ids {0,1}); node 1 lends
  c.assign_job(job, std::vector<NodeId>{host});
  ASSERT_EQ(c.grow_remote(job, host, 32 * kGiB), 32 * kGiB);
  // The grant must come from the nearest tier: "local" (tier id 2).
  EXPECT_EQ(c.tier_lent(2), 32 * kGiB);
  EXPECT_EQ(c.tier_lent(1), 0);
  EXPECT_EQ(c.tier_lent(0), 0);
  c.check_invariants();
  c.finish_job(job);
}

TEST(Tiers, InvariantsHoldUnderChurnWithDebugParity) {
  Cluster c(three_tier_config(16 * kGiB));
  c.set_debug_parity(true);
  std::uint32_t next = 1;
  std::vector<JobId> running;
  for (int round = 0; round < 50; ++round) {
    const NodeId host{static_cast<std::uint32_t>(round % 6)};
    if (!c.is_idle(host)) {
      // Finish whichever job occupies the host.
      const JobId victim = c.node(host).running_job;
      c.finish_job(victim);
      std::erase(running, victim);
    }
    if (!c.can_host(host)) {
      // Idle but lending (a memory node): leave it be this round.
      c.check_invariants();
      continue;
    }
    const JobId job{next++};
    c.assign_job(job, std::vector<NodeId>{host});
    (void)c.grow_local(job, host, (static_cast<MiB>(round % 3) + 1) * kGiB);
    (void)c.grow_remote(job, host, (static_cast<MiB>(round % 5) + 1) * kGiB);
    if (round % 4 == 1) {
      (void)c.shrink_remote(job, host, kGiB);
    }
    if (round % 7 == 2) {
      (void)policy::migrate_to_nearest_tier(c, job, host);
    }
    running.push_back(job);
    c.check_invariants();
  }
  for (const JobId job : running) c.finish_job(job);
  c.check_invariants();
  EXPECT_EQ(c.total_lent(), 0);
}

}  // namespace
}  // namespace dmsim::cluster
