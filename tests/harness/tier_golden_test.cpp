// Golden flat-path identity: a degenerate one-tier topology must be
// indistinguishable — byte for byte — from the implicit flat pool every
// figure bench runs. This pins the tier model's load-bearing design rule:
// the flat pool is the one-tier case of the tiered code, and the Cluster
// constructor normalises a lone tier to latency and bandwidth factors of
// exactly 1.0, so a single-tier table, at the reference point or not,
// computes the flat pool's numbers. Three surfaces are compared:
//   * the full simulation JSON document (fig5/ablation-style export),
//   * the NDJSON event trace,
//   * the telemetry registry export,
// plus a fig5-style run_cells grid whose per-cell JSON must match.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/simulator.hpp"
#include "harness/sweep.hpp"
#include "metrics/json_export.hpp"
#include "obs/counters.hpp"
#include "obs/trace_sink.hpp"
#include "util/rng.hpp"

namespace dmsim {
namespace {

trace::Workload tier_golden_workload(const slowdown::AppPool& apps) {
  util::Rng rng(20260808);
  trace::Workload jobs;
  Seconds submit = 0.0;
  for (std::uint32_t i = 1; i <= 64; ++i) {
    trace::JobSpec j;
    j.id = JobId{i};
    submit += rng.uniform() * 50.0;
    j.submit_time = submit;
    j.num_nodes = 1 + static_cast<int>(rng() % 6);
    j.duration = 120.0 + rng.uniform() * 800.0;
    j.walltime = j.duration * 2.0;
    const MiB peak = gib(6) + static_cast<MiB>(rng() % gib(100));
    j.usage = trace::UsageTrace(std::vector<trace::UsagePoint>{
        {0.0, peak / 3}, {0.3, (peak * 2) / 3}, {0.65, peak}});
    // Under-requests force remote growth, so borrow edges (the surface the
    // tier refactor touched most) are live through the whole run.
    j.requested_mem = rng.uniform() < 0.35 ? (peak * 3) / 4 : peak;
    j.app_profile = apps.match(j.num_nodes, j.duration);
    jobs.push_back(std::move(j));
  }
  return jobs;
}

struct RunArtifacts {
  std::string json;
  std::string ndjson;
  std::string telemetry;
};

RunArtifacts run_once(const SimulationConfig& cfg, const trace::Workload& jobs,
                      const slowdown::AppPool& apps) {
  std::ostringstream trace_out;
  obs::NdjsonSink sink(trace_out);
  obs::Counters counters;
  Simulator sim(cfg, jobs, &apps, &sink, &counters);
  const SimulationResult result = sim.run();
  EXPECT_TRUE(result.valid);
  RunArtifacts out;
  out.json = metrics::to_json(result);
  out.ndjson = trace_out.str();
  out.telemetry = metrics::telemetry_to_json(counters.snapshot());
  return out;
}

TEST(TierGolden, SingleTierTopologyIsByteIdenticalToFlat) {
  const slowdown::AppPool apps =
      slowdown::AppPool::synthetic(util::Rng(17), 16);
  const trace::Workload jobs = tier_golden_workload(apps);

  SimulationConfig flat;
  flat.system.total_nodes = 48;
  flat.system.pct_large_nodes = 0.25;
  flat.policy = policy::PolicyKind::Dynamic;
  flat.sched.backfill_mode = sched::BackfillMode::Easy;
  flat.sched.sample_interval = 200.0;
  flat.sched.update_interval = 150.0;

  const RunArtifacts ref = run_once(flat, jobs, apps);
  ASSERT_FALSE(ref.ndjson.empty());

  // An explicit one-tier table at the reference point — the flat pool
  // spelled out.
  SimulationConfig one_tier = flat;
  one_tier.system.tiers = {cluster::default_memory_tier()};
  one_tier.system.tier_fractions = {1.0};
  const RunArtifacts spelled = run_once(one_tier, jobs, apps);
  EXPECT_EQ(spelled.json, ref.json);
  EXPECT_EQ(spelled.ndjson, ref.ndjson);
  EXPECT_EQ(spelled.telemetry, ref.telemetry);

  // A one-tier table NOT at the reference point: still byte-identical,
  // because the constructor gives a lone tier factors of 1.0 — a single
  // tier has no "other tier" to be slower than.
  SimulationConfig odd_tier = flat;
  odd_tier.system.tiers = {
      cluster::MemoryTier{"odd", 900.0, 25.0, cluster::TierScope::CrossRack}};
  odd_tier.system.tier_fractions = {1.0};
  const RunArtifacts odd = run_once(odd_tier, jobs, apps);
  EXPECT_EQ(odd.json, ref.json);
  EXPECT_EQ(odd.ndjson, ref.ndjson);
  EXPECT_EQ(odd.telemetry, ref.telemetry);
}

TEST(TierGolden, MultiTierTopologyActuallyDiverges) {
  // Sanity check on the golden above: the comparison is not vacuous — a
  // real two-tier topology DOES change the simulation.
  const slowdown::AppPool apps =
      slowdown::AppPool::synthetic(util::Rng(17), 16);
  const trace::Workload jobs = tier_golden_workload(apps);

  SimulationConfig flat;
  flat.system.total_nodes = 48;
  flat.system.pct_large_nodes = 0.25;
  flat.policy = policy::PolicyKind::Dynamic;
  flat.sched.sample_interval = 200.0;
  flat.sched.update_interval = 150.0;
  const RunArtifacts ref = run_once(flat, jobs, apps);

  SimulationConfig tiered = flat;
  tiered.system.tiers = {
      cluster::MemoryTier{"local", 150.0, 90.0, cluster::TierScope::Local},
      cluster::MemoryTier{"far", 1200.0, 40.0, cluster::TierScope::CrossRack}};
  tiered.system.tier_fractions = {0.5, 0.5};
  const RunArtifacts two = run_once(tiered, jobs, apps);
  EXPECT_NE(two.json, ref.json);
}

TEST(TierGolden, Fig5StyleCellGridMatchesPerCell) {
  // The same identity through the bench plumbing (run_cells + the per-cell
  // JSON serializer the figure goldens compare): flat grid vs single-tier
  // grid, every cell byte-equal.
  const slowdown::AppPool apps =
      slowdown::AppPool::synthetic(util::Rng(17), 16);
  const trace::Workload jobs = tier_golden_workload(apps);

  std::vector<harness::CellConfig> flat_cells;
  std::vector<harness::CellConfig> tiered_cells;
  for (const double mix : {0.25, 0.75}) {
    for (const auto policy :
         {policy::PolicyKind::Static, policy::PolicyKind::Dynamic}) {
      harness::CellConfig cell;
      cell.system.total_nodes = 32;
      cell.system.pct_large_nodes = mix;
      cell.policy = policy;
      cell.collect_telemetry = true;
      flat_cells.push_back(cell);
      cell.system.tiers = {cluster::default_memory_tier()};
      cell.system.tier_fractions = {1.0};
      tiered_cells.push_back(cell);
    }
  }
  const auto flat_results = harness::run_cells(flat_cells, jobs, apps, 2);
  const auto tiered_results = harness::run_cells(tiered_cells, jobs, apps, 2);
  ASSERT_EQ(flat_results.size(), tiered_results.size());
  for (std::size_t i = 0; i < flat_results.size(); ++i) {
    EXPECT_EQ(harness::cell_result_to_json(tiered_results[i]),
              harness::cell_result_to_json(flat_results[i]))
        << "cell " << i;
    EXPECT_EQ(metrics::telemetry_to_json(tiered_results[i].telemetry),
              metrics::telemetry_to_json(flat_results[i].telemetry))
        << "cell " << i;
  }
}

}  // namespace
}  // namespace dmsim
