// The what-if serving subsystem: JSON protocol parsing, the warm-image LRU
// cache, and the Server's core determinism contract — the same query against
// the same image yields a byte-identical reply at any thread count. The
// ServeConcurrency suite doubles as the TSan target for the shared-image
// model: many threads fork one refcounted snapshot::Image while the cache
// evicts underneath them.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/scenario.hpp"
#include "harness/sweep.hpp"
#include "metrics/json_export.hpp"
#include "serve/image_cache.hpp"
#include "serve/json.hpp"
#include "serve/query.hpp"
#include "snapshot/snapshot.hpp"
#include "workload/generator.hpp"

namespace dmsim {
namespace {

// ---------------------------------------------------------------- ServeJson

TEST(ServeJson, ParsesTheFullValueGrammar) {
  const serve::JsonValue v = serve::json_parse(
      R"({"op":"submit","n":-2.5e2,"ok":true,"none":null,)"
      R"("jobs":[{"id":1},{"id":2}],"text":"a\"b\\c\n\u0041"})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.str_or("op", ""), "submit");
  EXPECT_EQ(v.num_or("n", 0.0), -250.0);
  EXPECT_TRUE(v.bool_or("ok", false));
  ASSERT_NE(v.find("none"), nullptr);
  EXPECT_EQ(v.find("none")->kind, serve::JsonValue::Kind::Null);
  const serve::JsonValue* jobs = v.find("jobs");
  ASSERT_NE(jobs, nullptr);
  ASSERT_TRUE(jobs->is_array());
  ASSERT_EQ(jobs->array.size(), 2U);
  EXPECT_EQ(jobs->array[1].int_or("id", 0), 2);
  EXPECT_EQ(v.str_or("text", ""), "a\"b\\c\nA");
  // Keys keep insertion order (deterministic re-serialization).
  EXPECT_EQ(v.object.front().first, "op");
}

TEST(ServeJson, RejectsMalformedInput) {
  EXPECT_THROW((void)serve::json_parse(""), serve::ServeError);
  EXPECT_THROW((void)serve::json_parse("{\"a\":1} trailing"),
               serve::ServeError);
  EXPECT_THROW((void)serve::json_parse("{\"a\":}"), serve::ServeError);
  EXPECT_THROW((void)serve::json_parse("{\"a\" 1}"), serve::ServeError);
  EXPECT_THROW((void)serve::json_parse("\"unterminated"), serve::ServeError);
  EXPECT_THROW((void)serve::json_parse("\"bad \\x escape\""),
               serve::ServeError);
  EXPECT_THROW((void)serve::json_parse("[1,]"), serve::ServeError);
  // Typed accessor on the wrong kind throws; absent key falls back.
  const serve::JsonValue v = serve::json_parse("{\"s\":\"x\"}");
  EXPECT_THROW((void)v.num_or("s", 0.0), serve::ServeError);
  EXPECT_EQ(v.num_or("missing", 7.0), 7.0);
}

TEST(ServeJson, EscapesRoundTrip) {
  const std::string raw = "line\none \"two\" \\three\t";
  const std::string quoted = "\"" + metrics::json_escape(raw) + "\"";
  EXPECT_EQ(serve::json_parse(quoted).string, raw);
}

// --------------------------------------------------------------- ServeQuery

TEST(ServeQuery, SubmitDefaultsAndValidation) {
  const sched::SchedulerConfig base;
  const serve::Query q = serve::parse_query(
      R"({"op":"submit","id":"q1","jobs":[)"
      R"({"id":9001,"num_nodes":2,"mem_mib":4096,"duration":600}]})",
      base);
  EXPECT_EQ(q.op, serve::QueryOp::Submit);
  EXPECT_EQ(q.id, "q1");
  ASSERT_EQ(q.extra_jobs.size(), 1U);
  const trace::JobSpec& job = q.extra_jobs.front();
  EXPECT_EQ(job.id.get(), 9001U);
  EXPECT_EQ(job.num_nodes, 2);
  EXPECT_EQ(job.requested_mem, 4096);
  EXPECT_EQ(job.duration, 600.0);
  EXPECT_EQ(job.walltime, 1200.0);       // defaults to 2x duration
  EXPECT_EQ(job.peak_usage(), 4096);     // used_mib defaults to mem_mib
  EXPECT_FALSE(q.sched.has_value());

  // Required/ranged fields.
  EXPECT_THROW((void)serve::parse_query(R"({"op":"submit"})", base),
               serve::ServeError);
  EXPECT_THROW((void)serve::parse_query(R"({"op":"submit","jobs":[]})", base),
               serve::ServeError);
  EXPECT_THROW(
      (void)serve::parse_query(
          R"({"op":"submit","jobs":[{"num_nodes":1,"mem_mib":1,"duration":1}]})",
          base),
      serve::ServeError);  // id required
  EXPECT_THROW(
      (void)serve::parse_query(
          R"({"op":"submit","jobs":[{"id":1,"mem_mib":0,"duration":1}]})",
          base),
      serve::ServeError);  // mem_mib > 0
  EXPECT_THROW(
      (void)serve::parse_query(
          R"({"op":"submit","jobs":[{"id":1,"mem_mib":8,"used_mib":9,"duration":1}]})",
          base),
      serve::ServeError);  // used <= mem
  EXPECT_THROW(
      (void)serve::parse_query(
          R"({"op":"submit","jobs":[{"id":1,"mem_mib":8,"duration":10,"walltime":5}]})",
          base),
      serve::ServeError);  // walltime >= duration
}

TEST(ServeQuery, PolicyTopologyAndSchedSwap) {
  const sched::SchedulerConfig base;
  const serve::Query race = serve::parse_query(
      R"({"op":"policy","policies":["baseline","static","dynamic"]})", base);
  ASSERT_EQ(race.policies.size(), 3U);
  EXPECT_EQ(race.policies[0], policy::PolicyKind::Baseline);
  EXPECT_EQ(race.policies[1], policy::PolicyKind::Static);
  EXPECT_EQ(race.policies[2], policy::PolicyKind::Dynamic);
  EXPECT_THROW((void)serve::parse_query(R"({"op":"policy","policies":[]})",
                                        base),
               serve::ServeError);
  EXPECT_THROW((void)serve::parse_query(
                   R"({"op":"policy","policies":["bogus"]})", base),
               serve::ServeError);

  const serve::Query topo = serve::parse_query(
      R"({"op":"topology","add_nodes":4,"capacity_mib":65536,"cores":48})",
      base);
  ASSERT_EQ(topo.extra_nodes.size(), 4U);
  EXPECT_EQ(topo.extra_nodes[0].capacity, 65536);
  EXPECT_EQ(topo.extra_nodes[0].cores, 48);
  EXPECT_TRUE(topo.extra_nodes[0].large);  // default classification
  EXPECT_THROW((void)serve::parse_query(
                   R"({"op":"topology","add_nodes":0,"capacity_mib":1})",
                   base),
               serve::ServeError);

  // The sched swap copies the daemon's base config and applies only the
  // named overrides.
  const serve::Query swap = serve::parse_query(
      R"({"op":"baseline","sched":{"sched_interval":60,"queue_depth":7}})",
      base);
  ASSERT_TRUE(swap.sched.has_value());
  EXPECT_EQ(swap.sched->sched_interval, 60.0);
  EXPECT_EQ(swap.sched->queue_depth, 7);
  EXPECT_EQ(swap.sched->update_interval, base.update_interval);
  EXPECT_EQ(swap.sched->backfill_depth, base.backfill_depth);

  EXPECT_THROW((void)serve::parse_query(R"({"op":"reboot"})", base),
               serve::ServeError);
  EXPECT_THROW((void)serve::parse_query("not json", base), serve::ServeError);
}

// -------------------------------------------------------- scenario plumbing

struct ServeFixture {
  workload::SyntheticWorkload generated;
  harness::CellConfig cell;
  std::string snap_path;

  static ServeFixture make(const char* file_tag, int total_nodes = 32) {
    ServeFixture f;
    workload::SyntheticWorkloadConfig wcfg;
    wcfg.cirne.num_jobs = 60;
    wcfg.cirne.system_nodes = 32;
    wcfg.cirne.max_job_nodes = 8;
    wcfg.seed = 5150;
    f.generated = workload::generate_synthetic(wcfg);
    f.cell.system.total_nodes = total_nodes;
    f.cell.system.pct_large_nodes = 0.5;
    f.cell.policy = policy::PolicyKind::Dynamic;
    f.snap_path =
        (std::filesystem::path(::testing::TempDir()) / file_tag).string();
    std::remove(f.snap_path.c_str());

    const harness::CellResult reference =
        harness::run_cell(f.cell, f.generated.jobs, f.generated.apps);
    EXPECT_TRUE(reference.valid);
    harness::CellConfig saver = f.cell;
    saver.checkpoint = harness::CheckpointSpec{
        f.snap_path, 0.0, {reference.summary.last_end / 3.0}, false};
    (void)harness::run_cell(saver, f.generated.jobs, f.generated.apps);
    EXPECT_TRUE(std::filesystem::exists(f.snap_path));
    return f;
  }

  [[nodiscard]] serve::ServeScenario scenario() const {
    serve::ServeScenario s;
    s.system = cell.system;
    s.policy = cell.policy;
    s.sched = cell.sched;
    s.jobs = generated.jobs;
    s.apps = &generated.apps;
    s.snapshot_path = snap_path;
    return s;
  }
};

// --------------------------------------------------------------- ServeCache

TEST(ServeCache, LruEvictionKeepsInFlightImagesAlive) {
  const ServeFixture f = ServeFixture::make("serve_cache.snap");
  const std::string a = f.snap_path + ".a";
  const std::string b = f.snap_path + ".b";
  const std::string c = f.snap_path + ".c";
  for (const std::string& copy : {a, b, c}) {
    std::filesystem::copy_file(f.snap_path, copy,
                               std::filesystem::copy_options::overwrite_existing);
  }

  serve::ImageCache cache(2);
  const auto image_a = cache.get(a);
  EXPECT_EQ(cache.misses(), 1U);
  (void)cache.get(a);
  EXPECT_EQ(cache.hits(), 1U);
  (void)cache.get(b);
  EXPECT_EQ(cache.size(), 2U);
  EXPECT_EQ(cache.evictions(), 0U);

  // Third path evicts the LRU entry (a — b is more recent).
  (void)cache.get(c);
  EXPECT_EQ(cache.size(), 2U);
  EXPECT_EQ(cache.evictions(), 1U);

  // The evicted image stays fully usable through the held reference.
  EXPECT_FALSE(image_a->payload().empty());
  EXPECT_EQ(image_a->fingerprint(), cache.get(b)->fingerprint());

  // Re-querying the evicted path is a miss (re-open), not an error.
  const std::uint64_t misses_before = cache.misses();
  (void)cache.get(a);
  EXPECT_EQ(cache.misses(), misses_before + 1);

  EXPECT_THROW((void)cache.get(f.snap_path + ".missing"),
               snapshot::SnapshotError);
  for (const std::string& p : {f.snap_path, a, b, c}) std::remove(p.c_str());
}

// -------------------------------------------------------------- ServeServer

TEST(ServeServer, AnswersQueriesAndRefusesBadOnes) {
  const ServeFixture f = ServeFixture::make("serve_server.snap");
  serve::ServerOptions opts;
  opts.threads = 2;
  serve::Server server(f.scenario(), opts);

  const std::string info = server.handle_line(R"({"op":"info"})");
  EXPECT_NE(info.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(info.find("\"base_fingerprint\""), std::string::npos);
  EXPECT_EQ(server.handle_line(R"({"op":"info"})"), info);

  const std::string baseline =
      server.handle_line(R"({"op":"baseline","id":"b0"})");
  EXPECT_NE(baseline.find("\"id\":\"b0\""), std::string::npos);
  EXPECT_NE(baseline.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(baseline.find("\"completed\""), std::string::npos);

  const std::string race = server.handle_line(
      R"({"op":"policy","policies":["static","dynamic"]})");
  EXPECT_NE(race.find("\"results\":["), std::string::npos);
  EXPECT_NE(race.find("\"policy\":\"static\""), std::string::npos);
  EXPECT_NE(race.find("\"policy\":\"dynamic\""), std::string::npos);

  // Errors come back as replies, never as thrown exceptions or aborts:
  // malformed JSON, id collisions with the base workload (which would trip
  // an assert deeper in the scheduler), within-query duplicates, unknown
  // snapshot paths.
  EXPECT_NE(server.handle_line("garbage").find("\"status\":\"error\""),
            std::string::npos);
  const std::string collide = server.handle_line(
      R"({"op":"submit","jobs":[{"id":3,"mem_mib":1024,"duration":60}]})");
  EXPECT_NE(collide.find("\"status\":\"error\""), std::string::npos);
  const std::string dup = server.handle_line(
      R"({"op":"submit","jobs":[{"id":9001,"mem_mib":1024,"duration":60},)"
      R"({"id":9001,"mem_mib":1024,"duration":60}]})");
  EXPECT_NE(dup.find("\"status\":\"error\""), std::string::npos);
  const std::string missing = server.handle_line(
      R"({"op":"baseline","snapshot":"/nonexistent/image.snap"})");
  EXPECT_NE(missing.find("\"status\":\"error\""), std::string::npos);

  std::remove(f.snap_path.c_str());
}

TEST(ServeServer, RefusesImagesFromAnotherConfiguration) {
  const ServeFixture f = ServeFixture::make("serve_fp_base.snap");
  // Same workload, different topology: fingerprints must differ, and the
  // server must refuse the foreign image loudly instead of simulating it.
  const ServeFixture other = ServeFixture::make("serve_fp_other.snap", 48);
  serve::Server server(f.scenario(), serve::ServerOptions{});
  const std::string reply = server.handle_line(
      R"({"op":"baseline","snapshot":")" + other.snap_path + "\"}");
  EXPECT_NE(reply.find("\"status\":\"error\""), std::string::npos);
  EXPECT_NE(reply.find("different configuration"), std::string::npos);
  std::remove(f.snap_path.c_str());
  std::remove(other.snap_path.c_str());
}

TEST(ServeServer, RunOnceDrainsUntilShutdown) {
  const ServeFixture f = ServeFixture::make("serve_once.snap");
  serve::Server server(f.scenario(), serve::ServerOptions{});
  std::istringstream in(
      "{\"op\":\"info\"}\n"
      "\n"  // blank lines are skipped
      "not json\n"
      "{\"op\":\"shutdown\"}\n"
      "{\"op\":\"info\"}\n");  // never reached: shutdown stops the drain
  std::ostringstream out;
  const std::size_t answered = server.run_once(in, out);
  EXPECT_EQ(answered, 3U);
  EXPECT_TRUE(server.shutdown_requested());
  std::istringstream lines(out.str());
  std::string line;
  std::vector<std::string> replies;
  while (std::getline(lines, line)) replies.push_back(line);
  ASSERT_EQ(replies.size(), 3U);
  EXPECT_NE(replies[1].find("\"status\":\"error\""), std::string::npos);
  EXPECT_NE(replies[2].find("\"stopping\":true"), std::string::npos);
  std::remove(f.snap_path.c_str());
}

// --------------------------------------------------------- ServeConcurrency

// The tentpole determinism contract and satellite TSan target in one: many
// threads fork the same warm image (through a capacity-1 cache that keeps
// evicting under them) and every reply must be byte-identical to a serial,
// single-threaded server's answer.
TEST(ServeConcurrency, ThreadedRepliesMatchSerialByteForByte) {
  const ServeFixture f = ServeFixture::make("serve_conc.snap");
  // Two byte-identical copies of the image under different paths: alternating
  // queries between them forces continuous evictions in a capacity-1 cache
  // while forks of the evicted image are still running.
  const std::string alt = f.snap_path + ".alt";
  std::filesystem::copy_file(f.snap_path, alt,
                             std::filesystem::copy_options::overwrite_existing);

  const std::vector<std::string> queries = {
      R"({"op":"baseline"})",
      R"({"op":"baseline","snapshot":")" + alt + "\"}",
      R"({"op":"submit","jobs":[{"id":9001,"num_nodes":2,"mem_mib":4096,)"
      R"("duration":1000,"walltime":4000}]})",
      R"({"op":"topology","add_nodes":4,"capacity_mib":65536})",
      R"({"op":"policy","policies":["static","dynamic"]})",
      R"({"op":"baseline","sched":{"sched_interval":60}})",
  };

  std::vector<std::string> golden;
  {
    serve::ServerOptions serial;
    serial.threads = 1;
    serial.cache_images = 4;
    serve::Server server(f.scenario(), serial);
    for (const std::string& q : queries) {
      golden.push_back(server.handle_line(q));
      EXPECT_NE(golden.back().find("\"status\":\"ok\""), std::string::npos);
    }
  }

  serve::ServerOptions opts;
  opts.threads = 4;
  opts.cache_images = 1;  // maximum eviction pressure
  serve::Server server(f.scenario(), opts);
  constexpr int kThreads = 4;
  constexpr int kIterations = 2;
  std::vector<std::vector<std::string>> got(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int iter = 0; iter < kIterations; ++iter) {
        // Stagger starting offsets so threads hit different queries (and
        // different images) at the same time.
        for (std::size_t i = 0; i < queries.size(); ++i) {
          const std::size_t pick =
              (i + static_cast<std::size_t>(t)) % queries.size();
          got[static_cast<std::size_t>(t)].push_back(
              server.handle_line(queries[pick]) + "|" +
              std::to_string(pick));
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();

  for (const std::vector<std::string>& thread_replies : got) {
    ASSERT_EQ(thread_replies.size(), queries.size() * kIterations);
    for (const std::string& tagged : thread_replies) {
      const std::size_t bar = tagged.rfind('|');
      ASSERT_NE(bar, std::string::npos);
      const std::size_t pick = std::stoul(tagged.substr(bar + 1));
      EXPECT_EQ(tagged.substr(0, bar), golden[pick]);
    }
  }
  EXPECT_GT(server.cache().evictions(), 0U);

  std::remove(f.snap_path.c_str());
  std::remove(alt.c_str());
}

}  // namespace
}  // namespace dmsim
