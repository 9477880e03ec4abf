// The serve-whatif workload, and the serve probe the simulation workloads
// reuse in their layer pass.
//
// A serve::Server on localhost answers a seeded mix of info / baseline /
// submit / policy / topology queries against three snapshot cuts of one
// mid-size run. The image cache holds two images, so queries on the third
// cut re-open (parse and validate) an image beside warm forks. All load
// comes from this process: at most nproc client connections beside a pool
// of at most nproc simulation threads.
//
// Phases, each counted sent / succeeded / failed:
//   warm-up     a few closed-loop queries per connection, not timed;
//   open loop   Poisson arrivals at a fixed rate (about 30% of the
//               closed-loop capacity measured on a shared 4-vCPU host; at
//               70% the p99 spread between runs was 30-90%), each reply
//               timed from the moment its query was due;
//   closed loop every connection sends its next query when the previous
//               reply arrives: saturated replies per second.
// Every reply is compared byte for byte with a serial handle_line golden
// computed during set-up.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <map>
#include <mutex>
#include <stdexcept>
#include <sstream>
#include <thread>

#include "harness/config_file.hpp"
#include "perfbench.hpp"
#include "serve/query.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workload/generator.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kSynthJobs = 150;
/// Open-loop arrival rate of the serve workload, queries per second: about
/// 30% of the ~250 replies/s the closed loop reaches on a 4-vCPU host.
constexpr double kServeRate = 75.0;
constexpr double kOpenShare = 0.75;   ///< of --seconds
constexpr double kClosedShare = 0.2;  ///< of --seconds
constexpr int kWarmupPerConnection = 3;
/// The open loop runs until at least this many queries went out, so the
/// p99 always has ten samples beyond it.
constexpr std::size_t kMinOpenReplies = 1500;
constexpr int kSetups = 15;
/// sim_wall_s: serial forks, timed in groups of one per CPU; the figure is
/// the median over groups of the mean fork time within a group. Single
/// forks are short enough to land wholly in a fast or a slow spell of a
/// shared host, which makes their median jump between the two.
constexpr int kForkGroups = 45;
constexpr int kLayerForks = 20;  ///< instrumented forks in the layer pass
constexpr std::size_t kProbeRounds = 4;  ///< serve probe: queries per template
constexpr std::array<const char*, 5> kOps = {"info", "baseline", "submit",
                                             "policy", "topology"};

[[nodiscard]] std::size_t connections() {
  return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
}

struct Template {
  std::size_t op = 0;  ///< index into kOps
  std::string line;
  std::string golden;
  std::uint64_t engine_events = 0;  ///< simulated by the reply's forks
};

[[nodiscard]] std::uint64_t sum_engine_events(const std::string& reply) {
  static constexpr std::string_view kKey = "\"engine_events\":";
  std::uint64_t total = 0;
  for (std::size_t at = reply.find(kKey); at != std::string::npos;
       at = reply.find(kKey, at + 1)) {
    total += std::strtoull(reply.c_str() + at + kKey.size(), nullptr, 10);
  }
  return total;
}

/// Per cut: info, baseline, two submits, policy race, topology.
constexpr std::size_t kTemplatesPerCut = 6;
constexpr std::size_t kBaselineIndex = 1;

/// Query lines for every op on every cut. The sizes of submitted jobs and
/// added nodes are drawn from `seed`; extra job ids start above the base
/// workload's.
[[nodiscard]] std::vector<Template> make_templates(
    const Scenario& sc, const std::vector<std::string>& cuts,
    std::uint64_t seed) {
  util::Rng rng(seed);
  std::uint32_t next_id = 0;
  for (const trace::JobSpec& job : sc.jobs) {
    next_id = std::max(next_id, job.id.get());
  }
  ++next_id;
  std::vector<Template> out;
  for (std::size_t c = 0; c < cuts.size(); ++c) {
    const std::string snap = ",\"snapshot\":\"" + cuts[c] + "\"";
    const auto add = [&](std::size_t op, const std::string& body) {
      Template t;
      t.op = op;
      t.line = "{\"id\":\"t" + std::to_string(out.size()) + "\",\"op\":\"" +
               kOps[op] + "\"" + snap + body + "}";
      out.push_back(std::move(t));
    };
    add(0, "");
    add(1, "");
    for (int k = 0; k < 2; ++k) {
      const std::int64_t nodes = rng.uniform_int(1, 8);
      const std::int64_t mem =
          rng.uniform_int(2048, static_cast<std::int64_t>(
                                    sc.system.normal_capacity / 2));
      const std::int64_t duration = 60 * rng.uniform_int(10, 120);
      add(2, ",\"jobs\":[{\"id\":" + std::to_string(next_id++) +
                 ",\"num_nodes\":" + std::to_string(nodes) +
                 ",\"mem_mib\":" + std::to_string(mem) +
                 ",\"duration\":" + std::to_string(duration) + "}]");
    }
    add(3, ",\"policies\":[\"static\",\"dynamic\"]");
    add(4, ",\"add_nodes\":" + std::to_string(rng.uniform_int(2, 8)) +
               ",\"capacity_mib\":" +
               std::to_string(sc.system.large_capacity));
  }
  return out;
}

/// A seeded sequence of template indices, drawn uniformly: no query
/// traffic has been recorded to weight the ops by, so every template is
/// equally likely.
class QueryMix {
 public:
  QueryMix(const std::vector<Template>& templates, std::uint64_t seed)
      : rng_(seed), last_(static_cast<std::int64_t>(templates.size()) - 1) {}
  [[nodiscard]] std::size_t next() {
    return static_cast<std::size_t>(rng_.uniform_int(0, last_));
  }
  [[nodiscard]] util::Rng& rng() noexcept { return rng_; }

 private:
  util::Rng rng_;
  std::int64_t last_;
};

/// One client connection to the daemon; newline-delimited lines.
class Connection {
 public:
  explicit Connection(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
        0) {
      ::close(fd_);
      throw std::runtime_error("connect() to the serve daemon failed");
    }
  }
  ~Connection() { close(); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  [[nodiscard]] bool send_line(const std::string& line) {
    std::string data = line + "\n";
    std::string_view rest = data;
    while (!rest.empty()) {
      const ssize_t n = ::send(fd_, rest.data(), rest.size(), MSG_NOSIGNAL);
      if (n <= 0) return false;
      rest.remove_prefix(static_cast<std::size_t>(n));
    }
    return true;
  }

  [[nodiscard]] bool read_line(std::string& out) {
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        out = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// Wake any thread blocked on this connection without releasing the fd.
  void interrupt() {
    if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
  }

  void close() {
    if (fd_ >= 0) {
      ::shutdown(fd_, SHUT_RDWR);
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

/// Replies of one phase.
struct Phase {
  std::string name;
  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> ok{0};

  explicit Phase(std::string n) : name(std::move(n)) {}
  /// Every query sent is one operation; a reply that differs from its
  /// golden, or no reply at all, fails it.
  void tally(Report& report) const {
    Report::note("phase " + name + ": sent " + std::to_string(sent) +
                 ", succeeded " + std::to_string(ok) + ", failed " +
                 std::to_string(sent - ok));
    report.count(sent, sent - ok,
                 name + " replies that differ from their serial golden or "
                        "never arrived");
  }
};

/// A daemon listening on an ephemeral localhost port, served from a
/// background thread; the destructor closes it down and joins.
class Daemon {
 public:
  Daemon(serve::Server& server) : server_(&server) {
    thread_ = std::thread([this] {
      try {
        server_->listen_and_serve(log_);
      } catch (const std::exception& e) {
        error_ = e.what();
        failed_.store(true);
      }
    });
    const auto start = Clock::now();
    while (server_->port() == 0 && !failed_.load() &&
           seconds_since(start) < 10.0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (server_->port() == 0) {
      stop();
      throw std::runtime_error("serve daemon did not start: " + error_);
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] int port() const { return server_->port(); }
  void stop() {
    server_->request_shutdown();
    if (thread_.joinable()) thread_.join();
  }

 private:
  serve::Server* server_;
  std::ostringstream log_;  // written by the serve thread only
  std::string error_;
  std::atomic<bool> failed_{false};
  std::thread thread_;
};

struct Sample {
  std::size_t tmpl = 0;
  double latency_ms = 0.0;
};

/// Closed loop: each connection sends its next query when the previous
/// reply arrives, until `seconds` pass.
struct ClosedLoopResult {
  std::uint64_t replies = 0;  ///< received within the phase
  std::uint64_t events = 0;   ///< engine events simulated for those replies
  double seconds = 0.0;       ///< phase start to the last of those replies
};

ClosedLoopResult closed_loop(std::vector<std::unique_ptr<Connection>>& conns,
                             const std::vector<Template>& templates,
                             std::uint64_t seed, double seconds,
                             std::size_t per_connection_cap, Phase& phase) {
  std::mutex mutex;
  ClosedLoopResult out;  // guarded by mutex
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < conns.size(); ++c) {
    threads.emplace_back([&, c] {
      QueryMix mix(templates, seed * 1000003ull + c);
      for (std::size_t n = 0; n < per_connection_cap; ++n) {
        if (seconds_since(start) >= seconds) break;
        const Template& t = templates[mix.next()];
        ++phase.sent;
        if (!conns[c]->send_line(t.line)) return;
        std::string reply;
        if (!conns[c]->read_line(reply)) return;
        const double at = seconds_since(start);
        if (reply == t.golden) ++phase.ok;
        if (at <= seconds) {
          std::lock_guard<std::mutex> lock(mutex);
          ++out.replies;
          out.events += t.engine_events;
          out.seconds = std::max(out.seconds, at);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return out;
}

struct OpenLoopResult {
  std::vector<Sample> samples;
  std::vector<double> late_ms;
};

/// Open loop: a seeded Poisson schedule at `rate` for `seconds`, extended
/// to at least `min_queries` arrivals. Queries follow the seeded mix, or
/// cycle through every template in turn when `cycle` is set. Each query
/// goes out on the connection with the fewest replies outstanding, as a
/// client pool would send it. Latency is measured from each query's due
/// time, so a stall also delays the queries behind it.
OpenLoopResult open_loop(std::vector<std::unique_ptr<Connection>>& conns,
                         const std::vector<Template>& templates,
                         std::uint64_t seed, double rate, double seconds,
                         std::size_t min_queries, bool cycle, Phase& phase) {
  QueryMix mix(templates, seed);
  std::vector<double> due;
  std::vector<std::size_t> which;
  for (double t = mix.rng().exponential(rate);
       t < seconds || due.size() < min_queries;
       t += mix.rng().exponential(rate)) {
    which.push_back(cycle ? due.size() % templates.size() : mix.next());
    due.push_back(t);
  }
  OpenLoopResult out;
  out.samples.resize(due.size());
  out.late_ms.resize(due.size());

  // Per connection: the queries in flight, oldest first. A query index is
  // queued before its line is sent, so it is there when the reply comes.
  struct InFlight {
    std::mutex mutex;
    std::deque<std::size_t> queries;  // guarded by mutex
    std::atomic<std::size_t> count{0};
  };
  constexpr std::size_t kEnd = SIZE_MAX;  // marks the final, unchecked reply
  std::vector<InFlight> flight(conns.size());
  const auto start = Clock::now();
  std::vector<std::thread> receivers;
  for (std::size_t c = 0; c < conns.size(); ++c) {
    receivers.emplace_back([&, c] {
      for (;;) {
        std::string reply;
        if (!conns[c]->read_line(reply)) return;
        const double now_s = seconds_since(start);
        std::size_t i = 0;
        {
          std::lock_guard<std::mutex> lock(flight[c].mutex);
          i = flight[c].queries.front();
          flight[c].queries.pop_front();
        }
        --flight[c].count;
        if (i == kEnd) return;
        out.samples[i] = {which[i], (now_s - due[i]) * 1e3};
        if (reply == templates[which[i]].golden) ++phase.ok;
      }
    });
  }
  const auto send = [&](std::size_t c, std::size_t i, const std::string& line) {
    {
      std::lock_guard<std::mutex> lock(flight[c].mutex);
      flight[c].queries.push_back(i);
    }
    ++flight[c].count;
    return conns[c]->send_line(line);
  };
  bool ok = true;
  for (std::size_t i = 0; ok && i < due.size(); ++i) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(due[i])));
    out.late_ms[i] = (seconds_since(start) - due[i]) * 1e3;
    std::size_t best = i % conns.size();
    for (std::size_t c = 0; c < conns.size(); ++c) {
      if (flight[c].count < flight[best].count) best = c;
    }
    ++phase.sent;
    ok = send(best, i, templates[which[i]].line);
  }
  for (std::size_t c = 0; ok && c < conns.size(); ++c) {
    ok = send(c, kEnd, "{\"op\":\"info\"}");
  }
  if (!ok) {
    for (auto& c : conns) c->interrupt();  // no receiver may wait on a
  }                                        // reply that cannot come
  for (std::thread& t : receivers) t.join();
  return out;
}

[[nodiscard]] std::vector<std::unique_ptr<Connection>> connect_all(int port) {
  std::vector<std::unique_ptr<Connection>> conns;
  for (std::size_t c = 0; c < connections(); ++c) {
    conns.push_back(std::make_unique<Connection>(port));
  }
  return conns;
}

[[nodiscard]] serve::ServeScenario serve_scenario(const Scenario& sc,
                                                  const std::string& path) {
  serve::ServeScenario out;
  out.system = sc.system;
  out.policy = sc.policy;
  out.sched = sc.sched;
  out.jobs = sc.jobs;
  out.apps = &sc.apps;
  out.snapshot_path = path;
  return out;
}

/// Serial goldens for every template; an error reply fails its template.
void compute_goldens(serve::Server& server, std::vector<Template>& templates,
                     Report& report) {
  for (Template& t : templates) {
    t.golden = server.handle_line(t.line);
    t.engine_events = sum_engine_events(t.golden);
    report.check(t.golden.find("\"status\":\"ok\"") != std::string::npos,
                 "golden reply for " + t.line + ": " + t.golden.substr(0, 200));
  }
}

/// The identity of the serve workload for a seed: a hash of every golden
/// reply, with the scratch directory cut out of the snapshot paths that
/// info replies echo.
[[nodiscard]] std::string goldens_identity(
    const std::vector<Template>& templates, const std::string& workdir) {
  std::string all;
  for (const Template& t : templates) all += t.golden + "\n";
  for (std::size_t at = all.find(workdir); at != std::string::npos;
       at = all.find(workdir, at)) {
    all.erase(at, workdir.size());
  }
  return hex64(util::fnv1a(all));
}

[[nodiscard]] double parse_us(const std::vector<Template>& templates,
                              const sched::SchedulerConfig& base) {
  std::size_t parsed = 0;
  const auto start = Clock::now();
  while (seconds_since(start) < 0.05) {
    for (const Template& t : templates) {
      const serve::Query q = serve::parse_query(t.line, base);
      parsed += q.id.empty() ? 0 : 1;
    }
  }
  return parsed > 0 ? seconds_since(start) * 1e6 / static_cast<double>(parsed)
                    : 0.0;
}

void fill_op_latency(const OpenLoopResult& open,
                     const std::vector<Template>& templates, ServeLayer& out) {
  std::array<std::vector<double>, kOps.size()> per_op;
  for (const Sample& s : open.samples) {
    per_op[templates[s.tmpl].op].push_back(s.latency_ms);
  }
  std::vector<double> all;
  for (std::size_t op = 0; op < kOps.size(); ++op) {
    if (!per_op[op].empty()) out.op_p50_ms[op] = util::quantile(per_op[op], 0.5);
    all.insert(all.end(), per_op[op].begin(), per_op[op].end());
  }
  if (!all.empty()) out.p99_ms = util::Ecdf(std::move(all)).quantile(0.99);
  if (!open.late_ms.empty()) {
    out.gen_late_ms = util::Ecdf(open.late_ms).quantile(0.99);
  }
}

// ---------------------------------------------------------------- workload

/// The daemon's base scenario is a deployment fixture, not a seeded input:
/// a fixed scenario keeps the cost of a fork, and so the server's capacity,
/// independent of --seed. The seed drives the query stream.
constexpr std::uint64_t kScenarioSeed = 42;

[[nodiscard]] Scenario make_serve_scenario(harness::ServeFileConfig* serve) {
  std::ostringstream conf;
  conf << "Nodes = 128\n"
          "PctLargeNodes = 0.25\n"
          "AllocationPolicy = dynamic\n"
          "UpdateInterval = 5min\n"
          "SampleInterval = 10min\n"
       << "Jobs = " << kSynthJobs << "\n"
       << "TargetLoad = 0.85\n"
          "PctLargeJobs = 0.35\n"
          "Overestimation = 0.5\n"
          "MaxJobNodes = 16\n"
       << "Seed = " << kScenarioSeed << "\n"
       << "ServeThreads = " << connections() << "\n"
       << "ServeCacheImages = 2\n";
  std::istringstream in(conf.str());
  const harness::FileConfig fc = harness::parse_config(in);
  workload::SyntheticWorkload w = workload::generate_synthetic(fc.workload);
  Scenario sc;
  sc.system = fc.simulation.system;
  sc.policy = fc.simulation.policy;
  sc.sched = fc.simulation.sched;
  sc.jobs = std::move(w.jobs);
  sc.apps = std::move(w.apps);
  *serve = fc.serve;
  return sc;
}

struct ServeSetup {
  Scenario scenario;
  std::vector<std::string> cuts;
  std::unique_ptr<serve::Server> server;
  double gen_s = 0.0;
  double submit_s = 0.0;
  double total_s = 0.0;
};

/// Generation, the save run writing three cuts, the server and the first
/// image opens — everything a daemon does before its first query. The
/// single-threaded part runs on the next CPU of `cpus`; the server's
/// threads start after release, on every CPU.
[[nodiscard]] std::unique_ptr<ServeSetup> serve_setup(const Options& opt,
                                                      CpuRotation& cpus,
                                                      Report& report) {
  auto out = std::make_unique<ServeSetup>();
  cpus.advance();
  const auto start = Clock::now();
  harness::ServeFileConfig serve_cfg;
  out->scenario = make_serve_scenario(&serve_cfg);
  out->gen_s = seconds_since(start);
  const Scenario& sc = out->scenario;

  TimedRig tr = build_rig(sc);
  out->submit_s = tr.submit_s;
  Rig& rig = *tr.rig;
  const Seconds span = sc.last_submit();
  std::filesystem::create_directories(opt.workdir);
  for (int k = 1; k <= 3; ++k) {
    (void)rig.scheduler->run_ready(span * k / 4.0);
    out->cuts.push_back(opt.workdir + "/cut" + std::to_string(k) + ".snap");
    snapshot::save_file(out->cuts.back(), rig.components());
  }
  rig.engine.run();
  rig.scheduler->finalize();
  const harness::CellResult saved = rig.result();
  report.check(saved.valid && saved.summary.completed == sc.jobs.size(),
               "serve save run is valid and completes every job");

  cpus.release();
  serve::ServerOptions options;
  options.threads = serve_cfg.threads;
  options.cache_images = serve_cfg.cache_images;
  out->server = std::make_unique<serve::Server>(
      serve_scenario(sc, out->cuts[1]), options);
  for (const std::string& cut : out->cuts) {
    (void)out->server->cache().get(cut);
  }
  out->total_s = seconds_since(start);
  return out;
}

/// Serial forks of the middle cut through the harness, as the server runs
/// them: the fixed simulated horizon of this workload.
[[nodiscard]] std::vector<double> timed_forks(const ServeSetup& s,
                                              const Template& baseline_mid,
                                              Report& report) {
  const Scenario& sc = s.scenario;
  const auto image = s.server->cache().get(s.cuts[1]);
  harness::CellConfig cell;
  cell.system = sc.system;
  cell.policy = sc.policy;
  cell.sched = sc.sched;
  cell.restore_image = image;
  cell.trusted_fingerprint = s.server->base_fingerprint();
  std::vector<double> wall_s;
  CpuRotation cpus;
  const std::size_t group = std::max<std::size_t>(cpus.size(), 1);
  for (int g = 0; g < kForkGroups; ++g) {
    double total = 0.0;
    for (std::size_t i = 0; i < group; ++i) {
      cpus.advance();
      const auto t0 = Clock::now();
      const harness::CellResult r = harness::run_cell(cell, sc.jobs, sc.apps);
      total += seconds_since(t0);
      report.check(baseline_mid.golden.find(harness::cell_result_to_json(r)) !=
                       std::string::npos,
                   "serial fork reproduces the baseline reply");
    }
    wall_s.push_back(total / static_cast<double>(group));
  }
  return wall_s;
}

/// Instrumented serial forks of the middle cut, for the sim and sched
/// layers as this workload uses them.
[[nodiscard]] LayerRun layer_forks(const ServeSetup& s,
                                   const Template& baseline_mid,
                                   Report& report) {
  const Scenario& sc = s.scenario;
  const auto image = s.server->cache().get(s.cuts[1]);
  const std::uint64_t fp = s.server->base_fingerprint();
  LayerRun run;
  std::map<std::string, std::uint64_t> summed;
  std::vector<obs::CountersSnapshot::Counter> first;
  CpuRotation cpus;
  for (int i = 0; i < kLayerForks; ++i) {
    cpus.advance();
    {
      TimedRig tr = build_rig(sc);
      image->materialize_trusted(tr.rig->components(), fp);
      const auto t0 = Clock::now();
      tr.rig->scheduler->run();
      run.untimed_loop_s += seconds_since(t0);
    }
    obs::Counters counters;
    TimedRig tr = build_rig(sc, nullptr, &counters);
    Rig& rig = *tr.rig;
    image->materialize_trusted(rig.components(), fp);
    const std::uint64_t events_before = rig.engine.executed_events();
    const sched::SchedulerTotals before = rig.scheduler->totals();
    TimingHandler handler(*rig.scheduler, run.clock);
    rig.engine.set_handler(&handler);
    const auto t0 = Clock::now();
    rig.scheduler->run();
    run.loop_s += seconds_since(t0);
    const harness::CellResult r = rig.result();
    run.events += r.engine_events - events_before;
    run.totals.backfill_starts +=
        r.totals.backfill_starts - before.backfill_starts;
    run.totals.oom_events += r.totals.oom_events - before.oom_events;
    run.totals.requeues += r.totals.requeues - before.requeues;
    const auto counts = counters.snapshot().counters;
    if (i == 0) first = counts;
    bool same = counts.size() == first.size();
    for (std::size_t k = 0; same && k < counts.size(); ++k) {
      same = counts[k].name == first[k].name &&
             counts[k].value == first[k].value;
    }
    report.check(same && baseline_mid.golden.find(harness::cell_result_to_json(
                             r)) != std::string::npos,
                 "instrumented fork repeats its counts and the baseline reply");
    for (const auto& c : counts) summed[c.name] += c.value;
    run.edge_churn += series_sum(counters, "ledger.edge_churn");
  }
  for (const auto& [name, value] : summed) {
    run.counters.push_back({name, value});
  }
  return run;
}

}  // namespace

std::string serve_identity(const Options& opt) {
  Report scratch;
  CpuRotation cpus;
  const std::unique_ptr<ServeSetup> s = serve_setup(opt, cpus, scratch);
  std::vector<Template> templates =
      make_templates(s->scenario, s->cuts, opt.seed);
  compute_goldens(*s->server, templates, scratch);
  return goldens_identity(templates, opt.workdir);
}

void run_serve_workload(const Options& opt, Report& report) {
  // Set-up, several times, each on the next CPU; the last one serves.
  CpuRotation cpus;
  std::vector<double> setup_s;
  std::vector<double> gen_s;
  std::vector<double> submit_s;
  std::unique_ptr<ServeSetup> s;
  for (int i = 0; i < kSetups; ++i) {
    s.reset();
    s = serve_setup(opt, cpus, report);
    setup_s.push_back(s->total_s);
    gen_s.push_back(s->gen_s);
    submit_s.push_back(s->submit_s);
  }
  const Scenario& sc = s->scenario;
  std::vector<Template> templates = make_templates(sc, s->cuts, opt.seed);
  compute_goldens(*s->server, templates, report);
  check_identity(opt, goldens_identity(templates, opt.workdir), report);
  const Template& baseline_mid = templates[kTemplatesPerCut + kBaselineIndex];

  const std::vector<double> fork_s = timed_forks(*s, baseline_mid, report);

  Phase warmup("warm-up");
  Phase open("open-loop");
  Phase closed("closed-loop");
  OpenLoopResult open_result;
  ClosedLoopResult closed_result;
  std::uint64_t open_hits = 0;
  std::uint64_t open_misses = 0;
  const double closed_s = kClosedShare * opt.seconds;
  {
    Daemon daemon(*s->server);
    auto conns = connect_all(daemon.port());
    (void)closed_loop(conns, templates, opt.seed + 17, 1e9,
                      kWarmupPerConnection, warmup);
    const std::uint64_t hits0 = s->server->cache().hits();
    const std::uint64_t misses0 = s->server->cache().misses();
    open_result =
        open_loop(conns, templates, opt.seed, kServeRate,
                  kOpenShare * opt.seconds, kMinOpenReplies, false, open);
    open_hits = s->server->cache().hits() - hits0;
    open_misses = s->server->cache().misses() - misses0;
    closed_result = closed_loop(conns, templates, opt.seed + 31, closed_s,
                                SIZE_MAX, closed);
    for (auto& c : conns) c->close();
  }
  warmup.tally(report);
  open.tally(report);
  closed.tally(report);

  std::vector<double> latency;
  for (const Sample& x : open_result.samples) latency.push_back(x.latency_ms);
  Report::note("open loop: " + std::to_string(latency.size()) +
               " replies at " + std::to_string(kServeRate) + " queries/s; " +
               "closed loop: " + std::to_string(closed_result.replies) +
               " replies");

  if (!opt.trace) {
    report.metric("events_per_s",
                  static_cast<double>(closed_result.events) /
                      closed_result.seconds,
                  "1/s");
    report.metric("sim_wall_s", util::quantile(fork_s, 0.5), "s");
    report.metric("setup_s", util::quantile(setup_s, 0.5), "s");
    report.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    report.metric("p50_ms", util::Ecdf(std::move(latency)).quantile(0.5),
                  "ms");
    report.metric("ops_per_s",
                  static_cast<double>(closed_result.replies) /
                      closed_result.seconds,
                  "1/s");
    return;
  }

  LayerRun run = layer_forks(*s, baseline_mid, report);
  const SnapshotProbe snap = probe_snapshot(s->cuts[1], sc);
  const ProbeResult probes = run_probes(sc, *snap.image, snap.fingerprint);
  ServeLayer serve;
  fill_op_latency(open_result, templates, serve);
  serve.parse_us = parse_us(templates, sc.sched);
  serve.cache_hit_share =
      open_hits + open_misses > 0
          ? static_cast<double>(open_hits) /
                static_cast<double>(open_hits + open_misses)
          : 0.0;

  report_layers(run, report);
  report_probes(probes, snap, run.counters, run.edge_churn,
                util::quantile(gen_s, 0.5), util::quantile(submit_s, 0.5),
                report);
  report_serve_layer(serve, report);
}

void report_serve_layer(const ServeLayer& layer, Report& report) {
  for (std::size_t op = 0; op < kOps.size(); ++op) {
    report.metric(std::string("serve.") + kOps[op] + ".p50_ms",
                  layer.op_p50_ms[op], "ms");
  }
  report.metric("serve.p99_ms", layer.p99_ms, "ms");
  report.metric("serve.parse_us", layer.parse_us, "us");
  report.metric("serve.cache_hit_share", layer.cache_hit_share, "ratio");
  report.metric("serve.gen_late_ms", layer.gen_late_ms, "ms");
}

ServeLayer serve_probe(const Scenario& scenario,
                       const std::vector<std::string>& cuts, std::uint64_t seed,
                       double rate, Report& report) {
  serve::ServerOptions options;
  options.threads = connections();
  options.cache_images = 2;
  serve::Server server(serve_scenario(scenario, cuts.front()), options);
  std::vector<Template> templates = make_templates(scenario, cuts, seed);
  compute_goldens(server, templates, report);
  ServeLayer out;
  Phase open("serve-probe");
  OpenLoopResult result;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  {
    Daemon daemon(server);
    auto conns = connect_all(daemon.port());
    const std::uint64_t hits0 = server.cache().hits();
    const std::uint64_t misses0 = server.cache().misses();
    result = open_loop(conns, templates, seed, rate, 0.0,
                       kProbeRounds * templates.size(), true, open);
    hits = server.cache().hits() - hits0;
    misses = server.cache().misses() - misses0;
    for (auto& c : conns) c->close();
  }
  open.tally(report);
  fill_op_latency(result, templates, out);
  out.parse_us = parse_us(templates, scenario.sched);
  out.cache_hit_share =
      hits + misses > 0
          ? static_cast<double>(hits) / static_cast<double>(hits + misses)
          : 0.0;
  return out;
}

}  // namespace perfbench
