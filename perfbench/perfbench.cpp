// rasc_perfbench, the repository benchmark: one process, one thread.
//
//   rasc_perfbench --workload stream400 --seed 42 --seconds 30 --trace 0
//
// --trace 0 runs the workload through exp::run_experiment (the path
// rasc_cli, sweeps and figure benches use) for --seconds and prints the
// end-to-end metrics. --trace 1 instead times calls into each layer's
// public functions, reads the run's registry snapshot and replays the
// workload's compositions, and prints the per-layer metrics. Either way
// the last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Workloads, metric definitions and known defects: perfbench/README.md.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/composition_graph.hpp"
#include "core/mincost_composer.hpp"
#include "core/plan_math.hpp"
#include "exp/runner.hpp"
#include "exp/workload.hpp"
#include "exp/world.hpp"
#include "flow/ssp.hpp"
#include "overlay/builder.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "sim/topology.hpp"
#include "util/flags.hpp"

namespace {

using namespace rasc;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Seeds after the first are spaced like rasc_cli --reps.
constexpr std::uint64_t kSeedStride = 7919;
/// World builds timed per seed for setup_s.
constexpr int kSetupReps = 3;
/// Ladder seeds tried per seed a run needs before giving up.
constexpr int kLadderTries = 8;
/// exp::run_experiment derives the request stream from this split.
constexpr std::uint64_t kWorkloadSplit = 0x776f726b;  // "work"
/// ... and the topology from this one (exp::World).
constexpr std::uint64_t kTopologySplit = 0x746f706f;  // "topo"

struct Workload {
  const char* name;
  /// Seeds whose outcomes one run pools: seed, seed + kSeedStride, ...
  int seeds;
  /// rasc_cli flags on top of its defaults.
  void (*apply)(exp::RunConfig&);
};

/// rasc_cli's defaults (examples/rasc_sim.cpp) for the flags the
/// workloads do not set.
exp::RunConfig cli_defaults() {
  exp::RunConfig c;
  c.algorithm = "mincost";
  c.world.nodes = 32;
  c.world.num_services = 10;
  c.world.services_per_node = 5;
  c.world.net.bw_min_kbps = 300;
  c.world.net.bw_max_kbps = 4000;
  c.world.net.latency_min = sim::msec(10);
  c.world.net.latency_max = sim::msec(200);
  c.world.net.latency_jitter = 0.25;
  c.world.service_cpu_min = sim::msec(1);
  c.world.service_cpu_max = sim::msec(4);
  c.world.monitor_params.outcome_window = 200;
  c.workload.num_requests = 60;
  c.workload.avg_rate_kbps = 100;
  c.workload.rate_jitter = 0.2;
  c.submit_gap = sim::msec(700);
  c.steady_duration = sim::sec(15);
  return c;
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kAll = {
      // --nodes 400 --services 125 --requests 400 --rate 300 --steady-sec 30
      {"stream400", 6,
       [](exp::RunConfig& c) {
         c.world.nodes = 400;
         c.world.num_services = 125;
         c.workload.num_requests = 400;
         c.workload.avg_rate_kbps = 300;
         c.steady_duration = sim::sec(30);
       }},
      // --nodes 800 --requests 200 --steady-sec 5
      {"admit800", 1,
       [](exp::RunConfig& c) {
         c.world.nodes = 800;
         c.workload.num_requests = 200;
         c.steady_duration = sim::sec(5);
       }},
      // --nodes 300 --requests 200 --coordinators 4 --adapt-interval 1000
      // --steady-sec 20
      {"shard_adapt300", 8,
       [](exp::RunConfig& c) {
         c.world.nodes = 300;
         c.workload.num_requests = 200;
         c.coordinators = 4;
         c.adapt_interval = sim::msec(1000);
         c.steady_duration = sim::sec(20);
       }},
  };
  return kAll;
}

exp::RunConfig make_config(const Workload& w, std::uint64_t seed) {
  exp::RunConfig c = cli_defaults();
  w.apply(c);
  c.world.seed = seed;
  return c;
}

/// The WorldConfig run_experiment builds its World from.
exp::WorldConfig world_config(const exp::RunConfig& c) {
  exp::WorldConfig wc = c.world;
  if (c.coordinators > 1) wc.deploy_policy.rollback = true;
  return wc;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

/// Nearest-rank quantile.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = std::size_t(std::ceil(q * double(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

// --- Result printing ------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string number(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (std::uint8_t(ch) >= 0x20) out += ch;
  }
  return out + "\"";
}

void print_result(bool correct, int attempted, int failed,
                  const std::vector<Metric>& metrics) {
  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += json_string(metrics[i].name) + ": {\"value\": " +
            number(metrics[i].value) +
            ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  std::printf("%s}}\n", line.c_str());
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

#if defined(__clang__)
#define PERFBENCH_COMPILER "clang " __clang_version__
#else
#define PERFBENCH_COMPILER "gcc " __VERSION__
#endif

bool sanitized() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
  return std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") != nullptr;
#endif
}

struct Rusage {
  double user_s, sys_s;
  long maxrss_kb, minflt, nivcsw;
};

Rusage rusage_self() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return double(tv.tv_sec) + double(tv.tv_usec) / 1e6;
  };
  return {secs(ru.ru_utime), secs(ru.ru_stime), ru.ru_maxrss, ru.ru_minflt,
          ru.ru_nivcsw};
}

// --- Setup: the run's seeds and setup_s ----------------------------------

struct Setup {
  std::vector<std::uint64_t> seeds;  // ladder seeds whose World builds
  int world_failures = 0;            // ladder seeds whose World threw
  std::vector<double> build_s;       // every timed World build
};

/// Walks seed, seed + kSeedStride, ... and keeps the first `count` whose
/// World builds (exp::World throws "service registration failed" on some
/// seeds; see README.md, known defects). Each kept World is built
/// kSetupReps times for setup_s. Throws when the ladder runs out.
Setup set_up(const Workload& w, std::uint64_t seed, int count) {
  Setup s;
  for (int k = 0; int(s.seeds.size()) < count; ++k) {
    if (k >= kLadderTries * count) {
      throw std::runtime_error(
          "World: service registration failed on every ladder seed");
    }
    const std::uint64_t candidate = seed + std::uint64_t(k) * kSeedStride;
    const auto wc = world_config(make_config(w, candidate));
    try {
      const auto t0 = Clock::now();
      exp::World world(wc);
      s.build_s.push_back(since(t0));
    } catch (const std::runtime_error& e) {
      std::printf("setup: seed %llu: %s\n", (unsigned long long)candidate,
                  e.what());
      ++s.world_failures;
      continue;
    }
    s.seeds.push_back(candidate);
  }
  for (int rep = 1; rep < kSetupReps; ++rep) {
    for (const auto seed_k : s.seeds) {
      const auto wc = world_config(make_config(w, seed_k));
      const auto t0 = Clock::now();
      exp::World world(wc);
      s.build_s.push_back(since(t0));
    }
  }
  return s;
}

// --- Output checks --------------------------------------------------------

/// Returns "" when the run's outcome counts are consistent, else why not.
std::string check_run(const exp::RunMetrics& m) {
  if (m.requests <= 0 || m.composed < 0 || m.composed > m.requests) {
    return "admitted " + std::to_string(m.composed) + " of " +
           std::to_string(m.requests) + " requests";
  }
  if (m.emitted <= 0 || m.delivered < 0 || m.delivered > m.emitted) {
    return "delivered " + std::to_string(m.delivered) + " of " +
           std::to_string(m.emitted) + " emitted";
  }
  if (m.timely < 0 || m.timely > m.delivered || m.out_of_order < 0 ||
      m.out_of_order > m.delivered) {
    return "timely " + std::to_string(m.timely) + " / out-of-order " +
           std::to_string(m.out_of_order) + " of " +
           std::to_string(m.delivered) + " delivered";
  }
  return "";
}

/// The outcome counts two runs of one config must share (determinism).
bool same_outcome(const exp::RunMetrics& a, const exp::RunMetrics& b) {
  return a.composed == b.composed && a.emitted == b.emitted &&
         a.delivered == b.delivered && a.timely == b.timely &&
         a.out_of_order == b.out_of_order;
}

bool all_finite(const std::vector<Metric>& metrics) {
  for (const auto& m : metrics) {
    if (!std::isfinite(m.value)) {
      std::printf("check: %s is not finite\n", m.name.c_str());
      return false;
    }
  }
  return true;
}

// --- Registry snapshot readers ---------------------------------------------

double counter_total(const std::vector<obs::MetricRow>& rows,
                     const std::string& name) {
  double total = 0;
  for (const auto& r : rows) {
    if (r.kind == obs::MetricRow::Kind::kCounter && r.name == name) {
      total += r.value;
    }
  }
  return total;
}

/// Bytes of one packet kind summed over nodes.
double kind_bytes(const std::vector<obs::MetricRow>& rows,
                  const std::string& counter, const std::string& kind) {
  double total = 0;
  for (const auto& r : rows) {
    if (r.name == counter && r.labels.component == kind) total += r.value;
  }
  return total;
}

/// Share of a packet kind's sent bytes that never arrived.
double kind_loss(const std::vector<obs::MetricRow>& rows,
                 const std::string& kind) {
  const double sent = kind_bytes(rows, "net.sent_bytes_by_kind", kind);
  const double received = kind_bytes(rows, "net.received_bytes_by_kind", kind);
  return sent > 0 ? 1.0 - received / sent : 0.0;
}

/// A histogram pooled over its cells: sample count, sum, and the
/// count-weighted mean of the cells' p50 and p99 (the snapshot keeps no
/// samples, so cross-cell percentiles are approximate).
struct PooledHistogram {
  double count = 0, sum = 0, p50 = 0, p99 = 0;
};

PooledHistogram pooled(const std::vector<obs::MetricRow>& rows,
                       const std::string& name) {
  PooledHistogram h;
  for (const auto& r : rows) {
    if (r.kind != obs::MetricRow::Kind::kHistogram || r.name != name) continue;
    const double n = double(r.count);
    h.count += n;
    h.sum += r.mean * n;
    h.p50 += r.p50 * n;
    h.p99 += r.p99 * n;
  }
  if (h.count > 0) {
    h.p50 /= h.count;
    h.p99 /= h.count;
  }
  return h;
}

// --- --trace 0: end-to-end -------------------------------------------------

/// Outcomes pooled over a run's seeds (first run of each seed).
struct Pool {
  std::int64_t requests = 0, composed = 0, emitted = 0, delivered = 0,
               timely = 0;
  util::SummaryStats delay_ms, jitter_ms;
  double admit_ms_sum = 0, admit_n = 0;

  void add(const exp::RunMetrics& m, const std::vector<obs::MetricRow>& rows) {
    requests += m.requests;
    composed += m.composed;
    emitted += m.emitted;
    delivered += m.delivered;
    timely += m.timely;
    delay_ms.merge(m.delay_ms);
    jitter_ms.merge(m.jitter_ms);
    for (const char* name : {"compose.latency_ms", "shard.latency_ms"}) {
      const auto h = pooled(rows, name);
      admit_ms_sum += h.sum;
      admit_n += h.count;
    }
  }
  double admit_ms_mean() const {
    return admit_n > 0 ? admit_ms_sum / admit_n : 0;
  }
};

int run_timed(const Workload& w, const Setup& setup, double seconds) {
  const std::size_t n = setup.seeds.size();
  std::vector<std::vector<double>> walls(n);
  std::vector<exp::RunMetrics> first(n);
  Pool pool;
  int attempted = 0, failed = 0;

  const auto start = Clock::now();
  for (std::size_t i = 0; i < n || since(start) < seconds; ++i) {
    const std::size_t k = i % n;
    const auto config = make_config(w, setup.seeds[k]);
    ++attempted;
    std::vector<obs::MetricRow> rows;
    exp::RunMetrics m;
    const auto t0 = Clock::now();
    try {
      m = exp::run_experiment(config, &rows);
    } catch (const std::exception& e) {
      std::printf("check: seed %llu: run_experiment threw: %s\n",
                  (unsigned long long)setup.seeds[k], e.what());
      ++failed;
      continue;
    }
    const double wall = since(t0);
    Pool one;
    one.add(m, rows);
    std::printf("run: seed %llu wall %.4f admitted %d/%d delivered %lld/%lld "
                "timely %lld ooo %lld delay_ms %.4f jitter_ms %.4f admit_ms "
                "%.4f\n",
                (unsigned long long)setup.seeds[k], wall, m.composed,
                m.requests, (long long)m.delivered, (long long)m.emitted,
                (long long)m.timely, (long long)m.out_of_order,
                m.delay_ms.mean(), m.jitter_ms.mean(),
                one.admit_ms_mean());
    std::string why = check_run(m);
    if (why.empty() && i >= n && !same_outcome(m, first[k])) {
      why = "outcome differs from the seed's first run";
    }
    if (!why.empty()) {
      std::printf("check: seed %llu: %s\n",
                  (unsigned long long)setup.seeds[k], why.c_str());
      ++failed;
      continue;
    }
    walls[k].push_back(wall);
    if (i < n) {
      first[k] = m;
      pool.add(m, rows);
    }
  }

  double wall_s = 0;
  for (const auto& v : walls) wall_s += median(v) / double(n);
  const double requests = double(pool.requests);
  const double emitted = double(pool.emitted);
  const double delivered = double(pool.delivered);
  const std::vector<Metric> metrics = {
      {"wall_s", wall_s, "s"},
      {"setup_s", median(setup.build_s), "s"},
      {"peak_rss_mb", double(rusage_self().maxrss_kb) / 1024.0, "MB"},
      {"admitted_frac", requests > 0 ? double(pool.composed) / requests : 0,
       "ratio"},
      {"delivered_frac", emitted > 0 ? delivered / emitted : 0, "ratio"},
      {"on_time_frac", emitted > 0 ? double(pool.timely) / emitted : 0,
       "ratio"},
      {"delay_ms_mean", pool.delay_ms.mean(), "ms"},
      {"jitter_ms_mean", pool.jitter_ms.mean(), "ms"},
      {"admit_ms_mean", pool.admit_ms_mean(), "ms"},
  };
  if (!all_finite(metrics)) ++failed;
  const bool correct = failed == 0;
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

// --- --trace 1: per layer --------------------------------------------------

/// Medians of kSetupReps timed builds of the World's pieces.
struct SetupSplit {
  double topology_s, overlay_s, world_s;
};

SetupSplit time_world_pieces(const exp::WorldConfig& wc) {
  std::vector<double> topo, overlay, world;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    sim::Simulator simulator(wc.seed);
    auto topo_rng = simulator.rng().split(kTopologySplit);
    auto t0 = Clock::now();
    auto topology = sim::make_planetlab_like(wc.nodes, topo_rng, wc.net);
    topo.push_back(since(t0));
    obs::MetricRegistry registry;
    sim::Network network(simulator, std::move(topology), &registry);
    t0 = Clock::now();
    overlay::build_overlay(simulator, network, wc.nodes);
    overlay.push_back(since(t0));
  }
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    exp::World w(wc);
    world.push_back(since(t0));
  }
  return {median(topo), median(overlay), median(world)};
}

/// Host-side composition replay of the workload's requests against a
/// freshly built (idle) World: MinCostComposer::compose per request, and
/// per substream the composer's CompositionGraph solved cold (fresh
/// SspSolver) and warm (same solver and graph, the busiest candidate of
/// each stage capped to half its flow).
struct Replay {
  std::vector<double> compose_ms, arcs, solve_ms, resolve_ms;
};

Replay replay_compositions(const exp::RunConfig& config) {
  exp::World world(world_config(config));
  auto rng = world.simulator().rng().split(kWorkloadSplit);
  const auto requests = exp::generate_workload(
      config.workload, world.service_names(), world.size(), rng);

  std::vector<monitor::NodeStats> stats;
  std::map<std::string, std::vector<sim::NodeIndex>> providers;
  for (std::size_t n = 0; n < world.size(); ++n) {
    stats.push_back(world.host(n).monitor().snapshot());
    for (const auto& service : world.services_on(n)) {
      providers[service].push_back(sim::NodeIndex(n));
    }
  }

  Replay out;
  core::MinCostComposer composer;
  for (const auto& request : requests) {
    core::ComposeInput input;
    input.request = request;
    input.catalog = &world.catalog();
    input.source_stats = stats[std::size_t(request.source)];
    input.destination_stats = stats[std::size_t(request.destination)];
    for (const auto& service : request.distinct_services()) {
      auto& list = input.providers[service];
      for (const auto node : providers[service]) {
        list.push_back(stats[std::size_t(node)]);
      }
    }
    auto t0 = Clock::now();
    composer.compose(input);
    out.compose_ms.push_back(since(t0) * 1e3);

    // Candidate caps as the composer's first repair iteration sees them.
    const core::ResidualTracker tracker(input);
    for (const auto& sub : request.substreams) {
      const core::SubstreamMath math(sub, world.catalog(), request.unit_bytes);
      const int k = math.num_stages();
      std::vector<std::vector<core::CandidateCap>> stages(
          static_cast<std::size_t>(k));
      for (int st = 0; st < k; ++st) {
        for (const auto& s : input.providers[sub.services[std::size_t(st)]]) {
          const double in = tracker.avail_in_kbps(s.node);
          const double out = tracker.avail_out_kbps(s.node);
          core::CandidateCap cand;
          cand.node = s.node;
          cand.max_delivered_ups = math.max_delivered_ups(
              st, in, out, tracker.avail_cpu_fraction(s.node));
          cand.drop_ratio =
              tracker.drop_known(s.node) ? tracker.drop_ratio(s.node) : 0.0;
          const double cap = s.capacity_in_kbps + s.capacity_out_kbps;
          if (cap > 0) cand.utilization = 1.0 - (in + out) / cap;
          stages[std::size_t(st)].push_back(cand);
        }
      }
      core::CompositionGraph cg(
          stages, tracker.avail_out_kbps(request.source) /
                      math.wire_in_kbps(0, 1.0),
          tracker.avail_in_kbps(request.destination) /
              math.wire_in_kbps(k, 1.0),
          math.delivered_ups(sub.rate_kbps));
      out.arcs.push_back(double(cg.graph().num_arcs()));

      flow::SolveOptions options;
      options.assume_nonnegative_costs = true;
      options.warm_start = true;
      flow::SspSolver solver;
      t0 = Clock::now();
      solver.solve(cg.graph(), cg.source(), cg.sink(), cg.demand(), options);
      out.solve_ms.push_back(since(t0) * 1e3);

      for (int st = 0; st < k; ++st) {
        int busiest = 0;
        for (int j = 1; j < int(stages[std::size_t(st)].size()); ++j) {
          if (cg.candidate_flow_ups(st, j) >
              cg.candidate_flow_ups(st, busiest)) {
            busiest = j;
          }
        }
        cg.set_candidate_cap(st, busiest,
                             cg.candidate_flow_ups(st, busiest) / 2);
      }
      cg.reset_flow();
      t0 = Clock::now();
      solver.solve(cg.graph(), cg.source(), cg.sink(), cg.demand(), options);
      out.resolve_ms.push_back(since(t0) * 1e3);
    }
  }
  return out;
}

int run_traced(const Workload& w, const Setup& setup) {
  const auto config = make_config(w, setup.seeds.front());
  int attempted = 0, failed = 0;

  const SetupSplit split = time_world_pieces(world_config(config));

  // The traced run and its untraced twin (no snapshot) must agree.
  ++attempted;
  std::vector<obs::MetricRow> rows;
  auto t0 = Clock::now();
  const exp::RunMetrics m = exp::run_experiment(config, &rows);
  const double traced_wall = since(t0);
  ++attempted;
  t0 = Clock::now();
  const exp::RunMetrics plain = exp::run_experiment(config);
  const double untraced_wall = since(t0);
  for (const auto* run : {&m, &plain}) {
    if (const auto why = check_run(*run); !why.empty()) {
      std::printf("check: %s\n", why.c_str());
      ++failed;
    }
  }
  if (m.composed != plain.composed || m.delivered != plain.delivered) {
    std::printf("check: traced run admitted %d / delivered %lld, untraced "
                "%d / %lld\n",
                m.composed, (long long)m.delivered, plain.composed,
                (long long)plain.delivered);
    ++failed;
  }

  const Replay replay = replay_compositions(config);

  double overlay_bytes = 0;
  for (const auto& r : rows) {
    if (r.name == "net.sent_bytes_by_kind" &&
        r.labels.component.rfind("overlay.", 0) == 0) {
      overlay_bytes += r.value;
    }
  }
  const auto adapt = pooled(rows, "adapt.solve_us");
  const auto c = [&rows](const char* name) {
    return counter_total(rows, name);
  };
  const Rusage ru = rusage_self();
  const std::vector<Metric> metrics = {
      {"sim.topology_s", split.topology_s, "s"},
      {"sim.net.packets_sent", c("net.packets_sent"), "count"},
      {"sim.net.packets_dropped", c("net.packets_dropped"), "count"},
      {"sim.net.port_drops_in", c("net.port_drops_in"), "count"},
      {"sim.net.port_drops_out", c("net.port_drops_out"), "count"},
      {"sim.net.data_loss", kind_loss(rows, "runtime.data_unit"), "ratio"},
      {"overlay.build_s", split.overlay_s, "s"},
      {"overlay.register_s",
       std::max(0.0, split.world_s - split.topology_s - split.overlay_s), "s"},
      {"overlay.bytes_mb", overlay_bytes / 1e6, "MB"},
      {"overlay.lookup_loss", kind_loss(rows, "overlay.dht_get_reply"),
       "ratio"},
      {"overlay.world_failures", double(setup.world_failures), "count"},
      {"monitor.stats_request_mb",
       kind_bytes(rows, "net.sent_bytes_by_kind", "monitor.stats_request") /
           1e6,
       "MB"},
      {"monitor.stats_reply_mb",
       kind_bytes(rows, "net.sent_bytes_by_kind", "monitor.stats_reply") / 1e6,
       "MB"},
      {"monitor.stats_reply_loss", kind_loss(rows, "monitor.stats_reply"),
       "ratio"},
      {"flow.arcs_per_graph", median(replay.arcs), "count"},
      {"flow.solve_ms_p50", quantile(replay.solve_ms, 0.50), "ms"},
      {"flow.solve_ms_p99", quantile(replay.solve_ms, 0.99), "ms"},
      {"flow.resolve_ms_p50", quantile(replay.resolve_ms, 0.50), "ms"},
      {"core.compose.submitted", c("compose.submitted"), "count"},
      {"core.compose.admitted", c("compose.admitted"), "count"},
      {"core.compose.rejected", c("compose.rejected"), "count"},
      {"core.compose.host_ms_p50", quantile(replay.compose_ms, 0.50), "ms"},
      {"core.compose.host_ms_p99", quantile(replay.compose_ms, 0.99), "ms"},
      {"core.adapt.solves", adapt.count, "count"},
      {"core.adapt.deltas", c("adapt.deltas_shipped"), "count"},
      {"core.adapt.solve_us_p50", adapt.p50, "us"},
      {"core.adapt.solve_us_p99", adapt.p99, "us"},
      {"core.adapt.solve_s_total", adapt.sum / 1e6, "s"},
      {"core.shard.submitted", c("shard.submitted"), "count"},
      {"core.shard.batches", c("shard.batches"), "count"},
      {"core.shard.repairs", c("shard.repairs"), "count"},
      {"core.lease.grants", c("lease.granted"), "count"},
      {"core.lease.nacks", c("lease.nacks"), "count"},
      {"runtime.units_processed", c("runtime.units_processed"), "count"},
      {"runtime.drops_queue_full", c("runtime.drops_queue_full"), "count"},
      {"runtime.drops_deadline", c("runtime.drops_deadline"), "count"},
      {"runtime.units_unroutable", c("runtime.units_unroutable"), "count"},
      {"runtime.deploy_rollbacks", c("deploy.rollbacks"), "count"},
      {"runtime.lease.overgrant_kbps", m.lease_overgrant_kbps, "kbps"},
      {"runtime.sink.ooo_frac", m.out_of_order_fraction(), "ratio"},
      {"obs.cells", double(rows.size()), "count"},
      {"proc.user_s", ru.user_s, "s"},
      {"proc.sys_s", ru.sys_s, "s"},
      {"proc.minflt", double(ru.minflt), "count"},
      {"proc.nivcsw", double(ru.nivcsw), "count"},
      {"trace.wall_s", traced_wall, "s"},
      {"trace.untraced_wall_s", untraced_wall, "s"},
  };
  if (!all_finite(metrics)) ++failed;
  const bool correct = failed == 0;
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  try {
    util::Flags flags(argc, argv);
    name = flags.get_string("workload", "stream400");
    seed = std::uint64_t(flags.get_int("seed", 42));
    seconds = flags.get_double("seconds", 30);
    trace = flags.get_int("trace", 0) != 0;
    flags.finish();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rasc_perfbench: %s\n", e.what());
    return 2;
  }

#ifndef NDEBUG
  constexpr bool kAssertsOn = true;
#else
  constexpr bool kAssertsOn = false;
#endif
  if (kAssertsOn || sanitized()) {
    std::fprintf(stderr,
                 "rasc_perfbench: refusing to time a build with asserts or "
                 "sanitizers (build type %s, flags '%s')\n",
                 PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS);
    return 2;
  }
  const Workload* workload = nullptr;
  for (const auto& w : workloads()) {
    if (name == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "rasc_perfbench: unknown workload %s\n",
                 name.c_str());
    return 2;
  }

  std::printf("host {\"nproc\": %u, \"cpu\": %s, \"compiler\": %s, "
              "\"build_type\": %s, \"workload\": %s, \"seed\": %llu}\n",
              std::thread::hardware_concurrency(),
              json_string(cpu_model()).c_str(),
              json_string(PERFBENCH_COMPILER).c_str(),
              json_string(PERFBENCH_BUILD_TYPE).c_str(),
              json_string(workload->name).c_str(), (unsigned long long)seed);

  Setup setup;
  try {
    setup = set_up(*workload, seed, trace ? 1 : workload->seeds);
  } catch (const std::exception& e) {
    std::printf("check: setup failed: %s\n", e.what());
    return 1;
  }
  std::printf("setup: seeds");
  for (const auto s : setup.seeds) std::printf(" %llu", (unsigned long long)s);
  std::printf(" (world failures %d)\n", setup.world_failures);
  std::fflush(stdout);

  try {
    return trace ? run_traced(*workload, setup)
                 : run_timed(*workload, setup, seconds);
  } catch (const std::exception& e) {
    std::printf("check: %s\n", e.what());
    return 1;
  }
}
