// servebench: the Cortex serving benchmark.
//
//   servebench --workload=hot-routed --seed=1 --seconds=10 --trace=0
//              --bin-dir=DIR --run-dir=DIR
//
// Starts the unmodified cortexd (and, for routed workloads, cortex_router)
// from --bin-dir at their default options, generates the workload from the
// seed, hands the servers only the trace file, seeds the cache over the
// wire, warms up, and drives an open-loop window at the workload's fixed
// offered rate.  --trace=0 prints the end-to-end metrics; --trace=1 prints
// the per-layer metrics (STATS deltas, DUMPTRACE phases, in-process
// replay).  The last line of stdout is one JSON object.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_math.h"
#include "cluster/hash_ring.h"
#include "core/sharded_cache.h"
#include "loadgen.h"
#include "procs.h"
#include "replay.h"
#include "serve/concurrent_engine.h"
#include "util/flags.h"
#include "util/tokenizer.h"
#include "workload/trace_io.h"
#include "world.h"

namespace servebench {
namespace {

using cortex::cluster::NodeEndpoint;
using cortex::serve::Request;
using cortex::serve::RequestType;
using cortex::serve::ResponseType;
namespace fs = std::filesystem;

constexpr std::size_t kReplayRequests = 2000;
constexpr std::size_t kHopSamples = 2000;
// Max-rate search: steps of this many seconds, this many bisections.
constexpr double kSearchStepSec = 0.4;
constexpr int kSearchSteps = 7;
// Search range, as multiples of the workload's fixed offered rate.
constexpr double kSearchLo = 1.0;
constexpr double kSearchHi = 16.0;
// Set-ups per end-to-end run; setup_s is their median.
constexpr int kSetups = 3;
// Most sub-windows a timed window is split into for its timing medians.
constexpr std::size_t kWindowParts = 10;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string bin_dir;
  std::string run_dir;
};

// The serving processes of one set-up.
struct Cluster {
  std::vector<std::unique_ptr<Child>> nodes;
  std::unique_ptr<Child> router;
  std::vector<NodeEndpoint> node_eps;
  NodeEndpoint front;  // where the load goes: the router or the one node

  std::vector<pid_t> Pids() const {
    std::vector<pid_t> pids;
    for (const auto& n : nodes) pids.push_back(n->pid());
    if (router) pids.push_back(router->pid());
    return pids;
  }
  void Stop() {
    if (router) router->Stop();
    for (auto& n : nodes) n->Stop();
  }
};

// State a run must reproduce exactly for its seed.
struct Fingerprint {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t correct_hits = 0;
  std::uint64_t entries = 0;
  std::uint64_t evictions = 0;

  bool operator==(const Fingerprint&) const = default;
  std::string ToString() const {
    std::ostringstream s;
    s << "lookups=" << lookups << " hits=" << hits
      << " correct_hits=" << correct_hits << " entries=" << entries
      << " evictions=" << evictions;
    return s.str();
  }
};

struct Setup {
  std::unique_ptr<World> world;
  Cluster cluster;
  std::vector<Connection> conns;
  double seconds = 0.0;
  Fingerprint warm;
};

NodeEndpoint UnixEndpoint(const std::string& path) {
  NodeEndpoint ep;
  ep.unix_path = path;
  return ep;
}

bool WaitForServer(const NodeEndpoint& ep, Child& child, std::string* error) {
  const double deadline = Now() + 120.0;
  while (Now() < deadline) {
    if (!child.Alive()) {
      *error = "server exited during start-up (" + ep.ToString() + ")";
      return false;
    }
    cortex::serve::BlockingClient client;
    std::string ignored;
    if (Connect(client, ep, &ignored)) {
      Request ping;
      ping.type = RequestType::kPing;
      const auto r = client.Call(ping, &ignored);
      if (r && r->type == ResponseType::kPong) return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  *error = "server did not answer PING: " + ep.ToString();
  return false;
}

std::vector<std::map<std::string, std::string>> NodeStats(
    const Cluster& c, std::string* error) {
  std::vector<std::map<std::string, std::string>> out;
  for (const NodeEndpoint& ep : c.node_eps) {
    out.push_back(FetchStats(ep, error));
    if (out.back().empty()) return {};
  }
  return out;
}

double SumStat(const std::vector<std::map<std::string, std::string>>& nodes,
               const std::string& key) {
  double total = 0.0;
  for (const auto& s : nodes) total += StatNumber(s, key);
  return total;
}

double MeanStat(const std::vector<std::map<std::string, std::string>>& nodes,
                const std::string& key) {
  return nodes.empty() ? 0.0 : SumStat(nodes, key) / nodes.size();
}

bool SeedCache(const World& world, const Cluster& cluster,
               std::string* error) {
  if (world.spec.seed_via_restore) {
    std::vector<cortex::SemanticElement> elements;
    for (const std::uint64_t id : world.seeded) {
      elements.push_back(world.SeedElement(id));
    }
    std::ostringstream blob;
    cortex::serve::WriteEngineSnapshot(blob, elements);
    for (const NodeEndpoint& ep : cluster.node_eps) {
      cortex::serve::BlockingClient client;
      if (!Connect(client, ep, error)) return false;
      client.SetCallTimeout(120.0);
      Request restore;
      restore.type = RequestType::kRestore;
      restore.blob = blob.str();
      const auto r = client.Call(restore, error);
      if (!r || r->type != ResponseType::kOk ||
          r->id != world.seeded.size()) {
        if (error->empty()) {
          *error = "RESTORE seeded " + std::to_string(r ? r->id : 0) +
                   " of " + std::to_string(world.seeded.size()) + " SEs";
        }
        return false;
      }
    }
    return true;
  }
  // One connection, one INSERT per SE, through the front door.
  cortex::serve::BlockingClient client;
  if (!Connect(client, cluster.front, error)) return false;
  for (const std::uint64_t id : world.seeded) {
    const cortex::SemanticElement se = world.SeedElement(id);
    Request insert;
    insert.type = RequestType::kInsert;
    insert.key = se.key;
    insert.value = se.value;
    insert.staticity = se.staticity;
    const auto r = client.Call(insert, error);
    if (!r || r->type != ResponseType::kOk) {
      if (error->empty()) *error = "seed INSERT refused";
      return false;
    }
  }
  return true;
}

// Generates the workload, starts the servers, seeds, and warms up.
bool DoSetup(const WorkloadSpec& spec, const Options& opt, Setup& s,
             std::string* error) {
  const double t0 = Now();
  s.world = BuildWorld(spec, opt.seed);
  const World& world = *s.world;
  const std::string trace = opt.run_dir + "/workload.ctrc";
  cortex::SaveWorkloadTraceFile(world.bundle, trace);

  Cluster& c = s.cluster;
  std::string node_list;
  for (int n = 0; n < spec.nodes; ++n) {
    const std::string sock = opt.run_dir + "/n" + std::to_string(n) + ".sock";
    fs::remove(sock);
    c.nodes.push_back(std::make_unique<Child>());
    if (!c.nodes.back()->Start({opt.bin_dir + "/cortexd", "--trace=" + trace,
                                "--unix=" + sock},
                               opt.run_dir + "/n" + std::to_string(n) + ".log",
                               error)) {
      return false;
    }
    c.node_eps.push_back(UnixEndpoint(sock));
    node_list += (n ? ",unix:" : "unix:") + sock;
  }
  c.front = c.node_eps.front();
  if (spec.routed) {
    const std::string sock = opt.run_dir + "/router.sock";
    fs::remove(sock);
    c.router = std::make_unique<Child>();
    if (!c.router->Start({opt.bin_dir + "/cortex_router",
                          "--nodes=" + node_list, "--trace=" + trace,
                          "--unix=" + sock},
                         opt.run_dir + "/router.log", error)) {
      return false;
    }
    c.front = UnixEndpoint(sock);
  }
  for (int n = 0; n < spec.nodes; ++n) {
    if (!WaitForServer(c.node_eps[n], *c.nodes[n], error)) return false;
  }
  if (c.router && !WaitForServer(c.front, *c.router, error)) return false;
  if (!SeedCache(world, c, error)) return false;

  s.conns.reserve(kReaders + 1);
  for (int i = 0; i <= kReaders; ++i) {
    const bool writer = i == kReaders;
    s.conns.push_back(Connection{
        {}, c.front, Stream(world, writer, i, opt.seed),
        cortex::Rng(opt.seed * 0x2545f4914f6cdd1dULL + 101 + i),
        writer ? spec.writer_rate : spec.reader_rate});
    if (!Connect(s.conns.back().client, c.front, error)) return false;
  }

  const PhaseResult warm =
      RunPhase(world, s.conns, 1.0, ArrivalCounts(s.conns, 1.0, kWarmupSec),
               kP99LimitSec, false, 1);
  if (warm.failed > 0) {
    *error = "warm-up: " + std::to_string(warm.failed) +
             " requests failed (first: " + warm.first_error + ")";
    return false;
  }
  const auto stats = NodeStats(c, error);
  if (stats.empty()) return false;
  s.warm.lookups = warm.lookups_attempted;
  s.warm.hits = warm.hits;
  s.warm.correct_hits = warm.correct_hits;
  s.warm.entries = static_cast<std::uint64_t>(SumStat(stats, "entries"));
  s.warm.evictions =
      static_cast<std::uint64_t>(SumStat(stats, "cortex_cache_evictions"));
  s.seconds = Now() - t0;
  return true;
}

void Teardown(Setup& s, const Options& opt) {
  for (Connection& c : s.conns) c.client.Close();
  s.cluster.Stop();
  std::error_code ignored;
  for (const auto& entry : fs::directory_iterator(opt.run_dir, ignored)) {
    const auto ext = entry.path().extension();
    if (ext == ".sock" || ext == ".ctrc") fs::remove(entry.path(), ignored);
  }
}

// What one timed window measured, with the servers' view around it.
struct Window {
  PhaseResult load;
  std::vector<std::map<std::string, std::string>> before, after;
  std::map<std::string, std::string> router_before, router_after;
  double cpu_sec = 0.0;
  double rss_mb = 0.0;
  Fingerprint state;
};

bool RunWindow(Setup& s, const Options& opt, bool traced, Window& w,
               std::string* error) {
  const World& world = *s.world;
  const Cluster& c = s.cluster;
  w.before = NodeStats(c, error);
  if (w.before.empty()) return false;
  if (c.router) w.router_before = FetchStats(c.front, error);
  const auto pids = c.Pids();
  double cpu0 = 0.0;
  for (const pid_t p : pids) cpu0 += CpuSeconds(p);
  w.load = RunPhase(world, s.conns, 1.0,
                    ArrivalCounts(s.conns, 1.0, opt.seconds),
                    kP99LimitSec, traced, 1ULL << 20);
  for (const pid_t p : pids) w.cpu_sec += CpuSeconds(p);
  w.cpu_sec -= cpu0;
  for (const pid_t p : pids) w.rss_mb += PeakRssMb(p);
  w.after = NodeStats(c, error);
  if (w.after.empty()) return false;
  if (c.router) w.router_after = FetchStats(c.front, error);
  w.state.lookups = w.load.lookups_attempted;
  w.state.hits = w.load.hits;
  w.state.correct_hits = w.load.correct_hits;
  w.state.entries = static_cast<std::uint64_t>(SumStat(w.after, "entries"));
  w.state.evictions =
      static_cast<std::uint64_t>(SumStat(w.after, "cortex_cache_evictions"));
  return true;
}

// Highest offered rate at which lookup p99 stays under the workload's
// limit, nothing fails, and no connection's backlog grows; reported as the
// throughput that step achieved (requests answered per second of wall
// time), so the figure is measured rather than a point of the search grid.
double MaxRateAtSlo(Setup& s) {
  const WorkloadSpec& spec = s.world->spec;
  const double base = spec.offered_rate();
  std::uint64_t id = 1ULL << 36;
  std::map<double, double> achieved;
  const auto passes = [&](double rate) {
    const double scale = rate / base;
    const PhaseResult r =
        RunPhase(*s.world, s.conns, scale,
                 ArrivalCounts(s.conns, scale, kSearchStepSec), kP99LimitSec,
                 false, id);
    id += 1ULL << 24;
    achieved[rate] = r.attempted / (r.finished - r.start);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return r.failed == 0 && !r.backlog_grew &&
           Percentile(r.lookup_latency, 0.99) <= kP99LimitSec;
  };
  const double rate = SearchMaxRate(kSearchLo * base, kSearchHi * base,
                                    kSearchSteps, passes);
  return rate > 0.0 ? achieved[rate] : 0.0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : -1.0;
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            Num(v) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
}

// DUMPTRACE queue_wait spans (seconds) from every node.
std::vector<double> QueueWaits(const Cluster& c) {
  std::vector<double> waits;
  for (const NodeEndpoint& ep : c.node_eps) {
    cortex::serve::BlockingClient client;
    std::string error;
    if (!Connect(client, ep, &error)) continue;
    Request dump;
    dump.type = RequestType::kDumpTrace;
    dump.max_traces = 256;
    const auto r = client.Call(dump, &error);
    if (!r || r->type != ResponseType::kTraces) continue;
    const std::string& text = r->message;
    const std::string tag = "queue_wait=";
    for (auto pos = text.find(tag); pos != std::string::npos;
         pos = text.find(tag, pos + 1)) {
      waits.push_back(std::stod(text.substr(pos + tag.size())) / 1e3);
    }
  }
  return waits;
}

// Routed RTT minus direct-to-owner RTT for the same lookups (seconds).
double RouterHop(const Setup& s, const Options& opt) {
  const World& world = *s.world;
  const cortex::Tokenizer tokenizer;
  cortex::cluster::HashRing ring;
  for (std::size_t n = 0; n < s.cluster.node_eps.size(); ++n) {
    ring.AddNode("node" + std::to_string(n), s.cluster.node_eps[n]);
  }
  cortex::serve::BlockingClient routed;
  std::vector<cortex::serve::BlockingClient> direct(s.cluster.node_eps.size());
  std::string error;
  if (!Connect(routed, s.cluster.front, &error)) return 0.0;
  for (std::size_t n = 0; n < direct.size(); ++n) {
    if (!Connect(direct[n], s.cluster.node_eps[n], &error)) return 0.0;
  }
  Stream stream(world, /*writer=*/false, 1000, opt.seed);
  std::vector<double> via_router, to_owner;
  for (std::size_t i = 0; i < kHopSamples; ++i) {
    const Op op = stream.Next();
    Request lookup;
    lookup.type = RequestType::kLookup;
    lookup.query = *op.text;
    const std::string owner = ring.PrimaryFor(
        cortex::PlacementAnchor(world.embedder, tokenizer, *op.text));
    auto& node = direct[std::stoul(owner.substr(4))];
    const auto time = [&](cortex::serve::BlockingClient& c) {
      const double t0 = Now();
      c.Call(lookup, &error);
      return Now() - t0;
    };
    if (i % 2 == 0) {
      via_router.push_back(time(routed));
      to_owner.push_back(time(node));
    } else {
      to_owner.push_back(time(node));
      via_router.push_back(time(routed));
    }
  }
  return Percentile(via_router, 0.5) - Percentile(to_owner, 0.5);
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  const auto self = SelfTimes(spans);
  std::ofstream out(path);
  out << "id\tparent\trequest\tname\tstart_s\tend_s\tself_us\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& sp = spans[i];
    out << sp.id << '\t' << sp.parent << '\t' << sp.request << '\t' << sp.name
        << '\t' << Num(sp.start) << '\t' << Num(sp.end) << '\t'
        << Num(self[i] * 1e6) << '\n';
  }
  // Self-time summary by span name, to stderr.
  std::map<std::string, std::vector<double>> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    by_name[spans[i].name].push_back(self[i]);
  }
  std::cerr << "self time p50 by span (" << spans.size() << " spans, "
            << path << "):\n";
  for (const auto& [name, v] : by_name) {
    std::cerr << "  " << name << ": " << Num(Percentile(v, 0.5) * 1e6)
              << " us (n=" << v.size() << ")\n";
  }
}

// Client-side timings of one window.  Each is the median over
// sub-windows of ~1000 lookups (at most kWindowParts), so every
// sub-window's p99 has at least 10 samples beyond it.
struct Timings {
  WindowedStat lookup_p50, lookup_p99, insert_p50;
};

Timings TimingsOf(const PhaseResult& L) {
  const std::size_t parts =
      std::clamp<std::size_t>(L.lookups_attempted / 1000, 1, kWindowParts);
  const auto edges = EqualCountEdges(L.lookup_due, parts);
  Timings t;
  t.lookup_p50 = MedianOverWindows(L.lookup_due, L.lookup_latency, edges, 0.5);
  t.lookup_p99 =
      MedianOverWindows(L.lookup_due, L.lookup_latency, edges, 0.99);
  t.insert_p50 = MedianOverWindows(L.insert_due, L.insert_latency, edges, 0.5);
  return t;
}

// The checks every window must pass: every hit refereed, every value the
// one stored under its matched key, enough tail samples, some hits and
// some inserts.  Prints the state line the determinism check compares.
bool CheckWindow(const WorkloadSpec& spec, const Options& opt,
                 const Window& w, const Timings& t) {
  const PhaseResult& L = w.load;
  std::cout << "state workload=" << spec.name << " seed=" << opt.seed << " "
            << w.state.ToString() << " unrefereed=" << L.unrefereed
            << " corrupt=" << L.corrupt_hits << "\n";
  std::cout << "lookup_p50_ms=" << Num(t.lookup_p50.value * 1e3)
            << " lookup_p99_ms=" << Num(t.lookup_p99.value * 1e3)
            << " (sub-windows=" << t.lookup_p99.parts
            << " samples>=" << t.lookup_p99.min_samples
            << " beyond>=" << t.lookup_p99.min_beyond
            << ") insert_p50_ms=" << Num(t.insert_p50.value * 1e3) << "\n";
  bool ok = true;
  if (t.lookup_p99.min_beyond < 10) {
    ok = false;
    std::cerr << "servebench: a sub-window has fewer than 10 lookups beyond "
                 "p99\n";
  }
  if (L.unrefereed > 0 || L.corrupt_hits > 0 || L.insert_latency.empty() ||
      L.hits == 0) {
    ok = false;
    std::cerr << "servebench: unrefereed=" << L.unrefereed
              << " corrupt=" << L.corrupt_hits
              << " inserts=" << L.insert_latency.size() << " hits=" << L.hits
              << "\n";
  }
  if (L.failed > 0) {
    std::cerr << "servebench: " << L.failed
              << " requests failed (first: " << L.first_error << ")\n";
  }
  return ok;
}

double Share(double num, double den) { return den > 0 ? num / den : 0.0; }

int RunEndToEnd(const WorkloadSpec& spec, const Options& opt) {
  std::vector<double> setup_seconds;
  std::vector<Fingerprint> warm_states;
  Setup s;
  std::string error;
  bool correct = true;
  for (int i = 0; i < kSetups; ++i) {
    if (i > 0) {
      Teardown(s, opt);
      s = Setup();
    }
    if (!DoSetup(spec, opt, s, &error)) {
      std::cerr << "servebench: set-up failed: " << error << "\n";
      Teardown(s, opt);
      return 1;
    }
    setup_seconds.push_back(s.seconds);
    warm_states.push_back(s.warm);
  }
  for (const Fingerprint& f : warm_states) {
    if (!(f == warm_states.front())) {
      correct = false;
      std::cerr << "servebench: warm-up state differs between set-ups: "
                << f.ToString() << " vs " << warm_states.front().ToString()
                << "\n";
    }
  }

  Window w;
  if (!RunWindow(s, opt, false, w, &error)) {
    std::cerr << "servebench: window failed: " << error << "\n";
    Teardown(s, opt);
    return 1;
  }
  Teardown(s, opt);

  const PhaseResult& L = w.load;
  correct = CheckWindow(spec, opt, w, TimingsOf(L)) && correct;
  PrintResult(correct, L.attempted, L.failed,
              {
                  {"setup_s", Percentile(setup_seconds, 0.5), "s"},
                  {"hit_rate", Share(L.hits, L.lookups_attempted), "ratio"},
                  {"correct_hit_share", Share(L.correct_hits, L.hits),
                   "ratio"},
                  {"ok_share", Share(L.attempted - L.failed, L.attempted),
                   "ratio"},
                  {"rss_mb", w.rss_mb, "MiB"},
                  {"server_cpu_ms_per_kreq",
                   Share(w.cpu_sec * 1e3, L.attempted / 1e3), "ms"},
              });
  return 0;
}

int RunPerLayer(const WorkloadSpec& spec, const Options& opt) {
  Setup s;
  std::string error;
  if (!DoSetup(spec, opt, s, &error)) {
    std::cerr << "servebench: set-up failed: " << error << "\n";
    Teardown(s, opt);
    return 1;
  }
  // The plain window is measured exactly as in an end-to-end run; the
  // traced window repeats it with spans on, for the overhead share.
  Window plain, traced;
  if (!RunWindow(s, opt, false, plain, &error)) {
    std::cerr << "servebench: window failed: " << error << "\n";
    Teardown(s, opt);
    return 1;
  }
  const double max_rate = MaxRateAtSlo(s);
  if (!RunWindow(s, opt, true, traced, &error)) {
    std::cerr << "servebench: window failed: " << error << "\n";
    Teardown(s, opt);
    return 1;
  }
  const std::vector<double> queue_waits = QueueWaits(s.cluster);
  const double hop = spec.routed ? RouterHop(s, opt) : 0.0;
  Teardown(s, opt);
  const ReplayResult replay = Replay(*s.world, opt.seed, kReplayRequests);

  std::vector<Span> spans = traced.load.spans;
  spans.insert(spans.end(), replay.spans.begin(), replay.spans.end());
  WriteSpans(opt.run_dir + "/spans-" + spec.name + ".tsv", spans);

  const auto& b = plain.before;
  const auto& a = plain.after;
  const auto delta = [&](const std::string& key) {
    return SumStat(a, key) - SumStat(b, key);
  };
  const PhaseResult& L = plain.load;
  const Timings t = TimingsOf(L);
  const Timings traced_t = TimingsOf(traced.load);
  std::vector<double> rtt;
  for (const OpenLoopSample& x : L.lookups) rtt.push_back(x.done - x.sent);
  const double server_p50 = MeanStat(a, "cortex_server_request_seconds_p50");
  const double entries = SumStat(a, "entries");
  const double rows_per_shard =
      entries / static_cast<double>(spec.nodes * kCortexdShards);
  const double row_bytes = s.world->embedder.dimension() + sizeof(float);
  const double batches = delta("cortex_pipeline_batches");
  const auto router_delta = [&](const std::string& key) {
    return StatNumber(plain.router_after, key) -
           StatNumber(plain.router_before, key);
  };

  std::vector<Metric> m = {
      {"client.lookup_p50_ms", t.lookup_p50.value * 1e3, "ms"},
      {"client.lookup_p99_ms", t.lookup_p99.value * 1e3, "ms"},
      {"client.insert_p50_ms", t.insert_p50.value * 1e3, "ms"},
      {"client.max_rate_at_slo_rps", max_rate, "req/s"},
      {"bench.lag_p99_ms", Percentile(L.lateness, 0.99) * 1e3, "ms"},
      {"wire.overhead_p50_us", (Percentile(rtt, 0.5) - server_p50) * 1e6,
       "us"},
      {"server.request_p50_us", server_p50 * 1e6, "us"},
      {"server.queue_wait_p99_us", Percentile(queue_waits, 0.99) * 1e6, "us"},
      {"server.busy_share",
       Share(delta("cortex_server_requests_busy"),
             delta("cortex_server_requests_served")),
       "ratio"},
      {"pipeline.batch_size_mean",
       batches > 0 ? delta("cortex_pipeline_requests") / batches : 1.0,
       "count"},
      {"pipeline.stage_wait_p50_us",
       MeanStat(a, "cortex_pipeline_stage_wait_seconds_p50") * 1e6, "us"},
      {"engine.probe_p50_us",
       MeanStat(a, "cortex_engine_probe_seconds_p50") * 1e6, "us"},
      {"engine.commit_p99_us",
       MeanStat(a, "cortex_engine_commit_seconds_p99") * 1e6, "us"},
      {"engine.insert_p50_us",
       MeanStat(a, "cortex_engine_insert_seconds_p50") * 1e6, "us"},
      {"judger.reject_share",
       Share(delta("cortex_engine_judger_rejects"),
             delta("cortex_engine_lookups")),
       "ratio"},
      {"cache.evictions_per_insert",
       Share(delta("cortex_cache_evictions"), delta("cortex_engine_inserts")),
       "ratio"},
      {"cache.entries", entries, "count"},
      {"kernel.scan_bytes_per_lookup", rows_per_shard * row_bytes, "bytes"},
      {"router.hop_p50_us", hop * 1e6, "us"},
      {"router.node_errors",
       router_delta("cortex_router_node_errors") +
           router_delta("cortex_router_failovers"),
       "count"},
      {"trace.overhead_share",
       Share(traced_t.lookup_p50.value - t.lookup_p50.value,
             t.lookup_p50.value),
       "ratio"},
  };
  const std::map<std::string, std::string> replay_units = {
      {"protocol.codec_ns", "ns"},    {"ring.owners_ns", "ns"},
      {"tenant.admit_ns", "ns"},      {"embed.query_us", "us"},
      {"embed.batch_query_us", "us"}, {"kernel.scan_ns_per_row", "ns"},
      {"judger.call_us", "us"},       {"engine.insert_us_per_krow", "us"},
  };
  for (const auto& [name, value] : replay.metrics) {
    m.push_back({name, value, replay_units.at(name)});
  }
  const bool correct = CheckWindow(spec, opt, plain, t) &&
                       traced.load.unrefereed == 0 &&
                       traced.load.corrupt_hits == 0;
  PrintResult(correct, L.attempted + traced.load.attempted,
              L.failed + traced.load.failed, m);
  return 0;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  using namespace servebench;
  cortex::Flags flags(argc, argv);
  Options opt;
  opt.workload = flags.GetString("workload");
  opt.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));
  opt.seconds = flags.GetDouble("seconds", 10.0);
  opt.trace = flags.GetInt("trace", 0) != 0;
  opt.bin_dir = flags.GetString("bin-dir");
  opt.run_dir = flags.GetString("run-dir", ".servebench-run");
  const WorkloadSpec* spec = FindWorkload(opt.workload);
  if (spec == nullptr || opt.bin_dir.empty() || opt.seconds <= 0) {
    std::cerr << "usage: servebench --workload=NAME --bin-dir=DIR "
                 "[--seed=N --seconds=S --trace=0|1 --run-dir=DIR]\n"
                 "workloads:";
    for (const auto& n : WorkloadNames()) std::cerr << " " << n;
    std::cerr << "\n";
    return 2;
  }
  std::filesystem::create_directories(opt.run_dir);
  return opt.trace ? RunPerLayer(*spec, opt) : RunEndToEnd(*spec, opt);
}
