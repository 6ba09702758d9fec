#include "loadgen.h"

#include <sys/prctl.h>
#include <time.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <thread>

namespace servebench {
namespace {

using cortex::serve::Request;
using cortex::serve::RequestType;
using cortex::serve::Response;
using cortex::serve::ResponseType;

constexpr double kCallTimeoutSec = 5.0;
constexpr double kInf = std::numeric_limits<double>::infinity();

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Sleeps until kSpinSec before `t`, then spins.  On a virtual machine a
// sleeping thread can take 100 us or more to be woken (and far longer when
// the host is busy); that delay would read as generator lateness on every
// request.  steady_clock is CLOCK_MONOTONIC, so the absolute sleep lands
// on the schedule without accumulating drift.
constexpr double kSpinSec = 250e-6;

void SleepUntil(double t) {
  const double wake = t - kSpinSec;
  if (wake > Now()) {
    timespec ts;
    ts.tv_sec = static_cast<time_t>(wake);
    ts.tv_nsec = static_cast<long>((wake - std::floor(wake)) * 1e9);
    while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
           EINTR) {
    }
  }
  while (Now() < t) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
}

struct SpanSink {
  bool on = false;
  std::uint64_t next_id = 0;
  std::vector<Span>* out = nullptr;

  std::uint64_t Add(std::uint64_t parent, std::uint64_t request,
                    const char* name, double start, double end) {
    if (!on) return 0;
    const std::uint64_t id = ++next_id;
    out->push_back({id, parent, request, name, start, end});
    return id;
  }
};

// Issues one request; returns the response or nullopt after recording a
// transport failure (and reconnecting for the next request).
std::optional<Response> CallOnce(Connection& conn, const Request& request,
                                 PhaseResult& r) {
  ++r.attempted;
  std::string error;
  auto response = conn.client.Call(request, &error);
  if (!response) {
    ++r.failed;
    if (r.first_error.empty()) r.first_error = error;
    std::string reconnect_error;
    Connect(conn.client, conn.endpoint, &reconnect_error);
    return std::nullopt;
  }
  if (response->type == ResponseType::kBusy ||
      response->type == ResponseType::kError) {
    ++r.failed;
    if (r.first_error.empty()) {
      r.first_error = response->type == ResponseType::kBusy
                          ? "BUSY"
                          : "ERR " + response->message;
    }
    return std::nullopt;
  }
  return response;
}

// Sends the INSERT for `op`'s topic; returns when it was answered.
double Insert(const World& world, Connection& conn, const Op& op,
              PhaseResult& r) {
  const cortex::Topic& t = world.topic(op.topic);
  Request insert;
  insert.type = op.tenant.empty() ? RequestType::kInsert
                                  : RequestType::kTenantInsert;
  insert.tenant = std::string(op.tenant);
  insert.key = *op.text;
  insert.value = t.answer;
  insert.staticity = t.staticity;
  const auto response = CallOnce(conn, insert, r);
  const double done = Now();
  if (!response) return kInf;
  if (response->type == ResponseType::kOk) {
    ++r.inserts_ok;
  } else if (response->type == ResponseType::kReject) {
    ++r.inserts_rejected;
  } else {
    ++r.failed;
    if (r.first_error.empty()) r.first_error = "unexpected INSERT response";
  }
  return done;
}

void RunConnection(const World& world, Connection& conn, double rate,
                   std::size_t count, double start, double backlog_tolerance,
                   std::uint64_t first_id, SpanSink spans, PhaseResult& r) {
  // Timer slack defaults to 50 us, which would read as generator lateness.
  prctl(PR_SET_TIMERSLACK, 1UL);
  const auto& oracle = *world.bundle.oracle;
  double due = start;
  for (std::size_t n = 0; n < count; ++n) {
    due += conn.schedule.Exponential(rate);
    SleepUntil(due);
    const Op op = conn.stream.Next();
    const double sent = Now();
    const std::uint64_t id = first_id + n;
    r.lateness.push_back(Lateness({due, sent, sent}));

    if (op.kind == OpKind::kInsert) {
      const double done = Insert(world, conn, op, r);
      r.insert_latency.push_back(LatencyFromSchedule({due, sent, done}));
      r.insert_due.push_back(due);
      const auto root = spans.Add(0, id, "request", due, std::min(done, Now()));
      spans.Add(root, id, "generator.lag", due, sent);
      spans.Add(root, id, "wire.insert", sent, std::min(done, Now()));
      continue;
    }

    Request lookup;
    lookup.type = op.tenant.empty() ? RequestType::kLookup
                                    : RequestType::kTenantLookup;
    lookup.tenant = std::string(op.tenant);
    lookup.query = *op.text;
    ++r.lookups_attempted;
    const auto response = CallOnce(conn, lookup, r);
    const double done = Now();
    const OpenLoopSample sample{due, sent, response ? done : kInf};
    r.lookups.push_back(sample);
    r.lookup_latency.push_back(LatencyFromSchedule(sample));
    r.lookup_due.push_back(due);
    double end = done;
    double insert_sent = 0.0, insert_done = 0.0;
    if (response && response->type == ResponseType::kHit) {
      ++r.hits;
      if (!oracle.TopicOf(*op.text)) {
        ++r.unrefereed;
      } else if (oracle.InfoCorrect(*op.text, response->value)) {
        ++r.correct_hits;
      }
      // Integrity, whatever the judger decided: the value served must be
      // the one stored under the key it claims to have matched.
      if (oracle.ExpectedInfo(response->matched_key) != response->value) {
        ++r.corrupt_hits;
      }
    } else if (response && response->type == ResponseType::kMiss) {
      if (op.insert_on_miss) {
        insert_sent = Now();
        insert_done = Insert(world, conn, op, r);
        r.insert_latency.push_back(insert_done - insert_sent);
        r.insert_due.push_back(due);
        end = std::min(insert_done, Now());
      }
    } else if (response) {
      ++r.failed;
      if (r.first_error.empty()) r.first_error = "unexpected LOOKUP response";
    }
    const auto root = spans.Add(0, id, "request", due, end);
    spans.Add(root, id, "generator.lag", due, sent);
    spans.Add(root, id, "wire.lookup", sent, done);
    if (insert_sent > 0.0) {
      spans.Add(root, id, "wire.insert", insert_sent, end);
    }
  }
  r.backlog_grew = BacklogGrows(r.lookups, backlog_tolerance);
}

}  // namespace

bool Connect(cortex::serve::BlockingClient& client,
             const cortex::cluster::NodeEndpoint& ep, std::string* error) {
  client.Close();
  client.SetCallTimeout(kCallTimeoutSec);
  return ep.unix_path.empty() ? client.ConnectTcp(ep.host, ep.port, error)
                              : client.ConnectUnix(ep.unix_path, error);
}

std::map<std::string, std::string> FetchStats(
    const cortex::cluster::NodeEndpoint& ep, std::string* error) {
  cortex::serve::BlockingClient client;
  std::map<std::string, std::string> out;
  if (!Connect(client, ep, error)) return out;
  Request stats;
  stats.type = RequestType::kStats;
  const auto response = client.Call(stats, error);
  if (!response || response->type != ResponseType::kStats) {
    if (error && error->empty()) *error = "unexpected STATS response";
    return out;
  }
  for (const auto& [k, v] : response->stats) out[k] = v;
  return out;
}

double StatNumber(const std::map<std::string, std::string>& stats,
                  const std::string& key) {
  const auto it = stats.find(key);
  return it == stats.end() ? 0.0 : std::stod(it->second);
}

std::vector<std::size_t> ArrivalCounts(const std::vector<Connection>& conns,
                                       double scale, double seconds) {
  std::vector<std::size_t> counts;
  for (const Connection& c : conns) {
    counts.push_back(static_cast<std::size_t>(
        std::llround(c.rate * scale * seconds)));
  }
  return counts;
}

PhaseResult RunPhase(const World& world, std::vector<Connection>& conns,
                     double scale, const std::vector<std::size_t>& count,
                     double backlog_tolerance, bool traced,
                     std::uint64_t first_id) {
  std::vector<PhaseResult> parts(conns.size());
  std::vector<std::thread> threads;
  const double start = Now() + 0.002;
  for (std::size_t i = 0; i < conns.size(); ++i) {
    // Ids: connection i numbers its requests from first_id + i * 2^32;
    // span ids are unique per connection in the same way.
    SpanSink sink{traced, (static_cast<std::uint64_t>(i) + 1) << 40,
                  &parts[i].spans};
    // At most four spans per arrival; growing the vector mid-window would
    // stall the connection.
    if (traced) parts[i].spans.reserve(4 * count[i]);
    threads.emplace_back([&, i, sink] {
      RunConnection(world, conns[i], conns[i].rate * scale, count[i], start,
                    backlog_tolerance, first_id + (i << 32), sink, parts[i]);
    });
  }
  for (auto& t : threads) t.join();

  PhaseResult total;
  total.finished = Now();
  total.start = start;
  for (PhaseResult& p : parts) {
    const auto append = [](auto& into, const auto& from) {
      into.insert(into.end(), from.begin(), from.end());
    };
    append(total.lookups, p.lookups);
    append(total.lookup_latency, p.lookup_latency);
    append(total.lookup_due, p.lookup_due);
    append(total.insert_latency, p.insert_latency);
    append(total.insert_due, p.insert_due);
    append(total.lateness, p.lateness);
    append(total.spans, p.spans);
    total.attempted += p.attempted;
    total.failed += p.failed;
    total.lookups_attempted += p.lookups_attempted;
    total.hits += p.hits;
    total.correct_hits += p.correct_hits;
    total.unrefereed += p.unrefereed;
    total.corrupt_hits += p.corrupt_hits;
    total.inserts_ok += p.inserts_ok;
    total.inserts_rejected += p.inserts_rejected;
    total.backlog_grew = total.backlog_grew || p.backlog_grew;
    if (total.first_error.empty()) total.first_error = p.first_error;
  }
  return total;
}

}  // namespace servebench
