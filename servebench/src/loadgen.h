// The open-loop load generator: one thread per connection, each a
// BlockingClient with its own Poisson schedule.  Latency is timed from the
// scheduled send; how late the generator ran is recorded beside it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench_math.h"
#include "cluster/hash_ring.h"
#include "serve/client.h"
#include "world.h"

namespace servebench {

bool Connect(cortex::serve::BlockingClient& client,
             const cortex::cluster::NodeEndpoint& ep, std::string* error);

// STATS as key -> value, or an empty map (and `error`) on failure.
std::map<std::string, std::string> FetchStats(
    const cortex::cluster::NodeEndpoint& ep, std::string* error);
double StatNumber(const std::map<std::string, std::string>& stats,
                  const std::string& key);

// One connection of the generator.
struct Connection {
  cortex::serve::BlockingClient client;
  cortex::cluster::NodeEndpoint endpoint;
  Stream stream;
  cortex::Rng schedule;  // Poisson inter-arrival gaps
  double rate = 0.0;     // arrivals/s at the fixed offered rate
};

// What a phase of load produced, merged over its connections.
struct PhaseResult {
  std::vector<OpenLoopSample> lookups;  // every lookup, per connection in
                                        // schedule order
  std::vector<double> lookup_latency;   // from schedule; failures = +inf
  std::vector<double> lookup_due;       // scheduled time of each lookup
  std::vector<double> insert_latency;   // from schedule (or from the send
                                        // when the insert follows a miss)
  std::vector<double> insert_due;       // scheduled time of its arrival
  std::vector<double> lateness;         // every scheduled arrival
  std::uint64_t attempted = 0;          // requests sent
  std::uint64_t failed = 0;             // BUSY, ERR, transport, timeout
  std::uint64_t lookups_attempted = 0;
  std::uint64_t hits = 0;
  std::uint64_t correct_hits = 0;   // value the oracle confirms for the query
  std::uint64_t unrefereed = 0;     // hits the oracle could not judge
  std::uint64_t corrupt_hits = 0;   // value differs from matched key's answer
  std::uint64_t inserts_ok = 0;
  std::uint64_t inserts_rejected = 0;
  bool backlog_grew = false;        // any connection's backlog grew
  std::string first_error;
  std::vector<Span> spans;          // traced phases only
  double start = 0.0;               // the schedule's origin
  double finished = 0.0;            // when the last response arrived
};

// Runs `scale` x each connection's fixed rate for `count[i]` arrivals on
// connection i.  `backlog_tolerance` (s) feeds BacklogGrows.  With
// `traced`, every request leaves spans (root "request", children
// "generator.lag" and "wire.call") keyed by request id from `first_id`.
PhaseResult RunPhase(const World& world, std::vector<Connection>& conns,
                     double scale, const std::vector<std::size_t>& count,
                     double backlog_tolerance, bool traced,
                     std::uint64_t first_id);

// Arrivals connection i makes in `seconds` at `scale` x its fixed rate.
std::vector<std::size_t> ArrivalCounts(const std::vector<Connection>& conns,
                                       double scale, double seconds);

}  // namespace servebench
