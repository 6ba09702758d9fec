// In-process replay of a workload's request stream through the public
// functions of each module the serving path calls, with a span around each
// call.  No span lives inside the program; the replay times the calls from
// outside, the way the servers make them.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "bench_math.h"
#include "world.h"

namespace servebench {

struct ReplayResult {
  // Per-layer metric name -> value (protocol.codec_ns, embed.query_us, ...).
  std::map<std::string, double> metrics;
  std::vector<Span> spans;
};

// Replays the first `requests` arrivals of the workload's streams.
ReplayResult Replay(const World& world, std::uint64_t seed,
                    std::size_t requests);

}  // namespace servebench
