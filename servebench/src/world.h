// Workload definitions: the topic universe each workload needs, the set of
// SEs seeded before measuring, and the per-connection request streams.
//
// Every choice below is made so that the cache contents in the timed
// window depend only on the seed and on ONE connection's request order:
//   * reader connections only LOOKUP, so they change nothing but
//     frequency counters;
//   * the single writer connection issues every INSERT, in its own order;
//   * topics are split into disjoint families (a topic plus its trap
//     siblings), and readers and the writer never share a family, so a
//     writer insert cannot become a reader's candidate.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/semantic_element.h"
#include "embedding/hashed_embedder.h"
#include "llm/judger_model.h"
#include "util/rng.h"
#include "workload/workloads.h"

namespace servebench {

// Shards per cortexd: the server's default, which the benchmark never
// overrides but mirrors when it places seeds and replays scans.
inline constexpr std::size_t kCortexdShards = 4;

// Reader connections of every workload.  With the writer that makes 3 load
// threads, leaving the rest of a 4-core host to the servers.
inline constexpr int kReaders = 2;
// Warm-up at the fixed rate before anything is timed.
inline constexpr double kWarmupSec = 1.5;
// Lookup p99 limit of the max-rate search, for every workload: above the
// p99 a busy host imposes on its own (up to ~20 ms), below the saturated
// regime (50 ms to seconds), so the search finds the knee.
inline constexpr double kP99LimitSec = 0.050;

// What the writer connection does with each of its arrivals.
enum class WriterMode {
  kTenantLookupInsert,  // TLOOKUP; on a miss TINSERT (hot-routed)
  kLookupInsert,        // LOOKUP of an unseen topic, then INSERT (large-scan)
  kInsertOnly,          // INSERT a new SE, evicting at capacity (write-churn)
};

struct WorkloadSpec {
  std::string name;
  bool routed = false;  // through cortex_router to `nodes` cortexd
  int nodes = 1;

  // Universe shape.
  std::size_t topics = 2000;
  std::size_t paraphrases = 8;
  double trap_fraction = 0.15;

  // Seeding: families are added, up to `max_seeded` topics, while every
  // shard of a direct workload stays under `seed_fill` of its capacity
  // share.
  double seed_fill = 0.5;
  std::size_t max_seeded = 0;  // 0 = no cap
  // RESTORE one engine snapshot (SEs carry retrieval cost and latency, so
  // LCFU ranks them above wire inserts) instead of INSERTs.
  bool seed_via_restore = true;
  // Share of seeded families that keep one trap sibling out of the cache
  // for readers to ask about (near-miss lookups).
  double holdout_share = 0.0;

  // Readers: Zipf over seeded topics (rank order shuffled by the seed),
  // plus near-miss and unseeded lookups.
  double reader_rate = 1000.0;  // req/s per reader at the fixed point
  double reader_zipf = 0.99;
  double near_miss_share = 0.0;
  double unseeded_share = 0.0;

  WriterMode writer = WriterMode::kInsertOnly;
  double writer_rate = 100.0;     // arrivals/s at the fixed point
  double writer_hot_share = 0.0;  // tenant lookups on seeded topics
  int tenants = 0;

  double offered_rate() const { return kReaders * reader_rate + writer_rate; }
};

// The workloads this benchmark defines; nullptr for an unknown name.
const WorkloadSpec* FindWorkload(std::string_view name);
std::vector<std::string> WorkloadNames();

struct World {
  WorkloadSpec spec;
  cortex::WorkloadBundle bundle;
  cortex::HashedEmbedder embedder;  // IDF-fitted exactly as cortexd fits it
  std::unique_ptr<cortex::JudgerModel> judger;
  double node_capacity_tokens = 0.0;  // what cortexd derives from the trace

  // Resident before the window, in reader popularity order (Zipf rank 0
  // first).
  std::vector<std::uint64_t> seeded;
  std::vector<std::uint64_t> near_miss;  // trap siblings held out
  std::vector<std::uint64_t> unseeded;   // reader lookups that must miss
  std::vector<std::uint64_t> writer_pool;

  const cortex::Topic& topic(std::uint64_t id) const {
    return bundle.universe->topic(id);
  }
  // The SE seeded for a topic: keyed by its first paraphrase.
  cortex::SemanticElement SeedElement(std::uint64_t id) const;
};

std::unique_ptr<World> BuildWorld(const WorkloadSpec& spec,
                                  std::uint64_t seed);

enum class OpKind { kLookup, kInsert };

struct Op {
  OpKind kind = OpKind::kLookup;
  std::uint64_t topic = 0;
  const std::string* text = nullptr;  // LOOKUP query / INSERT key
  std::string_view tenant;            // empty = shared pool
  bool insert_on_miss = false;
};

// One connection's endless, seed-determined request stream.
class Stream {
 public:
  Stream(const World& world, bool writer, int conn, std::uint64_t seed);
  Op Next();

 private:
  const World& world_;
  const bool writer_;
  cortex::Rng rng_;
  cortex::ZipfSampler hot_;
  std::size_t cursor_ = 0;  // next writer_pool topic
  std::vector<std::string> tenant_ids_;
};

}  // namespace servebench
