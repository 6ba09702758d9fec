#include "world.h"

#include <algorithm>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "core/sharded_cache.h"
#include "llm/tags.h"
#include "util/tokenizer.h"
#include "workload/oracle.h"

namespace servebench {
namespace {

// cortexd's default --cache-ratio, which the benchmark never overrides.
constexpr double kDefaultCacheRatio = 0.4;

std::vector<WorkloadSpec> MakeSpecs() {
  std::vector<WorkloadSpec> specs;
  {
    // Small hot set through the router: wire, protocol, router hop,
    // embedding, judger and tenant admission dominate; nothing evicts.
    WorkloadSpec s;
    s.name = "hot-routed";
    s.routed = true;
    s.nodes = 2;
    s.topics = 10000;
    s.paraphrases = 8;
    s.trap_fraction = 0.3;
    s.max_seeded = 600;
    s.seed_via_restore = false;
    s.reader_rate = 1500.0;
    s.reader_zipf = 0.99;
    s.writer = WriterMode::kTenantLookupInsert;
    s.writer_rate = 250.0;
    s.writer_hot_share = 0.5;
    s.tenants = 4;
    specs.push_back(s);
  }
  {
    // Thousands of rows per shard, read-mostly, with near-miss trap
    // siblings: snapshot scan, kernel, rerank and judger dominate.
    WorkloadSpec s;
    s.name = "large-scan";
    s.topics = 24000;
    s.paraphrases = 4;
    s.trap_fraction = 0.65;
    s.seed_fill = 0.85;
    s.holdout_share = 0.5;
    s.reader_rate = 700.0;
    s.reader_zipf = 0.5;
    s.near_miss_share = 0.15;
    s.unseeded_share = 0.10;
    s.writer = WriterMode::kLookupInsert;
    s.writer_rate = 60.0;
    specs.push_back(s);
  }
  {
    // The cache at capacity: one writer inserts new SEs (LCFU eviction and
    // a snapshot republish per insert) beside the readers.
    WorkloadSpec s;
    s.name = "write-churn";
    s.topics = 8000;
    s.paraphrases = 8;
    s.trap_fraction = 0.15;
    s.seed_fill = 0.9;
    s.reader_rate = 1000.0;
    s.reader_zipf = 0.99;
    s.writer = WriterMode::kInsertOnly;
    s.writer_rate = 200.0;
    specs.push_back(s);
  }
  return specs;
}

const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = MakeSpecs();
  return specs;
}

// The generator draws (entity, aspect, qualifier) from a finite
// vocabulary and, once it runs short, may repeat a triple; two topics
// with identical query strings would make the oracle ambiguous.  Keep the
// first topic of each triple and renumber densely.
std::shared_ptr<cortex::TopicUniverse> DistinctUniverse(
    const cortex::TopicUniverseOptions& options) {
  const cortex::TopicUniverse raw(options);
  std::unordered_set<std::string> seen;
  std::unordered_map<std::uint64_t, std::uint64_t> new_id;
  std::vector<cortex::Topic> kept;
  for (const cortex::Topic& t : raw.topics()) {
    if (!seen.insert(t.entity + '\x1f' + t.aspect + '\x1f' + t.qualifier)
             .second) {
      continue;
    }
    new_id[t.id] = kept.size();
    kept.push_back(t);
  }
  for (cortex::Topic& t : kept) {
    t.id = new_id.at(t.id);
    if (t.trap_of) {
      const auto it = new_id.find(*t.trap_of);
      if (it == new_id.end()) {
        t.trap_of.reset();
      } else {
        t.trap_of = it->second;
      }
    }
    const auto next = new_id.find(t.next_topic);
    t.next_topic = next == new_id.end() ? 0 : next->second;
  }
  return std::make_shared<cortex::TopicUniverse>(std::move(kept));
}

}  // namespace

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& s : Specs()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& s : Specs()) names.push_back(s.name);
  return names;
}

cortex::SemanticElement World::SeedElement(std::uint64_t id) const {
  const cortex::Topic& t = topic(id);
  cortex::SemanticElement se;
  se.key = t.paraphrases.front();
  se.value = t.answer;
  se.staticity = t.staticity;
  // A few confirmed uses and the remote call's cost profile (Table 1's
  // $5/1k calls, 300-500 ms), so LCFU ranks seeded knowledge above a
  // fresh wire insert, whose cost and latency are unknown (zero).
  se.frequency = 3;
  se.retrieval_latency_sec = 0.4 * t.fetch_latency_scale;
  se.retrieval_cost_dollars = 0.005 * t.fetch_cost_scale;
  return se;
}

std::unique_ptr<World> BuildWorld(const WorkloadSpec& spec,
                                  std::uint64_t seed) {
  auto world = std::make_unique<World>();
  world->spec = spec;

  cortex::TopicUniverseOptions uopts;
  uopts.num_topics = spec.topics;
  uopts.paraphrases_per_topic = spec.paraphrases;
  uopts.trap_fraction = spec.trap_fraction;
  uopts.seed = seed * 1000003ULL + 17;
  cortex::WorkloadBundle& bundle = world->bundle;
  bundle.name = spec.name;
  bundle.universe = DistinctUniverse(uopts);
  bundle.oracle =
      std::make_shared<cortex::GroundTruthOracle>(bundle.universe.get());
  cortex::RegisterAllParaphrases(*bundle.oracle, *bundle.universe);

  // The same model stack cortexd builds from the trace (serving_world.cc).
  world->embedder.FitIdf(bundle.AllQueries());
  world->judger = std::make_unique<cortex::JudgerModel>(bundle.oracle.get());
  world->node_capacity_tokens =
      kDefaultCacheRatio * bundle.TotalKnowledgeTokens();

  // Families: a topic plus every trap sibling that descends from it.
  const auto& topics = bundle.universe->topics();
  std::vector<std::uint64_t> root(topics.size());
  for (const cortex::Topic& t : topics) {
    root[t.id] = t.trap_of ? root[*t.trap_of] : t.id;
  }
  std::map<std::uint64_t, std::vector<std::uint64_t>> by_root;
  for (const cortex::Topic& t : topics) by_root[root[t.id]].push_back(t.id);
  std::vector<std::vector<std::uint64_t>> families;
  for (auto& [r, members] : by_root) families.push_back(std::move(members));
  cortex::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 5);
  rng.Shuffle(families);

  // Seed whole families while each shard stays under its fill target.
  const cortex::Tokenizer tokenizer;
  const double shard_budget =
      spec.seed_fill * world->node_capacity_tokens / kCortexdShards;
  std::vector<double> shard_used(kCortexdShards, 0.0);
  std::vector<std::vector<std::uint64_t>> rest;
  for (auto& family : families) {
    const bool room =
        spec.max_seeded == 0 || world->seeded.size() + family.size() <=
                                    spec.max_seeded;
    bool fits = room;
    std::vector<double> add(kCortexdShards, 0.0);
    if (fits && !spec.routed) {
      for (const std::uint64_t id : family) {
        const cortex::Topic& t = topics[id];
        add[cortex::RouteToShard(world->embedder, tokenizer,
                                 t.paraphrases.front(), kCortexdShards)] +=
            static_cast<double>(cortex::ApproxTokenCount(t.answer));
      }
      for (std::size_t s = 0; s < kCortexdShards; ++s) {
        if (shard_used[s] + add[s] > shard_budget) fits = false;
      }
    }
    if (!fits) {
      rest.push_back(std::move(family));
      continue;
    }
    for (std::size_t s = 0; s < kCortexdShards; ++s) shard_used[s] += add[s];
    std::size_t held = family.size();
    if (family.size() >= 2 && rng.Bernoulli(spec.holdout_share)) {
      held = 1 + rng.NextBelow(family.size() - 1);  // never the root
      world->near_miss.push_back(family[held]);
    }
    for (std::size_t i = 0; i < family.size(); ++i) {
      if (i != held) world->seeded.push_back(family[i]);
    }
  }
  rng.Shuffle(world->seeded);  // popularity rank order

  // The remaining families: reader misses first (when the workload has
  // any), the writer's pool after.
  const std::size_t unseeded_target =
      spec.unseeded_share > 0.0 ? rest.size() / 3 : 0;
  for (std::size_t i = 0; i < rest.size(); ++i) {
    auto& into = i < unseeded_target ? world->unseeded : world->writer_pool;
    into.insert(into.end(), rest[i].begin(), rest[i].end());
  }
  return world;
}

Stream::Stream(const World& world, bool writer, int conn, std::uint64_t seed)
    : world_(world),
      writer_(writer),
      rng_(seed * 0x9e3779b97f4a7c15ULL + 2 * static_cast<std::uint64_t>(conn) +
           (writer ? 1 : 0)),
      hot_(std::max<std::size_t>(world.seeded.size(), 1),
           world.spec.reader_zipf) {
  for (int i = 0; i < world.spec.tenants; ++i) {
    tenant_ids_.push_back("t" + std::to_string(i));
  }
}

Op Stream::Next() {
  const WorkloadSpec& spec = world_.spec;
  Op op;
  const auto phrase = [&](std::uint64_t id) {
    const auto& p = world_.topic(id).paraphrases;
    return &p[rng_.NextBelow(p.size())];
  };
  const auto next_pool_topic = [&] {
    const auto& pool = world_.writer_pool;
    return pool[cursor_++ % pool.size()];
  };
  if (!writer_) {
    const double r = rng_.NextDouble();
    if (r < spec.near_miss_share && !world_.near_miss.empty()) {
      op.topic = world_.near_miss[rng_.NextBelow(world_.near_miss.size())];
    } else if (r < spec.near_miss_share + spec.unseeded_share &&
               !world_.unseeded.empty()) {
      op.topic = world_.unseeded[rng_.NextBelow(world_.unseeded.size())];
    } else {
      op.topic = world_.seeded[hot_.Sample(rng_)];
    }
    op.text = phrase(op.topic);
    return op;
  }
  switch (spec.writer) {
    case WriterMode::kTenantLookupInsert:
      op.tenant = tenant_ids_[rng_.NextBelow(tenant_ids_.size())];
      op.topic = rng_.Bernoulli(spec.writer_hot_share)
                     ? world_.seeded[hot_.Sample(rng_)]
                     : next_pool_topic();
      op.text = phrase(op.topic);
      op.insert_on_miss = true;
      break;
    case WriterMode::kLookupInsert:
      op.topic = next_pool_topic();
      op.text = phrase(op.topic);
      op.insert_on_miss = true;
      break;
    case WriterMode::kInsertOnly:
      op.kind = OpKind::kInsert;
      op.topic = next_pool_topic();
      op.text = &world_.topic(op.topic).paraphrases.front();
      break;
  }
  return op;
}

}  // namespace servebench
