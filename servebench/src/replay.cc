#include "replay.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>

#include "cluster/hash_ring.h"
#include "core/sharded_cache.h"
#include "embedding/simd_kernels.h"
#include "embedding/vector_ops.h"
#include "embedding/vector_slab.h"
#include "serve/concurrent_engine.h"
#include "serve/protocol.h"
#include "tenant/registry.h"
#include "tenant/tenant.h"
#include "util/tokenizer.h"

namespace servebench {
namespace {

using cortex::serve::Request;
using cortex::serve::RequestType;
using cortex::serve::Response;
using cortex::serve::ResponseType;

constexpr std::size_t kEmbedBatch = 16;
constexpr std::size_t kTimedInserts = 200;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Keeps the optimizer from dropping a timed call whose result is unused.
template <typename T>
void Use(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

class Recorder {
 public:
  explicit Recorder(std::vector<Span>* out) : out_(out) {}

  std::uint64_t Begin(std::uint64_t parent, std::uint64_t request,
                      const char* name) {
    out_->push_back({++next_id_, parent, request, name, Now(), 0.0});
    return next_id_;
  }
  void End(std::uint64_t id) { (*out_)[id - 1].end = Now(); }

  // Times fn() as one span.
  template <typename Fn>
  void Time(std::uint64_t parent, std::uint64_t request, const char* name,
            Fn&& fn) {
    const auto id = Begin(parent, request, name);
    fn();
    End(id);
  }

 private:
  std::vector<Span>* out_;
  std::uint64_t next_id_ = 0;  // span ids are 1-based positions in out_
};

// One shard's scan tier as the snapshot holds it: int8 rows + scales.
struct ShardRows {
  cortex::VectorSlab slab;
  std::vector<const std::int8_t*> rows;
  std::vector<float> scales;
  std::vector<std::uint64_t> topics;
  std::vector<cortex::Vector> embeddings;  // fp32, for the judger's input

  explicit ShardRows(std::size_t dim) : slab(dim, cortex::RowFormat::kI8) {}
};

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

}  // namespace

ReplayResult Replay(const World& world, std::uint64_t seed,
                    std::size_t requests) {
  ReplayResult out;
  const WorkloadSpec& spec = world.spec;
  const cortex::Tokenizer tokenizer;
  const std::size_t dim = world.embedder.dimension();

  cortex::cluster::HashRing ring;
  for (int n = 0; n < spec.nodes; ++n) {
    cortex::cluster::NodeEndpoint ep;
    ep.unix_path = "n" + std::to_string(n) + ".sock";
    ring.AddNode("node" + std::to_string(n), ep);
  }
  const auto node_of = [&](std::string_view text) -> std::size_t {
    if (!spec.routed) return 0;
    const std::string owner = ring.PrimaryFor(
        cortex::PlacementAnchor(world.embedder, tokenizer, text));
    return static_cast<std::size_t>(std::stoul(owner.substr(4)));
  };

  // Every (node, shard) scan tier, filled with the seeded rows.
  std::map<std::pair<std::size_t, std::size_t>, std::unique_ptr<ShardRows>>
      shards;
  const auto shard_of = [&](std::string_view text) -> ShardRows& {
    const auto key = std::make_pair(
        node_of(text),
        cortex::RouteToShard(world.embedder, tokenizer, text, kCortexdShards));
    auto& slot = shards[key];
    if (!slot) slot = std::make_unique<ShardRows>(dim);
    return *slot;
  };
  for (const std::uint64_t id : world.seeded) {
    const std::string& key = world.topic(id).paraphrases.front();
    ShardRows& s = shard_of(key);
    s.embeddings.push_back(world.embedder.Embed(key));
    const auto row = s.slab.Add(s.embeddings.back());
    s.topics.push_back(id);
    s.scales.push_back(s.slab.RowScale(row));
  }
  for (auto& [key, s] : shards) {
    for (std::uint32_t row = 0; row < s->topics.size(); ++row) {
      s->rows.push_back(s->slab.RowI8(row));
    }
  }

  cortex::tenant::TenantRegistry tenants;
  const auto& kernels = cortex::simd::ActiveKernels();
  Recorder rec(&out.spans);

  // The request stream: reader 0 and the writer, in the proportion of
  // their rates.
  Stream reader(world, /*writer=*/false, 0, seed);
  Stream writer(world, /*writer=*/true, kReaders, seed);
  const double writer_share = spec.writer_rate / spec.offered_rate();
  std::vector<double> codec, owners, admit, embed, scan_per_row, judge;
  std::vector<std::string> queries;
  double writer_credit = 0.0;
  for (std::uint64_t rid = 1; rid <= requests; ++rid) {
    writer_credit += writer_share;
    const bool from_writer = writer_credit >= 1.0;
    if (from_writer) writer_credit -= 1.0;
    const Op op = from_writer ? writer.Next() : reader.Next();
    const std::string& text = *op.text;
    queries.push_back(text);

    const auto root = rec.Begin(0, rid, "request");
    Request request;
    if (op.kind == OpKind::kInsert) {
      request.type = RequestType::kInsert;
      request.key = text;
      request.value = world.topic(op.topic).answer;
    } else {
      request.type = op.tenant.empty() ? RequestType::kLookup
                                       : RequestType::kTenantLookup;
      request.query = text;
      request.tenant = std::string(op.tenant);
    }
    std::string payload;
    std::optional<Request> parsed;
    const auto t_codec0 = out.spans.size();
    rec.Time(root, rid, "protocol.encode_request",
             [&] { payload = cortex::serve::EncodePayload(request); });
    rec.Time(root, rid, "protocol.parse_request",
             [&] { parsed = cortex::serve::ParseRequest(payload); });
    Use(parsed);

    if (spec.routed) {
      const std::string placement =
          op.tenant.empty()
              ? cortex::PlacementAnchor(world.embedder, tokenizer, text)
              : cortex::tenant::PlacementKeyFor(op.tenant);
      std::vector<std::string> owner_names;
      rec.Time(root, rid, "ring.owners",
               [&] { owner_names = ring.OwnersFor(placement); });
      Use(owner_names);
      owners.push_back(out.spans.back().end - out.spans.back().start);
    }
    if (!op.tenant.empty()) {
      bool admitted = false;
      rec.Time(root, rid, "tenant.admit", [&] {
        admitted = tenants.AdmitRequest(std::string(op.tenant), Now());
      });
      Use(admitted);
      admit.push_back(out.spans.back().end - out.spans.back().start);
    }

    cortex::Vector q;
    rec.Time(root, rid, "embed.query", [&] { q = world.embedder.Embed(text); });
    embed.push_back(out.spans.back().end - out.spans.back().start);

    ShardRows& shard = shard_of(text);
    const std::size_t n = shard.rows.size();
    std::size_t best = 0;
    if (n > 0) {
      std::vector<std::int8_t> q8(dim);
      std::vector<float> scores(n);
      rec.Time(root, rid, "kernel.scan", [&] {
        const float qs = cortex::simd::QuantizeRowI8(q, q8.data());
        kernels.dot_rows_i8(q8.data(), qs, shard.rows.data(),
                            shard.scales.data(), n, dim, scores.data());
      });
      scan_per_row.push_back((out.spans.back().end - out.spans.back().start) /
                             static_cast<double>(n));
      for (std::size_t i = 1; i < n; ++i) {
        if (scores[i] > scores[best]) best = i;
      }
      const cortex::Topic& cand = world.topic(shard.topics[best]);
      cortex::JudgeRequest jr;
      jr.query = text;
      jr.cached_query = cand.paraphrases.front();
      jr.cached_result = cand.answer;
      jr.embedding_similarity = cortex::Dot(q, shard.embeddings[best]);
      double verdict = 0.0;
      rec.Time(root, rid, "judger.call",
               [&] { verdict = world.judger->Judge(jr); });
      Use(verdict);
      judge.push_back(out.spans.back().end - out.spans.back().start);
    }

    Response response;
    response.type = ResponseType::kHit;
    if (n > 0) {
      const cortex::Topic& cand = world.topic(shard.topics[best]);
      response.matched_key = cand.paraphrases.front();
      response.value = cand.answer;
    }
    std::string reply;
    std::optional<Response> parsed_reply;
    rec.Time(root, rid, "protocol.encode_response",
             [&] { reply = cortex::serve::EncodePayload(response); });
    rec.Time(root, rid, "protocol.parse_response",
             [&] { parsed_reply = cortex::serve::ParseResponse(reply); });
    Use(parsed_reply);
    rec.End(root);

    double codec_sec = 0.0;
    for (std::size_t i = t_codec0; i < out.spans.size(); ++i) {
      if (out.spans[i].name.rfind("protocol.", 0) == 0) {
        codec_sec += out.spans[i].end - out.spans[i].start;
      }
    }
    codec.push_back(codec_sec);
  }

  // Batched embedding, as the batching pipeline calls it.
  std::vector<double> batch_per_query;
  {
    std::vector<float> matrix(kEmbedBatch * dim);
    for (std::size_t b = 0; b + kEmbedBatch <= queries.size();
         b += kEmbedBatch) {
      std::vector<std::string_view> texts(queries.begin() + b,
                                          queries.begin() + b + kEmbedBatch);
      rec.Time(0, b + 1, "embed.batch", [&] {
        world.embedder.EmbedBatch(texts, matrix.data(), dim);
      });
      Use(matrix);
      batch_per_query.push_back(
          (out.spans.back().end - out.spans.back().start) / kEmbedBatch);
    }
  }

  // The write path: an engine with the workload's resident rows, then
  // timed inserts of the writer's topics.
  double insert_us_per_krow = 0.0;
  {
    cortex::serve::ConcurrentEngineOptions eopts;
    eopts.num_shards = kCortexdShards;
    eopts.cache.capacity_tokens = world.node_capacity_tokens;
    eopts.housekeeping_interval_sec = 0.0;
    cortex::serve::ConcurrentShardedEngine engine(&world.embedder,
                                                  world.judger.get(), eopts);
    for (const std::uint64_t id : world.seeded) {
      engine.RestoreElement(world.SeedElement(id));
    }
    Stream inserts(world, /*writer=*/true, kReaders, seed + 1);
    const auto insert_next = [&] {
      const Op op = inserts.Next();
      cortex::InsertRequest ins;
      ins.key = *op.text;
      ins.value = world.topic(op.topic).answer;
      ins.staticity = world.topic(op.topic).staticity;
      ins.initial_frequency = 1;
      return ins;
    };
    if (spec.writer == WriterMode::kInsertOnly) {
      // Bring the cache to capacity, as the warm-up does on the wire.
      const auto fill =
          static_cast<std::size_t>(spec.writer_rate * kWarmupSec);
      for (std::size_t i = 0; i < fill; ++i) engine.Insert(insert_next());
    }
    std::vector<double> insert_sec;
    for (std::size_t i = 0; i < kTimedInserts; ++i) {
      auto ins = insert_next();
      rec.Time(0, requests + 1 + i, "engine.insert",
               [&] { Use(engine.Insert(std::move(ins))); });
      insert_sec.push_back(out.spans.back().end - out.spans.back().start);
    }
    const double krows_per_shard =
        static_cast<double>(engine.TotalSize()) / kCortexdShards / 1000.0;
    insert_us_per_krow = Median(insert_sec) * 1e6 / krows_per_shard;
  }

  auto& m = out.metrics;
  m["protocol.codec_ns"] = Median(codec) * 1e9;
  m["ring.owners_ns"] = owners.empty() ? 0.0 : Median(owners) * 1e9;
  m["tenant.admit_ns"] = admit.empty() ? 0.0 : Median(admit) * 1e9;
  m["embed.query_us"] = Median(embed) * 1e6;
  m["embed.batch_query_us"] = Median(batch_per_query) * 1e6;
  m["kernel.scan_ns_per_row"] = Median(scan_per_row) * 1e9;
  m["judger.call_us"] = Median(judge) * 1e6;
  m["engine.insert_us_per_krow"] = insert_us_per_krow;
  return out;
}

}  // namespace servebench
