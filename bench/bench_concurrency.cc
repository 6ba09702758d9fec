// Figure 10: end-to-end throughput under varying offered request rate on
// the Musique dataset at cache ratio 0.4.  Baselines plateau at the remote
// service's effective capacity; Cortex scales until the GPU saturates.
//
// Three modes:
//   * default — the paper's experiment: offered load simulated on the
//     virtual clock (single-threaded, deterministic);
//   * --real-threads — real parallel speedup: N OS threads replay the
//     workload through the serving layer's ConcurrentShardedEngine
//     (per-shard shared_mutex) and we measure wall-clock throughput, the
//     scaling story behind cortexd's worker pool;
//   * --probe-scaling — the DESIGN.md §13 read path in isolation: N
//     threads hammer read-only Peek() (the lock-free snapshot probe)
//     against a pre-populated engine at 1..16 threads.  Nothing commits,
//     so the curve shows how the probe alone scales.
//   * --writer-curve — the DESIGN.md §13.3 write path against resident
//     size: one shard on the epoch path is RESTOREd to 1k / 4k / 16k
//     rows, then timed single-SE inserts each publish a snapshot.  Two
//     legs: below capacity (no eviction), and at capacity, where every
//     wire-shaped insert (zero cost and latency) evicts (DESIGN.md
//     §12.2).  Reports insert latency per size (wall clock), plus rows
//     copied per single-SE publish, snapshot publishes per RESTORE and
//     evictions per insert (deterministic work counts).
//   * --pipeline — the DESIGN.md §14 batching pipeline vs unbatched
//     lookups: N concurrent clients drive the same pre-populated engine
//     either directly (each lookup embeds + scans alone) or through
//     serve/BatchPipeline (cross-request batches share one embed pass
//     and one multi-query slab scan per shard).  Reports throughput and
//     client-observed p99 for both legs.
// Flags:
//   --json   also write BENCH_concurrency.json (the deterministic
//            virtual-clock table in default mode; thread-scaling rows in
//            --real-threads mode), BENCH_concurrency_probe.json
//            (--probe-scaling), BENCH_concurrency_pipeline.json
//            (--pipeline), or BENCH_writer.json (--writer-curve) for the
//            CI bench-diff flywheel
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "llm/tags.h"
#include "serve/batch_pipeline.h"
#include "serve/concurrent_engine.h"
#include "util/flags.h"
#include "util/stats.h"
#include "util/table.h"

using namespace cortex;
using namespace cortex::bench;

namespace {

double RunRealThreads(const WorkloadBundle& bundle,
                      const HashedEmbedder& embedder,
                      const JudgerModel& judger, std::size_t num_shards,
                      std::size_t num_threads, double* hit_rate) {
  serve::ConcurrentEngineOptions opts;
  opts.num_shards = num_shards;
  opts.cache.capacity_tokens = 0.4 * bundle.TotalKnowledgeTokens();
  opts.housekeeping_interval_sec = 0.0;  // measure the lookup path only
  serve::ConcurrentShardedEngine engine(&embedder, &judger, opts);

  std::vector<const std::string*> queries;
  for (const auto& task : bundle.tasks) {
    for (const auto& step : task.steps) queries.push_back(&step.query);
  }

  const auto& oracle = *bundle.oracle;
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  for (std::size_t tid = 0; tid < num_threads; ++tid) {
    pool.emplace_back([&, tid] {
      for (std::size_t i = tid; i < queries.size(); i += num_threads) {
        const std::string& query = *queries[i];
        if (engine.Lookup(query)) continue;
        InsertRequest req;
        req.key = query;
        req.value = oracle.ExpectedInfo(query);
        if (req.value.empty()) continue;
        req.staticity = oracle.Staticity(query);
        req.initial_frequency = 1;
        engine.Insert(std::move(req));
      }
    });
  }
  for (auto& t : pool) t.join();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const auto stats = engine.Stats();
  *hit_rate = stats.lookups ? static_cast<double>(stats.hits) /
                                  static_cast<double>(stats.lookups)
                            : 0.0;
  return wall > 0.0 ? static_cast<double>(queries.size()) / wall : 0.0;
}

int RealThreadsMain(const Flags& flags) {
  const bool csv = flags.GetBool("csv", false);
  const auto tasks = static_cast<std::size_t>(flags.GetInt("tasks", 1000));
  const auto shards = static_cast<std::size_t>(flags.GetInt("shards", 4));

  auto profile = SearchDatasetProfile::Musique();
  profile.num_tasks = tasks;
  const WorkloadBundle bundle = BuildSkewedSearchWorkload(profile);

  HashedEmbedder embedder;
  const auto corpus = bundle.AllQueries();
  embedder.FitIdf(corpus);
  JudgerModel judger(bundle.oracle.get());

  std::cout << "=== Figure 10 (--real-threads): wall-clock throughput"
               " through ConcurrentShardedEngine (Musique, cache ratio 0.4, "
            << shards << " shards) ===\n\n";

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::size_t> thread_counts{1, 2, 4, 8};
  thread_counts.erase(
      std::remove_if(thread_counts.begin(), thread_counts.end(),
                     [hw](std::size_t t) { return t > 2 * hw; }),
      thread_counts.end());

  TextTable table(
      {"client threads", "throughput (req/s)", "speedup", "hit rate"});
  struct Row {
    std::size_t threads;
    double throughput, speedup, hit_rate;
  };
  std::vector<Row> rows;
  double base = 0.0;
  for (const std::size_t t : thread_counts) {
    double hit_rate = 0.0;
    const double tput =
        RunRealThreads(bundle, embedder, judger, shards, t, &hit_rate);
    if (base == 0.0) base = tput;
    rows.push_back({t, tput, base > 0 ? tput / base : 0.0, hit_rate});
    table.AddRow({std::to_string(t), TextTable::Num(tput),
                  TextTable::Num(base > 0 ? tput / base : 0.0, 2) + "x",
                  TextTable::Percent(hit_rate)});
  }
  table.Print(std::cout, csv);
  if (flags.GetBool("json", false)) {
    std::ofstream out("BENCH_concurrency.json");
    out << "{\n  \"benchmark\": \"concurrency_real_threads\",\n  \"shards\": "
        << shards << ",\n  \"tasks\": " << tasks << ",\n  \"results\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      out << "    {\"threads\": " << rows[i].threads
          << ", \"throughput_rps\": " << rows[i].throughput
          << ", \"speedup\": " << rows[i].speedup
          << ", \"hit_rate\": " << rows[i].hit_rate << "}"
          << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::cout << "wrote BENCH_concurrency.json\n";
  }
  std::cout << "\nexpected shape: near-linear scaling while threads <="
               " shards (probes read lock-free snapshots), then"
               " commit/insert serialisation flattens the curve.\n";
  return 0;
}

// One thread-count cell: every thread strides the query list doing
// read-only Peeks for a fixed per-thread count; returns aggregate
// lookups/sec.  Peek mutates nothing, so one pre-seeded engine serves
// every thread count (seeding republishes the shard snapshot per
// insert — rebuilding engines per cell would swamp the run).
double RunProbeScaling(serve::ConcurrentShardedEngine& engine,
                       const std::vector<const std::string*>& queries,
                       std::size_t num_threads, std::size_t per_thread) {
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  for (std::size_t tid = 0; tid < num_threads; ++tid) {
    pool.emplace_back([&, tid] {
      for (std::size_t i = 0; i < per_thread; ++i) {
        engine.Peek(*queries[(tid + i) % queries.size()]);
      }
    });
  }
  for (auto& t : pool) t.join();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const auto total = static_cast<double>(num_threads * per_thread);
  return wall > 0.0 ? total / wall : 0.0;
}

int ProbeScalingMain(const Flags& flags) {
  const bool csv = flags.GetBool("csv", false);
  const auto tasks = static_cast<std::size_t>(flags.GetInt("tasks", 200));
  const auto shards = static_cast<std::size_t>(flags.GetInt("shards", 4));
  const auto per_thread =
      static_cast<std::size_t>(flags.GetInt("lookups-per-thread", 2000));
  // Widen the topic universe (default 4000 vs Musique's 250) so the probe
  // is scan-bound: with ~a thousand resident rows per shard the quantized
  // snapshot scan dominates.
  const auto topics =
      static_cast<std::size_t>(flags.GetInt("topics", 4000));

  auto profile = SearchDatasetProfile::Musique();
  profile.num_tasks = tasks;
  profile.universe.num_topics = topics;
  const WorkloadBundle bundle = BuildSkewedSearchWorkload(profile);

  HashedEmbedder embedder;
  embedder.FitIdf(bundle.AllQueries());
  JudgerModel judger(bundle.oracle.get());

  std::vector<const std::string*> queries;
  for (const auto& task : bundle.tasks) {
    for (const auto& step : task.steps) queries.push_back(&step.query);
  }

  // Seeded with the whole topic universe and warmed so every cell probes
  // the same steady state.
  serve::ConcurrentEngineOptions opts;
  opts.num_shards = shards;
  opts.cache.capacity_tokens = bundle.TotalKnowledgeTokens();
  opts.housekeeping_interval_sec = 0.0;
  serve::ConcurrentShardedEngine engine(&embedder, &judger, opts);
  for (const auto& topic : bundle.universe->topics()) {
    InsertRequest req;
    req.key = topic.paraphrases.front();
    req.value = topic.answer;
    req.staticity = topic.staticity;
    req.initial_frequency = 1;
    engine.Insert(std::move(req));
  }
  for (const std::string* q : queries) engine.Peek(*q);

  std::cout << "=== probe scaling (read-only Peek, lock-free epoch snapshot, "
            << shards << " shards, " << topics << " resident topics, "
            << per_thread << " lookups/thread) ===\n\n";

  struct Row {
    std::size_t threads;
    double epoch_tput;
  };
  std::vector<Row> rows;
  TextTable table({"threads", "epoch (req/s)"});
  for (const std::size_t t :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8},
        std::size_t{16}}) {
    const double epoch = RunProbeScaling(engine, queries, t, per_thread);
    rows.push_back({t, epoch});
    table.AddRow({std::to_string(t), TextTable::Num(epoch)});
  }
  table.Print(std::cout, csv);
  if (flags.GetBool("json", false)) {
    std::ofstream out("BENCH_concurrency_probe.json");
    out << "{\n  \"benchmark\": \"concurrency_probe_scaling\",\n"
           "  \"shards\": "
        << shards << ",\n  \"tasks\": " << tasks
        << ",\n  \"lookups_per_thread\": " << per_thread
        << ",\n  \"results\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      out << "    {\"threads\": " << rows[i].threads
          << ", \"epoch_throughput_rps\": " << rows[i].epoch_tput << "}"
          << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::cout << "wrote BENCH_concurrency_probe.json\n";
  }
  std::cout << "\nexpected shape: throughput grows with threads up to the"
               " host's core count (no probe takes a shard lock), then"
               " flattens.\n";
  return 0;
}

// One (mode, clients) cell of the --pipeline leg: `clients` threads each
// run `per_thread` lookups against a pre-populated engine, either direct
// (sequential: every lookup embeds and scans alone) or through a
// BatchPipeline (cross-request batches).  The engine is shared across
// cells (seeding republishes the snapshot per insert, so rebuilding it
// per cell would dominate the run) and warmed before the first cell, so
// every cell measures the same steady state.  Returns aggregate
// lookups/sec and fills the client-observed latency histogram.
double RunPipelineCell(serve::ConcurrentShardedEngine& engine,
                       const std::vector<const std::string*>& queries,
                       bool batched, std::size_t clients,
                       std::size_t per_thread, std::size_t max_batch,
                       std::uint64_t window_us, std::size_t pipe_threads,
                       Histogram* latency) {
  serve::BatchPipelineOptions popts;
  popts.max_batch = batched ? max_batch : 1;  // 1 = direct engine calls
  popts.batch_window_us = window_us;
  popts.num_threads = pipe_threads;
  serve::BatchPipeline pipeline(&engine, popts);

  struct Baseline {
    std::uint64_t count;
    double sum;
  };
  std::map<std::string, Baseline> before;
  if (getenv("CORTEX_BENCH_DEBUG")) {
    for (const auto& e : engine.registry()->Snapshot().entries) {
      if (e.kind == telemetry::TelemetrySnapshot::Kind::kHistogram)
        before[e.name] = {e.histogram.count,
                          e.histogram.mean() * e.histogram.count};
    }
  }

  std::mutex merge_mu;
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  for (std::size_t tid = 0; tid < clients; ++tid) {
    pool.emplace_back([&, tid] {
      Histogram local;
      for (std::size_t i = 0; i < per_thread; ++i) {
        const std::string& query = *queries[(tid * 37 + i) % queries.size()];
        const auto q0 = std::chrono::steady_clock::now();
        pipeline.Lookup(query);
        local.Add(std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - q0)
                      .count());
      }
      std::lock_guard<std::mutex> lk(merge_mu);
      latency->Merge(local);
    });
  }
  for (auto& t : pool) t.join();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  pipeline.Drain();
  if (getenv("CORTEX_BENCH_DEBUG")) {
    for (const auto& e : engine.registry()->Snapshot().entries) {
      if (e.kind != telemetry::TelemetrySnapshot::Kind::kHistogram) continue;
      const Baseline base = before.count(e.name) ? before[e.name]
                                                 : Baseline{0, 0.0};
      const std::uint64_t dc = e.histogram.count - base.count;
      if (dc == 0) continue;
      const double dsum =
          e.histogram.mean() * e.histogram.count - base.sum;
      std::fprintf(stderr, "[%s clients=%zu] %s count=%llu mean=%.1fus\n",
                   batched ? "bat" : "seq", clients, e.name.c_str(),
                   (unsigned long long)dc, dsum / dc * 1e6);
    }
  }
  const auto total = static_cast<double>(clients * per_thread);
  return wall > 0.0 ? total / wall : 0.0;
}

int PipelineMain(const Flags& flags) {
  const bool csv = flags.GetBool("csv", false);
  const auto tasks = static_cast<std::size_t>(flags.GetInt("tasks", 200));
  const auto shards = static_cast<std::size_t>(flags.GetInt("shards", 2));
  const auto per_thread =
      static_cast<std::size_t>(flags.GetInt("lookups-per-thread", 400));
  const auto max_batch =
      static_cast<std::size_t>(flags.GetInt("max-pipeline-batch", 8));
  const auto window_us =
      static_cast<std::uint64_t>(flags.GetInt("batch-window-us", 200));
  const auto pipe_threads =
      static_cast<std::size_t>(flags.GetInt("pipeline-threads", 2));
  // The batching win is on the scan tier, so this leg widens the topic
  // universe (default 12000 vs Musique's 250): several thousand resident
  // rows per shard push the slab past L2, making the scan the dominant,
  // memory-bound per-lookup cost — exactly the regime where the mq
  // kernels' read-the-slab-once-per-batch amortization pays.
  const auto topics =
      static_cast<std::size_t>(flags.GetInt("topics", 12000));

  auto profile = SearchDatasetProfile::Musique();
  profile.num_tasks = tasks;
  profile.universe.num_topics = topics;
  const WorkloadBundle bundle = BuildSkewedSearchWorkload(profile);

  HashedEmbedder embedder;
  embedder.FitIdf(bundle.AllQueries());
  JudgerModel judger(bundle.oracle.get());

  // One shared engine for every cell: seeding republishes the shard
  // snapshot on each insert, so rebuilding per cell would swamp the
  // measured phase (and leave each cell probing cold pages).
  serve::ConcurrentEngineOptions opts;
  opts.num_shards = shards;
  opts.cache.capacity_tokens = bundle.TotalKnowledgeTokens();  // no eviction
  opts.housekeeping_interval_sec = 0.0;
  // This leg scans fp32 rows: the f32 scan streams 4x the bytes of the
  // default i8 tier, which makes it memory-bound — the regime where the
  // mq kernels' read-the-slab-once-per-batch amortization pays.  The i8
  // tier attacks the same scan from the other side (fewer bytes per
  // query) and is compute-bound per query, so batching adds little there.
  opts.probe_scan_format = RowFormat::kF32;
  serve::ConcurrentShardedEngine engine(&embedder, &judger, opts);

  std::vector<const std::string*> queries;
  for (const auto& task : bundle.tasks) {
    for (const auto& step : task.steps) queries.push_back(&step.query);
  }
  // Seed the WHOLE topic universe (not just the task queries) so every
  // lookup scans the full resident set.
  for (const auto& topic : bundle.universe->topics()) {
    InsertRequest req;
    req.key = topic.paraphrases.front();
    req.value = topic.answer;
    req.staticity = topic.staticity;
    req.initial_frequency = 1;
    engine.Insert(std::move(req));
  }
  // Warm pass: fault in the slab, settle recalibration and frequency
  // state, so the first timed cell sees the same steady state as the
  // last.
  for (const std::string* q : queries) engine.Lookup(*q);

  std::cout << "=== pipeline batching (DESIGN.md §14): batched vs"
               " sequential lookups, "
            << shards << " shards, max_batch=" << max_batch << ", window="
            << window_us << "us, " << per_thread
            << " lookups/client ===\n\n";

  struct Row {
    std::size_t clients;
    double seq_tput, bat_tput, speedup, seq_p99_ms, bat_p99_ms;
  };
  std::vector<Row> rows;
  TextTable table({"clients", "sequential (req/s)", "batched (req/s)",
                   "speedup", "seq p99 (ms)", "batched p99 (ms)"});
  for (const std::size_t c :
       {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    Histogram seq_lat, bat_lat;
    const double seq =
        RunPipelineCell(engine, queries, /*batched=*/false, c, per_thread,
                        max_batch, window_us, pipe_threads, &seq_lat);
    const double bat =
        RunPipelineCell(engine, queries, /*batched=*/true, c, per_thread,
                        max_batch, window_us, pipe_threads, &bat_lat);
    const double speedup = seq > 0.0 ? bat / seq : 0.0;
    rows.push_back({c, seq, bat, speedup, seq_lat.p99() * 1e3,
                    bat_lat.p99() * 1e3});
    table.AddRow({std::to_string(c), TextTable::Num(seq),
                  TextTable::Num(bat), TextTable::Num(speedup, 2) + "x",
                  TextTable::Num(seq_lat.p99() * 1e3, 3),
                  TextTable::Num(bat_lat.p99() * 1e3, 3)});
  }
  table.Print(std::cout, csv);
  if (flags.GetBool("json", false)) {
    std::ofstream out("BENCH_concurrency_pipeline.json");
    out << "{\n  \"benchmark\": \"concurrency_pipeline\",\n  \"shards\": "
        << shards << ",\n  \"tasks\": " << tasks
        << ",\n  \"max_batch\": " << max_batch
        << ",\n  \"batch_window_us\": " << window_us
        << ",\n  \"results\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      out << "    {\"clients\": " << rows[i].clients
          << ", \"sequential_throughput_rps\": " << rows[i].seq_tput
          << ", \"batched_throughput_rps\": " << rows[i].bat_tput
          << ", \"batched_speedup\": " << rows[i].speedup
          << ", \"sequential_p99_latency_ms\": " << rows[i].seq_p99_ms
          << ", \"batched_p99_latency_ms\": " << rows[i].bat_p99_ms << "}"
          << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::cout << "wrote BENCH_concurrency_pipeline.json\n";
  }
  std::cout << "\nexpected shape: at few clients batches stay shallow and"
               " the two legs track each other; as clients grow the"
               " batched leg amortizes one embed pass and one slab scan"
               " per shard across the batch and pulls ahead, while its p99"
               " stays within ~2x of sequential (bounded by the flush"
               " window).\n";
  return 0;
}

}  // namespace

// One --writer-curve point: a fresh one-shard engine RESTOREd to
// `resident` synthetic SEs, then `inserts` timed single-SE inserts.
struct WriterPoint {
  std::size_t resident = 0;
  double restore_seconds = 0.0;
  double insert_p50_us = 0.0;
  double insert_mean_us = 0.0;
  std::uint64_t rows_copied_per_publish = 0;
  std::uint64_t publishes_per_restore = 0;
  double evictions_per_insert = 0.0;
};

// `at_capacity` sizes the shard to exactly the restored SEs, so every
// timed insert has to evict.
WriterPoint RunWriterPoint(const HashedEmbedder& embedder,
                           const JudgerModel& judger, std::size_t resident,
                           std::size_t inserts, bool at_capacity) {
  // Synthetic resident SEs: distinct keys/values (no dedup, no replace)
  // with seeded random unit embeddings, so seeding skips the embedder.
  // Like a RESTORE-seeded servebench SE, each carries a retrieval cost,
  // latency and use count, so its LCFU score is positive.
  Rng rng(0x57a7e + resident);
  const auto make = [&](std::size_t i) {
    SemanticElement se;
    se.key = "writer curve key " + std::to_string(i);
    se.value = "writer curve value " + std::to_string(i);
    se.frequency = 1 + rng.NextBelow(8);
    se.retrieval_cost_dollars = rng.Uniform(0.001, 0.01);
    se.retrieval_latency_sec = rng.Uniform(0.1, 1.0);
    se.embedding.resize(embedder.dimension());
    for (float& x : se.embedding) {
      x = static_cast<float>(rng.Uniform(-1.0, 1.0));
    }
    Normalize(se.embedding);
    return se;
  };

  std::vector<SemanticElement> seed;
  seed.reserve(resident);
  double seed_tokens = 0.0;
  for (std::size_t i = 0; i < resident; ++i) {
    seed.push_back(make(i));
    seed_tokens += static_cast<double>(ApproxTokenCount(seed.back().value));
  }

  serve::ConcurrentEngineOptions opts;
  opts.num_shards = 1;
  // Below capacity nothing is evicted: the insert times the publish only.
  opts.cache.capacity_tokens = at_capacity ? seed_tokens : 1e12;
  opts.housekeeping_interval_sec = 0.0;
  serve::ConcurrentShardedEngine engine(&embedder, &judger, opts);
  telemetry::Counter* publishes =
      engine.registry()->GetCounter("cortex_engine_snapshot_publishes");
  telemetry::Counter* rows_copied =
      engine.registry()->GetCounter("cortex_engine_snapshot_rows_copied");

  WriterPoint point;
  point.resident = resident;
  {
    std::stringstream blob;
    serve::WriteEngineSnapshot(blob, seed);
    const std::uint64_t p0 = publishes->Value();
    const auto t0 = std::chrono::steady_clock::now();
    engine.LoadSnapshot(blob);
    point.restore_seconds = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
    point.publishes_per_restore = publishes->Value() - p0;
  }

  const std::uint64_t evictions0 = engine.TotalCounters().evictions;
  std::vector<double> us;
  us.reserve(inserts);
  for (std::size_t k = 0; k < inserts; ++k) {
    // Key text only, as the INSERT verb sends it: the engine embeds the
    // key itself, so each point times a real serving-path insert.
    InsertRequest req;
    req.key = "writer curve insert " + std::to_string(k) + " into " +
              std::to_string(resident) + " resident rows";
    req.value = "writer curve value " + std::to_string(resident + k);
    const std::uint64_t c0 = rows_copied->Value();
    const auto t0 = std::chrono::steady_clock::now();
    engine.Insert(std::move(req));
    us.push_back(std::chrono::duration<double, std::micro>(
                     std::chrono::steady_clock::now() - t0)
                     .count());
    if (k == 0) point.rows_copied_per_publish = rows_copied->Value() - c0;
  }
  point.evictions_per_insert =
      static_cast<double>(engine.TotalCounters().evictions - evictions0) /
      static_cast<double>(inserts);
  double sum = 0.0;
  for (const double x : us) sum += x;
  point.insert_mean_us = sum / static_cast<double>(us.size());
  std::nth_element(us.begin(), us.begin() + us.size() / 2, us.end());
  point.insert_p50_us = us[us.size() / 2];
  return point;
}

int WriterCurveMain(const Flags& flags) {
  const bool csv = flags.GetBool("csv", false);
  const auto inserts = std::max<std::size_t>(
      1, static_cast<std::size_t>(flags.GetInt("inserts", 300)));
  // A small workload only fits the embedder's IDF weights and backs the
  // judger; the curve's SEs are synthetic.
  auto profile = SearchDatasetProfile::Musique();
  profile.num_tasks = 50;
  const WorkloadBundle bundle = BuildSkewedSearchWorkload(profile);
  HashedEmbedder embedder;
  embedder.FitIdf(bundle.AllQueries());
  JudgerModel judger(bundle.oracle.get());

  std::cout << "=== writer curve (one shard, epoch path, " << inserts
            << " timed single-SE inserts per point) ===\n";
  // One leg per capacity regime; each returns its points and its 16k/1k
  // insert p50 ratio.
  const auto run_leg = [&](bool at_capacity) {
    std::cout << "\n--- " << (at_capacity ? "at capacity (every insert evicts)"
                                           : "below capacity (no eviction)")
              << " ---\n";
    TextTable table({"resident rows", "restore (s)", "publishes/restore",
                     "insert p50 (us)", "insert mean (us)",
                     "rows copied/publish", "evictions/insert"});
    std::vector<WriterPoint> points;
    for (const std::size_t resident :
         {std::size_t{1000}, std::size_t{4000}, std::size_t{16000}}) {
      const WriterPoint p =
          RunWriterPoint(embedder, judger, resident, inserts, at_capacity);
      points.push_back(p);
      table.AddRow({std::to_string(p.resident),
                    TextTable::Num(p.restore_seconds, 4),
                    std::to_string(p.publishes_per_restore),
                    TextTable::Num(p.insert_p50_us, 1),
                    TextTable::Num(p.insert_mean_us, 1),
                    std::to_string(p.rows_copied_per_publish),
                    TextTable::Num(p.evictions_per_insert, 3)});
    }
    table.Print(std::cout, csv);
    const double ratio = points.front().insert_p50_us > 0.0
                             ? points.back().insert_p50_us /
                                   points.front().insert_p50_us
                             : 0.0;
    std::cout << "\ninsert p50 at 16k rows / at 1k rows: "
              << TextTable::Num(ratio, 2) << "x\n";
    return std::make_pair(points, ratio);
  };
  const auto [below, below_ratio] = run_leg(false);
  const auto [full, full_ratio] = run_leg(true);

  if (flags.GetBool("json", false)) {
    std::ofstream out("BENCH_writer.json");
    const auto write_points = [&out](const std::vector<WriterPoint>& points) {
      for (std::size_t i = 0; i < points.size(); ++i) {
        const WriterPoint& p = points[i];
        out << "    {\"resident_rows\": " << p.resident
            << ", \"restore_seconds\": " << p.restore_seconds
            << ", \"insert_p50_latency_us\": " << p.insert_p50_us
            << ", \"insert_mean_latency_us\": " << p.insert_mean_us
            << ", \"rows_copied_per_publish\": " << p.rows_copied_per_publish
            << ", \"publishes_per_restore\": " << p.publishes_per_restore
            << ", \"evictions_per_insert\": " << p.evictions_per_insert
            << "}" << (i + 1 < points.size() ? "," : "") << "\n";
      }
    };
    // Work counts are exact replays of the publish and eviction
    // algorithms; declaring them keeps bench_diff on the tight band
    // whatever their names.
    out << "{\n  \"benchmark\": \"concurrency_writer_curve\",\n"
           "  \"deterministic_keys\": [\"resident_rows\","
           " \"rows_copied_per_publish\", \"publishes_per_restore\","
           " \"evictions_per_insert\"],\n"
           "  \"shards\": 1,\n  \"inserts\": "
        << inserts << ",\n  \"results\": [\n";
    write_points(below);
    out << "  ],\n  \"insert_latency_ratio_16k_vs_1k\": " << below_ratio
        << ",\n  \"at_capacity\": [\n";
    write_points(full);
    out << "  ],\n  \"at_capacity_insert_latency_ratio_16k_vs_1k\": "
        << full_ratio << "\n}\n";
    std::cout << "wrote BENCH_writer.json\n";
  }
  std::cout << "\nexpected shape: insert latency nearly flat in resident"
               " size — a single-SE publish copies the previous arrays once"
               " (rows copied = resident rows) and patches one slot, and a"
               " RESTORE publishes once per shard.  At capacity each victim"
               " comes off a lazy (score, id) heap in O(log n), so that leg"
               " tracks the one below capacity.\n";
  return 0;
}

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  if (flags.GetBool("writer-curve", false)) {
    return WriterCurveMain(flags);
  }
  if (flags.GetBool("pipeline", false)) {
    return PipelineMain(flags);
  }
  if (flags.GetBool("probe-scaling", false)) {
    return ProbeScalingMain(flags);
  }
  if (flags.GetBool("real-threads", false)) {
    return RealThreadsMain(flags);
  }
  const bool csv = flags.GetBool("csv", false);
  const auto tasks = static_cast<std::size_t>(flags.GetInt("tasks", 1000));

  auto profile = SearchDatasetProfile::Musique();
  profile.num_tasks = tasks;
  const WorkloadBundle bundle = BuildSkewedSearchWorkload(profile);

  std::cout << "=== Figure 10: throughput vs request rate (Musique, cache"
               " ratio 0.4) ===\n\n";

  TextTable table({"request rate (req/s)", "system", "throughput (req/s)",
                   "hit rate", "p99 latency (s)"});
  struct Row {
    double rate;
    std::string system;
    double throughput, hit_rate, p99;
  };
  std::vector<Row> rows;
  for (const double rate : {0.5, 1.0, 2.0, 4.0, 8.0}) {
    for (const System system :
         {System::kVanilla, System::kExact, System::kCortex}) {
      ExperimentConfig config;
      config.system = system;
      config.cache_ratio = 0.4;
      config.driver = OpenLoop(rate);
      const auto r = RunExperiment(bundle, config);
      rows.push_back({rate, SystemName(system), r.metrics.Throughput(),
                      r.metrics.CacheHitRate(), r.metrics.P99Latency()});
      table.AddRow({TextTable::Num(rate, 1), SystemName(system),
                    TextTable::Num(r.metrics.Throughput()),
                    TextTable::Percent(r.metrics.CacheHitRate()),
                    TextTable::Num(r.metrics.P99Latency(), 1)});
    }
  }
  table.Print(std::cout, csv);
  // The virtual-clock table is fully deterministic; declaring its
  // metrics keeps scripts/bench_diff.py on the tight band even though
  // their names read like wall-clock keys.
  if (flags.GetBool("json", false)) {
    std::ofstream out("BENCH_concurrency.json");
    out << "{\n  \"benchmark\": \"concurrency_virtual_clock\",\n"
           "  \"deterministic_keys\": [\"throughput_rps\", \"hit_rate\","
           " \"p99_latency_s\"],\n  \"tasks\": "
        << tasks << ",\n  \"results\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      out << "    {\"rate\": " << rows[i].rate << ", \"system\": \""
          << rows[i].system << "\", \"throughput_rps\": "
          << rows[i].throughput << ", \"hit_rate\": " << rows[i].hit_rate
          << ", \"p99_latency_s\": " << rows[i].p99 << "}"
          << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::cout << "wrote BENCH_concurrency.json\n";
  }
  std::cout << "\npaper shape: Agent_vanilla/Agent_exact plateau around ~1"
               " req/s (rate-limit bound); Agent_Cortex scales nearly"
               " linearly to several req/s (paper: 4.89 vs 1.09/0.86 at"
               " rate 8 -> 4.5x/5.7x).\n";
  return 0;
}
