// Sine: the Semantic Retrieval Index (paper §4.2).
//
// Two-stage retrieval over Semantic Elements:
//   stage 1 — coarse filter: ANN search over key embeddings, keeping
//             candidates with cosine similarity >= tau_sim;
//   stage 2 — fine validation: the semantic judger scores whether each
//             candidate's cached result answers the new query; the best
//             candidate with score >= tau_lsm is the (single) match.
//
// Sine is deliberately *not* a cache: it stores no values and makes no
// retention decisions.  SemanticCache layers hit/eviction/prefetch
// semantics on top (§4.3).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "ann/vector_index.h"
#include "core/semantic_element.h"
#include "embedding/embedder.h"
#include "llm/judger_model.h"

namespace cortex {

struct SineOptions {
  // Stage-1 similarity floor.  The paper quotes 0.9 for Qwen3 embeddings;
  // the equivalent operating point for Cortex's hashed embedder is lower
  // (see docs/calibration in DESIGN.md) — the trade-off it controls is the
  // same: lower = more recall, more judger work.
  // Calibrated for the IDF-fitted HashedEmbedder: same-topic paraphrase
  // pairs centre at ~0.89 cosine (p10 ~0.79), near-miss trap pairs at
  // ~0.72 (max ~0.85), unrelated pairs at ~0.03.  0.55 keeps stage-1
  // recall of true paraphrases near-perfect while excluding unrelated
  // queries.
  double tau_sim = 0.55;
  // Stage-2 judger acceptance threshold (recalibrated online, §4.2).
  double tau_lsm = 0.6;
  // Candidates forwarded from stage 1 to the judger.
  std::size_t top_k = 6;
  // When true stage 2 is skipped and the top ANN candidate with
  // similarity >= ann_only_threshold is accepted (the Agent_ANN ablation).
  bool use_judger = true;
  // 0.70 sits below the trap-pair mean (~0.72): similarity alone accepts
  // many near-miss siblings while matching paraphrases well — the unfavourable
  // precision-recall trade-off of similarity-only caching (§2.4).
  double ann_only_threshold = 0.70;
};

struct SineCandidate {
  SeId id = 0;
  double similarity = 0.0;
  double judger_score = 0.0;  // 0 when the judger did not run
};

struct SineLookupResult {
  std::optional<SineCandidate> match;  // accepted semantic match, if any
  std::vector<SineCandidate> judged;   // all stage-2 candidates (telemetry)
  std::size_t ann_candidates = 0;      // stage-1 survivors
  std::size_t judger_calls = 0;
};

// One stage-1 survivor as stage 2 sees it: already filtered to what the
// caller may see.  key/value are borrowed for the duration of the call.
struct JudgeCandidate {
  SeId id = 0;
  double similarity = 0.0;
  std::string_view key;
  std::string_view value;
};

// Stage 2 of Sine (paper §4.2), the one policy every lookup path runs:
// over visible stage-1 candidates sorted best-first, the ann-only ablation
// accepts the first with similarity >= ann_only_threshold; otherwise the
// judger scores them in order and the first with score >= tau_lsm is the
// match.  Judging every survivor would multiply judger load (and with it
// the latency of every hit) for marginal precision gain, so the walk
// short-circuits.  Fills `result`'s match, judged and judger_calls (not
// ann_candidates) and returns the index of the accepted candidate, or
// candidates.size() when none was accepted.  `judger` may be null iff
// options.use_judger is false.  Pure: takes no locks.
std::size_t JudgeCandidates(std::span<const JudgeCandidate> candidates,
                            std::string_view query, const SineOptions& options,
                            const JudgerModel* judger,
                            SineLookupResult& result);

class Sine {
 public:
  using SeAccessor = std::function<const SemanticElement*(SeId)>;

  // embedder/judger are borrowed and must outlive the index.  `index` may
  // be null for a Sine whose stage 1 lives elsewhere (the serving tier
  // scans its published snapshot): Insert/Remove then do nothing and
  // Lookup must not be called.
  Sine(const Embedder* embedder, std::unique_ptr<VectorIndex> index,
       const JudgerModel* judger, SineOptions options = {});

  // Embeds the query (callers that already hold an embedding can pass it
  // to avoid recomputation).
  Vector EmbedQuery(std::string_view query) const;

  // Runs the two-stage retrieval.  `get_se` resolves candidate ids to SEs
  // (returning nullptr skips the candidate — e.g. not visible).  Requires
  // an index.
  SineLookupResult Lookup(std::string_view query,
                          const Vector& query_embedding,
                          const SeAccessor& get_se) const;

  void Insert(const SemanticElement& se);
  void Remove(SeId id);

  std::size_t dimension() const { return embedder_->dimension(); }
  std::size_t size() const { return index_->size(); }
  const VectorIndex& index() const noexcept { return *index_; }
  const SineOptions& options() const noexcept { return options_; }
  const JudgerModel* judger() const noexcept { return judger_; }

  // Online recalibration hook (Algorithm 1's UpdateSystem).
  void set_tau_lsm(double tau) noexcept { options_.tau_lsm = tau; }

 private:
  const Embedder* embedder_;
  std::unique_ptr<VectorIndex> index_;
  const JudgerModel* judger_;
  SineOptions options_;
};

}  // namespace cortex
