#include "core/sine.h"

#include "util/check.h"

namespace cortex {

std::size_t JudgeCandidates(std::span<const JudgeCandidate> candidates,
                            std::string_view query, const SineOptions& options,
                            const JudgerModel* judger,
                            SineLookupResult& result) {
  if (!options.use_judger) {
    // Agent_ANN ablation: top similarity wins outright.
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const JudgeCandidate& c = candidates[i];
      if (c.similarity < options.ann_only_threshold) continue;
      result.match = SineCandidate{c.id, c.similarity, 0.0};
      return i;  // candidates are sorted best-first
    }
    return candidates.size();
  }

  CHECK(judger != nullptr) << "use_judger requires a judger model";
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const JudgeCandidate& c = candidates[i];
    JudgeRequest req;
    req.query = query;
    req.cached_query = c.key;
    req.cached_result = c.value;
    req.embedding_similarity = c.similarity;
    const double score = judger->Judge(req);
    ++result.judger_calls;
    result.judged.push_back({c.id, c.similarity, score});
    if (score >= options.tau_lsm) {
      result.match = SineCandidate{c.id, c.similarity, score};
      return i;
    }
  }
  return candidates.size();
}

Sine::Sine(const Embedder* embedder, std::unique_ptr<VectorIndex> index,
           const JudgerModel* judger, SineOptions options)
    : embedder_(embedder),
      index_(std::move(index)),
      judger_(judger),
      options_(options) {
  CHECK(embedder_ != nullptr);
  CHECK(!options_.use_judger || judger_ != nullptr)
      << "use_judger requires a judger model";
}

Vector Sine::EmbedQuery(std::string_view query) const {
  return embedder_->Embed(query);
}

SineLookupResult Sine::Lookup(std::string_view query,
                              const Vector& query_embedding,
                              const SeAccessor& get_se) const {
  CHECK(index_ != nullptr) << "Sine::Lookup needs a VectorIndex";
  SineLookupResult result;
  const auto candidates =
      index_->Search(query_embedding, options_.top_k, options_.tau_sim);
  result.ann_candidates = candidates.size();
  std::vector<JudgeCandidate> visible;
  visible.reserve(candidates.size());
  for (const auto& c : candidates) {
    if (const SemanticElement* se = get_se(c.id)) {
      visible.push_back({c.id, c.similarity, se->key, se->value});
    }
  }
  JudgeCandidates(visible, query, options_, judger_, result);
  return result;
}

void Sine::Insert(const SemanticElement& se) {
  if (index_ != nullptr) index_->Add(se.id, se.embedding);
}

void Sine::Remove(SeId id) {
  if (index_ != nullptr) index_->Remove(id);
}

}  // namespace cortex
