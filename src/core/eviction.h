// Eviction policies (paper §4.3, Algorithm 2).
//
// LCFU — Least Cost-efficient and Frequently Used — scores each SE by the
// savings it buys per byte: log-damped frequency x retrieval cost x
// retrieval latency x staticity, normalised by size.  Expired items score
// zero.  LRU and LFU are provided as the Table-6 baselines.
#pragma once

#include <string>

#include "core/semantic_element.h"

namespace cortex {

class EvictionPolicy {
 public:
  virtual ~EvictionPolicy() = default;

  // Priority of retaining `se` at time `now`; the lowest-scoring item is
  // evicted first.  Zero means "evict immediately" (expired/empty).
  //
  // Contract: while `se` is resident and unexpired, its score never
  // falls.  A policy may read only fields that never decrease (frequency,
  // last_access) or never change while resident (size, cost, latency,
  // staticity), plus the expiry test; SemanticCache purges expired SEs
  // before every eviction.  The cache's lazy victim heaps keep the score
  // each SE had when pushed and rely on it never exceeding the current
  // one (DESIGN.md §12.2).
  virtual double Score(const SemanticElement& se, double now) const = 0;

  virtual std::string name() const = 0;
};

// Algorithm 2's CalScore, including the paper's normalisation notes: the
// +1 shifts keep each log factor positive (cost-per-request is < $1, so a
// bare log would go negative), and the product is divided by size so the
// cache keeps items that save the most time and money per byte.
class LcfuPolicy final : public EvictionPolicy {
 public:
  double Score(const SemanticElement& se, double now) const override;
  std::string name() const override { return "lcfu"; }
};

class LruPolicy final : public EvictionPolicy {
 public:
  double Score(const SemanticElement& se, double now) const override;
  std::string name() const override { return "lru"; }
};

class LfuPolicy final : public EvictionPolicy {
 public:
  double Score(const SemanticElement& se, double now) const override;
  std::string name() const override { return "lfu"; }
};

}  // namespace cortex
