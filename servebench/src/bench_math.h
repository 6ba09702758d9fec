// The benchmark's own arithmetic, kept free of I/O so tests can pin it
// with fixed inputs: tail percentiles with a samples-beyond rule,
// open-loop lateness accounting, the max-rate search, and self time from
// nested spans.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace servebench {

// Nearest-rank percentile: the smallest sample with at least q*n samples
// at or below it.  q in (0, 1]; an empty input gives 0.
inline double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const auto index = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

// A tail percentile together with the evidence behind it.  A percentile is
// reportable only when at least `min_beyond` samples lie strictly above
// it; otherwise the tail is a handful of outliers, not a distribution.
struct TailStat {
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
  bool reportable = false;
};

inline TailStat TailPercentile(const std::vector<double>& samples, double q,
                               std::size_t min_beyond = 10) {
  TailStat t;
  t.samples = samples.size();
  t.value = Percentile(samples, q);
  t.beyond = static_cast<std::size_t>(
      std::count_if(samples.begin(), samples.end(),
                    [&](double s) { return s > t.value; }));
  t.reportable = t.samples > 0 && t.beyond >= min_beyond;
  return t;
}

// Edges of `parts` consecutive sub-windows holding equal numbers of the
// given scheduled times (the outer edges are open), so a connection that
// finishes its schedule early cannot leave the last sub-window short.
inline std::vector<double> EqualCountEdges(std::vector<double> due,
                                           std::size_t parts) {
  std::sort(due.begin(), due.end());
  std::vector<double> edges(parts + 1);
  edges.front() = -std::numeric_limits<double>::infinity();
  edges.back() = std::numeric_limits<double>::infinity();
  for (std::size_t k = 1; k < parts; ++k) {
    edges[k] = due[k * due.size() / parts];
  }
  return edges;
}

// A quantile taken in each sub-window (samples placed by scheduled time;
// a sample on an edge belongs to the later sub-window), reported as the
// median over sub-windows.  A burst of host noise then spoils one
// sub-window's figure instead of the run's.  `min_beyond` is the fewest
// samples any sub-window had strictly above its quantile: the evidence for
// a tail.
struct WindowedStat {
  double value = 0.0;
  std::size_t parts = 0;
  std::size_t min_samples = 0;
  std::size_t min_beyond = 0;
};

inline WindowedStat MedianOverWindows(const std::vector<double>& due,
                                      const std::vector<double>& values,
                                      const std::vector<double>& edges,
                                      double q) {
  WindowedStat w;
  if (edges.size() < 2) return w;
  w.parts = edges.size() - 1;
  std::vector<std::vector<double>> split(w.parts);
  for (std::size_t i = 0; i < due.size() && i < values.size(); ++i) {
    const auto k = std::upper_bound(edges.begin() + 1, edges.end() - 1,
                                    due[i]) -
                   (edges.begin() + 1);
    split[static_cast<std::size_t>(k)].push_back(values[i]);
  }
  std::vector<double> per_window;
  w.min_samples = values.size();
  w.min_beyond = values.size();
  for (const auto& part : split) {
    const TailStat t = TailPercentile(part, q);
    per_window.push_back(t.value);
    w.min_samples = std::min(w.min_samples, t.samples);
    w.min_beyond = std::min(w.min_beyond, t.beyond);
  }
  w.value = Percentile(per_window, 0.5);
  return w;
}

// One open-loop request: when the schedule said to send it, when the
// generator actually sent it, and when the response arrived.
struct OpenLoopSample {
  double scheduled = 0.0;
  double sent = 0.0;
  double done = 0.0;
};

// How late the generator ran (never negative: an early send is on time).
inline double Lateness(const OpenLoopSample& s) {
  return std::max(0.0, s.sent - s.scheduled);
}

// Latency as the user sees it: from the scheduled send, so a stall that
// delays later sends counts against every request it delays.
inline double LatencyFromSchedule(const OpenLoopSample& s) {
  return s.done - s.scheduled;
}

// The generator's backlog grows when the requests at the end of a run are
// later than those at its start by more than `tolerance` seconds.  Each
// end is the median lateness over a tenth of the samples (in schedule
// order), so a single stall does not count as growth.
inline bool BacklogGrows(const std::vector<OpenLoopSample>& in_order,
                         double tolerance) {
  if (in_order.size() < 10) return false;
  const std::size_t tenth = in_order.size() / 10;
  std::vector<double> head, tail;
  for (std::size_t i = 0; i < tenth; ++i) {
    head.push_back(Lateness(in_order[i]));
    tail.push_back(Lateness(in_order[in_order.size() - tenth + i]));
  }
  return Percentile(tail, 0.5) - Percentile(head, 0.5) > tolerance;
}

// Highest rate in [lo, hi] for which `passes` holds, by geometric
// bisection: `steps` halvings of the log-interval after checking both
// ends.  Returns 0 when even `lo` fails and `hi` when `hi` passes.  The
// answer's resolution is (hi/lo)^(1/2^steps), fine enough that repeated
// searches differ only by what the system itself does, not by which rung
// of a coarse ladder they land on.
inline double SearchMaxRate(double lo, double hi, int steps,
                            const std::function<bool(double)>& passes) {
  if (!passes(lo)) return 0.0;
  if (passes(hi)) return hi;
  for (int i = 0; i < steps; ++i) {
    const double mid = std::sqrt(lo * hi);
    if (passes(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// A timed interval recorded around one call into a layer.  `parent` is
// the id of the enclosing span (0 for a root); spans of one request share
// `request`.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  std::string name;
  double start = 0.0;
  double end = 0.0;
};

// Self time of every span (same order as `spans`): its duration minus the
// part of [start, end] covered by its direct children.  Overlapping
// children count once; a child reaching outside its parent is clipped.
inline std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> children;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != 0) children[spans[i].parent].push_back(i);
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    std::vector<std::pair<double, double>> kids;
    if (const auto it = children.find(p.id); it != children.end()) {
      for (const std::size_t c : it->second) {
        const double a = std::max(spans[c].start, p.start);
        const double b = std::min(spans[c].end, p.end);
        if (b > a) kids.emplace_back(a, b);
      }
    }
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double run_a = 0.0, run_b = 0.0;
    bool open = false;
    for (const auto& [a, b] : kids) {
      if (open && a <= run_b) {
        run_b = std::max(run_b, b);
        continue;
      }
      if (open) covered += run_b - run_a;
      run_a = a;
      run_b = b;
      open = true;
    }
    if (open) covered += run_b - run_a;
    self[i] = (p.end - p.start) - covered;
  }
  return self;
}

}  // namespace servebench
