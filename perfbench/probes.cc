#include "probes.h"

#include <cmath>
#include <cstring>

#include "common/trace.h"
#include "core/classifier.h"
#include "core/disjunctive_distance.h"
#include "core/hierarchical.h"
#include "stats/weighted_stats.h"

namespace qcluster::perfbench {

namespace {

thread_local std::int64_t t_last_search_ns = 0;

/// Times one search into t_last_search_ns; the span opens first so its
/// interval encloses the timed one.
class SearchProbe {
 public:
  SearchProbe() : span_("bench.index_search"), begin_(Clock::now()) {}
  ~SearchProbe() { t_last_search_ns = ElapsedNs(begin_, Clock::now()); }
  SearchProbe(const SearchProbe&) = delete;
  SearchProbe& operator=(const SearchProbe&) = delete;

 private:
  trace::ScopedSpan span_;
  Clock::time_point begin_;
};

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace

std::vector<index::Neighbor> TimedIndex::Search(
    const index::DistanceFunction& dist, int k,
    index::SearchStats* stats) const {
  SearchProbe probe;
  return inner_->Search(dist, k, stats);
}

std::vector<index::Neighbor> TimedIndex::SearchWarm(
    const index::DistanceFunction& dist, int k, index::WarmStart& warm,
    index::SearchStats* stats) const {
  SearchProbe probe;
  return inner_->SearchWarm(dist, k, warm, stats);
}

std::int64_t TimedIndex::last_search_ns() { return t_last_search_ns; }

std::uint64_t HashRanking(const std::vector<index::Neighbor>& ranking) {
  std::uint64_t h = 14695981039346656037ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xffu;
      h *= 1099511628211ULL;
    }
  };
  for (const index::Neighbor& n : ranking) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &n.distance, sizeof(bits));
    mix(static_cast<std::uint64_t>(n.id));
    mix(bits);
  }
  return h;
}

bool ValidRanking(const std::vector<index::Neighbor>& ranking, int k, int n) {
  if (static_cast<int>(ranking.size()) != std::min(k, n)) return false;
  for (std::size_t i = 0; i < ranking.size(); ++i) {
    const index::Neighbor& cur = ranking[i];
    if (!std::isfinite(cur.distance) || cur.id < 0 || cur.id >= n) {
      return false;
    }
    if (i > 0) {
      const index::Neighbor& prev = ranking[i - 1];
      if (prev.distance > cur.distance ||
          (prev.distance == cur.distance && prev.id >= cur.id)) {
        return false;
      }
    }
  }
  return true;
}

bool SameRanking(const std::vector<index::Neighbor>& a,
                 const std::vector<index::Neighbor>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || !SameBits(a[i].distance, b[i].distance)) {
      return false;
    }
  }
  return true;
}

bool SameClusters(const std::vector<core::Cluster>& a,
                  const std::vector<core::Cluster>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t c = 0; c < a.size(); ++c) {
    const core::Cluster& x = a[c];
    const core::Cluster& y = b[c];
    if (x.size() != y.size() || !SameBits(x.weight(), y.weight()) ||
        !SameBits(x.centroid(), y.centroid()) ||
        !SameBits(x.scores(), y.scores()) ||
        x.points().size() != y.points().size()) {
      return false;
    }
    for (std::size_t p = 0; p < x.points().size(); ++p) {
      if (!SameBits(x.points()[p], y.points()[p])) return false;
    }
    const linalg::Matrix cx = x.Covariance();
    const linalg::Matrix cy = y.Covariance();
    const std::size_t cells = static_cast<std::size_t>(cx.rows()) *
                              static_cast<std::size_t>(cx.cols());
    if (cx.rows() != cy.rows() || cx.cols() != cy.cols() ||
        (cells > 0 &&
         std::memcmp(cx.data(), cy.data(), cells * sizeof(double)) != 0)) {
      return false;
    }
  }
  return true;
}

double VarianceFloor(const std::vector<core::Cluster>& clusters,
                     const core::QclusterOptions& options) {
  double floor = options.min_variance;
  if (options.adaptive_floor_fraction <= 0.0 || clusters.empty()) return floor;
  std::vector<const stats::WeightedStats*> groups;
  groups.reserve(clusters.size());
  for (const core::Cluster& c : clusters) groups.push_back(&c.stats());
  const linalg::Matrix pooled = stats::PooledCovariance(groups);
  double mean_diag = 0.0;
  for (int d = 0; d < pooled.rows(); ++d) mean_diag += pooled(d, d);
  mean_diag /= pooled.rows();
  const double adaptive = options.adaptive_floor_fraction * mean_diag;
  if (adaptive > floor) floor = adaptive;
  return floor;
}

ReplayOutcome ReplayRound(const std::vector<linalg::Vector>& features,
                          const core::QclusterOptions& options,
                          const std::vector<core::Cluster>& before,
                          const std::vector<core::RelevantItem>& marked,
                          const std::vector<core::Cluster>& after,
                          std::unordered_set<int>& seen, QuantileArgs* args) {
  ReplayOutcome out;
  std::vector<linalg::Vector> points;
  std::vector<double> scores;
  for (const core::RelevantItem& item : marked) {
    if (!seen.insert(item.id).second) continue;
    points.push_back(features[static_cast<std::size_t>(item.id)]);
    scores.push_back(item.score);
  }

  std::vector<core::Cluster> clusters = before;
  const double dim = features.empty() ? 0.0 : features.front().size();
  // Runs `body` inside a span named `name`; returns its wall time in ns.
  auto timed = [](const char* name, auto&& body) {
    trace::ScopedSpan span(name);
    const Clock::time_point begin = Clock::now();
    body();
    return ElapsedNs(begin, Clock::now());
  };

  // The engine classifies under the floor it stored at the end of the
  // previous round, so this recomputation is not one of its costs.
  double floor = VarianceFloor(clusters, options);
  if (clusters.empty()) {
    core::HierarchicalOptions h;
    h.target_clusters = options.initial_clusters;
    out.hierarchical_ns = timed("bench.replay.hierarchical", [&] {
      clusters = core::HierarchicalCluster(points, scores, h);
    });
    out.hierarchical = true;
  } else if (!points.empty()) {
    core::ClassifierOptions c;
    c.alpha = options.alpha;
    c.scheme = options.scheme;
    c.min_variance = floor;
    c.use_individual_covariances = options.use_individual_covariances;
    std::vector<core::ClassificationDecision> decisions;
    out.classify_ns = timed("bench.replay.classify", [&] {
      decisions = core::ClassifyBatch(clusters, points, scores, c);
    });
    out.classified = true;
    for (const core::ClassificationDecision& d : decisions) {
      if (d.cluster < 0) ++out.new_clusters;
      args->chi2.push_back({options.alpha, dim});
    }
  }

  timed("bench.replay.variance_floor",
        [&] { floor = VarianceFloor(clusters, options); });
  core::MergeOptions m;
  m.alpha = options.alpha;
  m.max_clusters = options.max_clusters;
  m.scheme = options.scheme;
  m.min_variance = floor;
  // The quantile arguments of the pass's first all-pairs sweep at every α
  // level it reached (Algorithm 3 relaxes α by alpha_relax per level).
  const std::vector<core::Cluster> merge_input = clusters;
  out.merge_ns = timed("bench.replay.merge",
                       [&] { out.merge = core::MergeClusters(clusters, m); });
  for (double alpha = m.alpha;;) {
    for (std::size_t i = 0; i < merge_input.size(); ++i) {
      for (std::size_t j = i + 1; j < merge_input.size(); ++j) {
        const double dof2 =
            merge_input[i].weight() + merge_input[j].weight() - dim - 1.0;
        if (dof2 > 0.0) {
          args->f.push_back({alpha, dim, dof2});
        } else {
          args->chi2.push_back({alpha, dim});
        }
      }
    }
    if (!(alpha > out.merge.final_alpha)) break;
    alpha *= m.alpha_relax;
    if (alpha < m.min_alpha) alpha = m.min_alpha;
  }

  timed("bench.replay.variance_floor",
        [&] { floor = VarianceFloor(clusters, options); });
  timed("bench.replay.distance", [&] {
    const core::DisjunctiveDistance dist(
        clusters, options.scheme, floor > 0.0 ? floor : options.min_variance,
        options.covariance_shrinkage);
    (void)dist.dim();
  });
  out.matches = SameClusters(clusters, after);
  return out;
}

}  // namespace qcluster::perfbench
