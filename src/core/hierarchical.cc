#include "core/hierarchical.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "core/pair_table.h"

namespace qcluster::core {

using linalg::Vector;

namespace {

double LinkageDistance(const Cluster& a, const Cluster& b, Linkage linkage) {
  switch (linkage) {
    case Linkage::kCentroid:
      return linalg::SquaredDistance(a.centroid(), b.centroid());
    case Linkage::kSingle: {
      double best = std::numeric_limits<double>::infinity();
      for (const Vector& pa : a.points()) {
        for (const Vector& pb : b.points()) {
          best = std::min(best, linalg::SquaredDistance(pa, pb));
        }
      }
      return best;
    }
    case Linkage::kComplete: {
      double worst = 0.0;
      for (const Vector& pa : a.points()) {
        for (const Vector& pb : b.points()) {
          const double d = linalg::SquaredDistance(pa, pb);
          // std::max would drop a NaN; returning it makes
          // PairTable::Closest skip the pair, as for the other linkages.
          if (std::isnan(d)) return d;
          worst = std::max(worst, d);
        }
      }
      return worst;
    }
  }
  return 0.0;
}

}  // namespace

std::vector<Cluster> HierarchicalCluster(const std::vector<Vector>& points,
                                         const std::vector<double>& scores,
                                         const HierarchicalOptions& options) {
  QCLUSTER_CHECK(points.size() == scores.size());
  QCLUSTER_CHECK(options.target_clusters >= 1);

  std::vector<Cluster> clusters;
  clusters.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    clusters.push_back(Cluster::FromPoint(points[i], scores[i]));
  }

  // Linkage distances of every pair, updated per merge: only the merged
  // cluster's row changes, so the closest-pair scan reads the values a full
  // recomputation would produce.
  const auto linkage = [&clusters, &options](int i, int j) {
    return LinkageDistance(clusters[static_cast<std::size_t>(i)],
                           clusters[static_cast<std::size_t>(j)],
                           options.linkage);
  };
  PairTable distances(static_cast<int>(clusters.size()), linkage);
  while (static_cast<int>(clusters.size()) > options.target_clusters) {
    int best_i = 0;
    int best_j = 0;
    double best_d = 0.0;
    // No finite distance (NaN features) leaves nothing to merge.
    if (!distances.Closest(&best_i, &best_j, &best_d)) break;
    if (best_d > options.max_merge_distance) break;
    Cluster& into = clusters[static_cast<std::size_t>(best_i)];
    into = Cluster::Merged(
        std::move(into), std::move(clusters[static_cast<std::size_t>(best_j)]));
    clusters.erase(clusters.begin() + best_j);
    distances.Merge(best_i, best_j, linkage);
  }
  return clusters;
}

}  // namespace qcluster::core
