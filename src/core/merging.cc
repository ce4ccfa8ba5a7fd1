#include "core/merging.h"

#include <utility>

#include "common/check.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "core/pair_table.h"
#include "stats/box_m.h"
#include "stats/distributions.h"
#include "stats/hotelling.h"

namespace qcluster::core {

using linalg::Matrix;

namespace {

/// Hotelling T² (Eq. 14) of the pair (a, b): the pooled covariance of the
/// pair (Eq. 15) with the variance floor, inverted under the configured
/// scheme. Depends on the two clusters only, never on α.
double PairT2(const Cluster& a, const Cluster& b, const MergeOptions& options) {
  Matrix pooled = stats::PooledCovariancePair(a.stats(), b.stats());
  for (int d = 0; d < a.dim(); ++d) {
    if (pooled(d, d) < options.min_variance) {
      pooled(d, d) = options.min_variance;
    }
  }
  const Matrix pooled_inverse = stats::InvertCovariance(pooled, options.scheme);
  return stats::HotellingT2WithInverse(a.stats(), b.stats(), pooled_inverse);
}

/// Critical distance c² (Eq. 16) of a pair of total weight `weight`.
double CriticalDistance(double weight, int dim, double alpha) {
  Result<double> c2 = stats::HotellingCriticalDistance(weight, dim, alpha);
  return c2.ok() ? c2.value()
                 // Degenerate dof: fall back to the asymptotic χ² bound.
                 : stats::ChiSquaredUpperQuantile(alpha,
                                                  static_cast<double>(dim));
}

/// Box's M rejection of the pair's covariance homogeneity, when enabled.
bool Heterogeneous(const Cluster& a, const Cluster& b,
                   const MergeOptions& options) {
  if (!options.check_covariance_homogeneity) return false;
  Result<stats::BoxMTest> box = stats::BoxMHomogeneityTest(
      {&a.stats(), &b.stats()}, options.homogeneity_alpha);
  // Clusters too small for the test are treated as compatible, matching
  // the paper's small-sample assumption.
  return box.ok() && box.value().reject;
}

void ApplyMerge(std::vector<Cluster>& clusters, int i, int j) {
  QCLUSTER_CHECK(i < j);
  Cluster& into = clusters[static_cast<std::size_t>(i)];
  into = Cluster::Merged(std::move(into),
                         std::move(clusters[static_cast<std::size_t>(j)]));
  clusters.erase(clusters.begin() + j);
}

}  // namespace

MergeCandidate EvaluateMergePair(const std::vector<Cluster>& clusters, int i,
                                 int j, double alpha,
                                 const MergeOptions& options) {
  QCLUSTER_CHECK(0 <= i && i < static_cast<int>(clusters.size()));
  QCLUSTER_CHECK(0 <= j && j < static_cast<int>(clusters.size()));
  QCLUSTER_CHECK(i != j);
  const Cluster& a = clusters[static_cast<std::size_t>(i)];
  const Cluster& b = clusters[static_cast<std::size_t>(j)];
  MergeCandidate candidate;
  candidate.i = i;
  candidate.j = j;
  candidate.t2 = PairT2(a, b, options);
  candidate.c2 = CriticalDistance(a.weight() + b.weight(), a.dim(), alpha);
  candidate.heterogeneous = Heterogeneous(a, b, options);
  return candidate;
}

MergeReport MergeClusters(std::vector<Cluster>& clusters,
                          const MergeOptions& options) {
  QCLUSTER_CHECK(options.max_clusters >= 1);
  QCLUSTER_CHECK(0.0 < options.alpha && options.alpha < 1.0);
  QCLUSTER_CHECK(0.0 < options.alpha_relax && options.alpha_relax < 1.0);
  QCLUSTER_TRACE_SPAN(span, "merge.pass");
  span.AddAttr("clusters_in", clusters.size());
  QCLUSTER_TIMED("merge.pass");

  MergeReport report;
  double alpha = options.alpha;
  report.final_alpha = alpha;

  // The pair with the smallest T² is the only one whose test is ever read,
  // so the table holds T² alone; c² and Box's M are evaluated for that
  // pair only.
  const auto pair_t2 = [&clusters, &options](int i, int j) {
    return PairT2(clusters[static_cast<std::size_t>(i)],
                  clusters[static_cast<std::size_t>(j)], options);
  };
  PairTable t2(static_cast<int>(clusters.size()), pair_t2);
  MergeCandidate best;
  // No pair with a finite T² (NaN or overflowing features): nothing can be
  // ranked, so merging stops.
  while (clusters.size() > 1 && t2.Closest(&best.i, &best.j, &best.t2)) {
    const Cluster& a = clusters[static_cast<std::size_t>(best.i)];
    const Cluster& b = clusters[static_cast<std::size_t>(best.j)];
    best.heterogeneous = Heterogeneous(a, b, options);
    const bool over_cap =
        static_cast<int>(clusters.size()) > options.max_clusters;
    // Over the cap with the closest pair rejecting H0: Algorithm 3 line 8 —
    // increase the critical distance by relaxing α; force the closest pair
    // once α bottoms out. T² does not depend on α, so the closest pair stays
    // the same and only its c² is re-evaluated.
    bool forced = false;
    for (;;) {
      best.c2 = CriticalDistance(a.weight() + b.weight(), a.dim(), alpha);
      if (best.mergeable() || !over_cap) break;
      if (alpha > options.min_alpha) {
        alpha *= options.alpha_relax;
        if (alpha < options.min_alpha) alpha = options.min_alpha;
        report.final_alpha = alpha;
        continue;
      }
      forced = true;
      break;
    }
    if (!best.mergeable() && !forced) break;  // Distinct and within the cap.
    ApplyMerge(clusters, best.i, best.j);
    t2.Merge(best.i, best.j, pair_t2);
    ++report.merges;
    if (forced) ++report.forced_merges;
  }
  span.AddAttr("clusters_out", clusters.size());
  span.AddAttr("merges", report.merges);
  span.AddAttr("forced_merges", report.forced_merges);
  span.AddAttr("final_alpha", report.final_alpha);
  MetricAdd("merge.passes");
  MetricAdd("merge.merges", report.merges);
  MetricAdd("merge.forced_merges", report.forced_merges);
  return report;
}

}  // namespace qcluster::core
