// Bit-for-bit equivalence of the incremental clustering stages with the
// straightforward algorithms they replace. MergeClusters and
// HierarchicalCluster keep their pair quantities in a table updated per
// merge, and ClassifyBatch evaluates the χ²_p(α) radius once per batch; the
// reference copies below re-evaluate every pair on every pass (and the
// radius for every point). Both must leave identical clusters, reports and
// decisions, down to the last bit.

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/classifier.h"
#include "core/hierarchical.h"
#include "core/merging.h"
#include "stats/box_m.h"
#include "stats/covariance_scheme.h"
#include "stats/distributions.h"
#include "stats/hotelling.h"

namespace qcluster::core {
namespace {

using linalg::Matrix;
using linalg::Vector;
using stats::CovarianceScheme;

// ---------------------------------------------------------------------------
// Reference copies: every pair re-evaluated on every pass.

namespace reference {

MergeCandidate EvaluatePair(const std::vector<Cluster>& clusters, int i, int j,
                            double alpha, const MergeOptions& options) {
  const Cluster& a = clusters[static_cast<std::size_t>(i)];
  const Cluster& b = clusters[static_cast<std::size_t>(j)];
  const int dim = a.dim();
  Matrix pooled = stats::PooledCovariancePair(a.stats(), b.stats());
  for (int d = 0; d < dim; ++d) {
    if (pooled(d, d) < options.min_variance) {
      pooled(d, d) = options.min_variance;
    }
  }
  const Matrix pooled_inverse = stats::InvertCovariance(pooled, options.scheme);
  MergeCandidate candidate;
  candidate.i = i;
  candidate.j = j;
  candidate.t2 =
      stats::HotellingT2WithInverse(a.stats(), b.stats(), pooled_inverse);
  Result<double> c2 = stats::HotellingCriticalDistance(
      a.weight() + b.weight(), dim, alpha);
  candidate.c2 = c2.ok() ? c2.value()
                         : stats::ChiSquaredUpperQuantile(
                               alpha, static_cast<double>(dim));
  if (options.check_covariance_homogeneity) {
    Result<stats::BoxMTest> box = stats::BoxMHomogeneityTest(
        {&a.stats(), &b.stats()}, options.homogeneity_alpha);
    if (box.ok() && box.value().reject) candidate.heterogeneous = true;
  }
  return candidate;
}

MergeCandidate BestPair(const std::vector<Cluster>& clusters, double alpha,
                        const MergeOptions& options) {
  MergeCandidate best;
  best.t2 = std::numeric_limits<double>::infinity();
  best.c2 = -std::numeric_limits<double>::infinity();
  const int g = static_cast<int>(clusters.size());
  for (int i = 0; i < g; ++i) {
    for (int j = i + 1; j < g; ++j) {
      const MergeCandidate c = EvaluatePair(clusters, i, j, alpha, options);
      if (c.t2 < best.t2) best = c;
    }
  }
  return best;
}

void ApplyMerge(std::vector<Cluster>& clusters, int i, int j) {
  clusters[static_cast<std::size_t>(i)] =
      Cluster::Merged(clusters[static_cast<std::size_t>(i)],
                      clusters[static_cast<std::size_t>(j)]);
  clusters.erase(clusters.begin() + j);
}

MergeReport MergeClusters(std::vector<Cluster>& clusters,
                          const MergeOptions& options) {
  MergeReport report;
  double alpha = options.alpha;
  report.final_alpha = alpha;
  while (clusters.size() > 1) {
    const MergeCandidate best = BestPair(clusters, alpha, options);
    const bool over_cap =
        static_cast<int>(clusters.size()) > options.max_clusters;
    if (best.mergeable()) {
      ApplyMerge(clusters, best.i, best.j);
      ++report.merges;
      continue;
    }
    if (!over_cap) break;
    if (alpha > options.min_alpha) {
      alpha *= options.alpha_relax;
      if (alpha < options.min_alpha) alpha = options.min_alpha;
      report.final_alpha = alpha;
      continue;
    }
    ApplyMerge(clusters, best.i, best.j);
    ++report.merges;
    ++report.forced_merges;
  }
  return report;
}

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
          worst = std::max(worst, linalg::SquaredDistance(pa, pb));
        }
      }
      return worst;
    }
  }
  return 0.0;
}

std::vector<Cluster> HierarchicalCluster(const std::vector<Vector>& points,
                                         const std::vector<double>& scores,
                                         const HierarchicalOptions& options) {
  std::vector<Cluster> clusters;
  for (std::size_t i = 0; i < points.size(); ++i) {
    clusters.push_back(Cluster::FromPoint(points[i], scores[i]));
  }
  while (static_cast<int>(clusters.size()) > options.target_clusters) {
    int best_i = -1;
    int best_j = -1;
    double best_d = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < clusters.size(); ++i) {
      for (std::size_t j = i + 1; j < clusters.size(); ++j) {
        const double d =
            LinkageDistance(clusters[i], clusters[j], options.linkage);
        if (d < best_d) {
          best_d = d;
          best_i = static_cast<int>(i);
          best_j = static_cast<int>(j);
        }
      }
    }
    if (best_d > options.max_merge_distance) break;
    ApplyMerge(clusters, best_i, best_j);
  }
  return clusters;
}

ClassificationDecision Classify(const std::vector<Cluster>& clusters,
                                const Vector& x,
                                const ClassifierOptions& options) {
  const std::vector<double> scores =
      ClassificationScores(clusters, x, options);
  int best = 0;
  for (std::size_t i = 1; i < scores.size(); ++i) {
    if (scores[i] > scores[static_cast<std::size_t>(best)]) {
      best = static_cast<int>(i);
    }
  }
  ClassificationDecision decision;
  decision.score = scores[static_cast<std::size_t>(best)];
  decision.radius = stats::ChiSquaredUpperQuantile(
      options.alpha, static_cast<double>(clusters.front().dim()));
  decision.radius_d2 =
      clusters[static_cast<std::size_t>(best)].DistanceSquared(
          x, options.scheme, options.min_variance);
  decision.cluster = decision.radius_d2 < decision.radius ? best : -1;
  return decision;
}

std::vector<ClassificationDecision> ClassifyBatch(
    std::vector<Cluster>& clusters, const std::vector<Vector>& points,
    const std::vector<double>& scores, const ClassifierOptions& options) {
  std::vector<ClassificationDecision> decisions;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (clusters.empty()) {
      clusters.push_back(Cluster::FromPoint(points[i], scores[i]));
      ClassificationDecision d;
      d.cluster = 0;
      decisions.push_back(d);
      continue;
    }
    ClassificationDecision d =
        reference::Classify(clusters, points[i], options);
    if (d.cluster >= 0) {
      clusters[static_cast<std::size_t>(d.cluster)].Add(points[i], scores[i]);
    } else {
      clusters.push_back(Cluster::FromPoint(points[i], scores[i]));
    }
    decisions.push_back(d);
  }
  return decisions;
}

}  // namespace reference

// ---------------------------------------------------------------------------
// Bit comparisons.

std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void ExpectSameVector(const Vector& a, const Vector& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(Bits(a[i]), Bits(b[i])) << "coordinate " << i;
  }
}

void ExpectSameClusters(const std::vector<Cluster>& got,
                        const std::vector<Cluster>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t c = 0; c < got.size(); ++c) {
    SCOPED_TRACE(testing::Message() << "cluster " << c);
    const Cluster& g = got[c];
    const Cluster& w = want[c];
    EXPECT_EQ(g.size(), w.size());
    EXPECT_EQ(Bits(g.weight()), Bits(w.weight()));
    ExpectSameVector(g.centroid(), w.centroid());
    const Matrix& gs = g.stats().scatter();
    const Matrix& ws = w.stats().scatter();
    ASSERT_EQ(gs.rows(), ws.rows());
    for (int r = 0; r < gs.rows(); ++r) {
      for (int k = 0; k < gs.cols(); ++k) {
        EXPECT_EQ(Bits(gs(r, k)), Bits(ws(r, k)));
      }
    }
    ASSERT_EQ(g.points().size(), w.points().size());
    for (std::size_t p = 0; p < g.points().size(); ++p) {
      ExpectSameVector(g.points()[p], w.points()[p]);
      EXPECT_EQ(Bits(g.scores()[p]), Bits(w.scores()[p]));
    }
  }
}

void ExpectSameReport(const MergeReport& got, const MergeReport& want) {
  EXPECT_EQ(got.merges, want.merges);
  EXPECT_EQ(got.forced_merges, want.forced_merges);
  EXPECT_EQ(Bits(got.final_alpha), Bits(want.final_alpha));
}

void ExpectSameDecisions(const std::vector<ClassificationDecision>& got,
                         const std::vector<ClassificationDecision>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "point " << i);
    EXPECT_EQ(got[i].cluster, want[i].cluster);
    EXPECT_EQ(Bits(got[i].score), Bits(want[i].score));
    EXPECT_EQ(Bits(got[i].radius_d2), Bits(want[i].radius_d2));
    EXPECT_EQ(Bits(got[i].radius), Bits(want[i].radius));
  }
}

// ---------------------------------------------------------------------------
// Seeded, tie-heavy inputs.

/// Integer lattice points around a few well-separated modes. Lattice
/// coordinates make many pairwise distances, T² values and classification
/// scores exactly equal; about a third of the points also repeat an earlier
/// point, and scores come from a small set.
Vector LatticeGaussian(Rng& rng, int dim, double scale) {
  Vector v = rng.GaussianVector(dim);
  for (double& x : v) x = std::round(scale * x);
  return v;
}

void TieHeavyPoints(Rng& rng, int dim, int n, std::vector<Vector>* points,
                    std::vector<double>* scores) {
  std::vector<Vector> modes;
  for (int m = 0; m < 3; ++m) modes.push_back(LatticeGaussian(rng, dim, 6.0));
  for (int i = 0; i < n; ++i) {
    if (i > 0 && rng.Uniform() < 0.35) {
      points->push_back((*points)[rng.UniformInt(points->size())]);
    } else {
      points->push_back(linalg::Add(modes[rng.UniformInt(modes.size())],
                                    LatticeGaussian(rng, dim, 1.0)));
    }
    scores->push_back(0.5 * static_cast<double>(1 + rng.UniformInt(3)));
  }
}

/// `g` clusters of mixed sizes: singletons (χ² fallback), small clusters,
/// and clusters large enough for the F quantile and Box's M at `dim`.
/// Many clusters are exact copies of earlier ones, so several pairs share
/// T² = 0 and the tie-break decides which merges first.
std::vector<Cluster> TieHeavyClusters(Rng& rng, int dim, int g) {
  std::vector<Cluster> clusters;
  for (int c = 0; c < g; ++c) {
    if (c >= 2 && rng.Uniform() < 0.4) {
      clusters.push_back(clusters[rng.UniformInt(clusters.size())]);
      continue;
    }
    const double roll = rng.Uniform();
    const int n = roll < 0.3 ? 1
                  : roll < 0.7 ? 2 + static_cast<int>(rng.UniformInt(6))
                               : dim + 6;
    std::vector<Vector> points;
    std::vector<double> scores;
    TieHeavyPoints(rng, dim, n, &points, &scores);
    const Vector shift = LatticeGaussian(rng, dim, 4.0);
    Cluster cluster(dim);
    for (int i = 0; i < n; ++i) {
      cluster.Add(linalg::Add(points[static_cast<std::size_t>(i)], shift),
                  scores[static_cast<std::size_t>(i)]);
    }
    clusters.push_back(cluster);
  }
  return clusters;
}

/// Unit-weight singletons at x = 0, 1, 2, … on the first axis: every
/// adjacent pair has exactly the same T², so which tied pair merges first
/// changes the result.
std::vector<Cluster> LineClusters(int dim, int g) {
  std::vector<Cluster> clusters;
  for (int c = 0; c < g; ++c) {
    Vector x(static_cast<std::size_t>(dim), 0.0);
    x[0] = c;
    clusters.push_back(Cluster::FromPoint(x, 1.0));
  }
  return clusters;
}

struct MergeCase {
  int max_clusters;
  double min_alpha;
};

TEST(MergeEquivalenceTest, MergeClustersMatchesAllPairsReference) {
  // Caps from loose to a single cluster, with floors that either let α
  // relax for a while or bottom out after one step (forced merges).
  const MergeCase kCases[] = {{5, 1e-9}, {2, 0.04}, {1, 1e-3}};
  int forced_cases = 0;
  int floored_cases = 0;
  int natural_cases = 0;
  int box_m_changes = 0;
  for (int dim : {3, 32}) {
    const int g = dim == 3 ? 12 : 6;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      Rng rng(1000 * static_cast<std::uint64_t>(dim) + seed);
      const std::vector<Cluster> input =
          seed == 3 ? LineClusters(dim, g) : TieHeavyClusters(rng, dim, g);
      for (CovarianceScheme scheme :
           {CovarianceScheme::kDiagonal, CovarianceScheme::kInverse}) {
        for (const MergeCase& mc : kCases) {
          std::vector<Cluster> without_box_m;
          for (bool box_m : {false, true}) {
            SCOPED_TRACE(testing::Message()
                         << "dim " << dim << " seed " << seed << " scheme "
                         << stats::CovarianceSchemeName(scheme) << " cap "
                         << mc.max_clusters << " min_alpha " << mc.min_alpha
                         << " box_m " << box_m);
            MergeOptions options;
            options.scheme = scheme;
            options.max_clusters = mc.max_clusters;
            options.min_alpha = mc.min_alpha;
            options.check_covariance_homogeneity = box_m;
            std::vector<Cluster> got = input;
            std::vector<Cluster> want = input;
            const MergeReport got_report = MergeClusters(got, options);
            const MergeReport want_report =
                reference::MergeClusters(want, options);
            ExpectSameReport(got_report, want_report);
            ExpectSameClusters(got, want);
            forced_cases += got_report.forced_merges > 0;
            floored_cases += got_report.final_alpha == mc.min_alpha;
            natural_cases += got_report.merges > got_report.forced_merges;
            if (!box_m) {
              without_box_m = got;
            } else if (got.size() != without_box_m.size()) {
              ++box_m_changes;
            }
          }
        }
      }
    }
  }
  // The sweep must exercise every branch of Algorithm 3.
  EXPECT_GT(forced_cases, 0);
  EXPECT_GT(floored_cases, 0);
  EXPECT_GT(natural_cases, 0);
  EXPECT_GT(box_m_changes, 0);
}

TEST(MergeEquivalenceTest, HierarchicalClusterMatchesAllPairsReference) {
  const double kInf = std::numeric_limits<double>::infinity();
  for (int dim : {3, 32}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      Rng rng(2000 * static_cast<std::uint64_t>(dim) + seed);
      std::vector<Vector> points;
      std::vector<double> scores;
      TieHeavyPoints(rng, dim, 40, &points, &scores);
      for (Linkage linkage :
           {Linkage::kCentroid, Linkage::kSingle, Linkage::kComplete}) {
        for (int target : {1, 3, 7}) {
          for (double max_distance : {kInf, 4.0 * dim}) {
            SCOPED_TRACE(testing::Message()
                         << "dim " << dim << " seed " << seed << " linkage "
                         << static_cast<int>(linkage) << " target " << target
                         << " max_distance " << max_distance);
            HierarchicalOptions options;
            options.linkage = linkage;
            options.target_clusters = target;
            options.max_merge_distance = max_distance;
            ExpectSameClusters(
                HierarchicalCluster(points, scores, options),
                reference::HierarchicalCluster(points, scores, options));
          }
        }
      }
    }
  }
}

TEST(MergeEquivalenceTest, ClassifyBatchMatchesPerPointReference) {
  for (int dim : {3, 32}) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      Rng rng(3000 * static_cast<std::uint64_t>(dim) + seed);
      std::vector<Vector> seed_points;
      std::vector<double> seed_scores;
      TieHeavyPoints(rng, dim, 30, &seed_points, &seed_scores);
      HierarchicalOptions h;
      h.target_clusters = 3;
      const std::vector<Cluster> initial =
          HierarchicalCluster(seed_points, seed_scores, h);
      std::vector<Vector> batch;
      std::vector<double> batch_scores;
      TieHeavyPoints(rng, dim, 40, &batch, &batch_scores);
      for (CovarianceScheme scheme :
           {CovarianceScheme::kDiagonal, CovarianceScheme::kInverse}) {
        for (bool individual : {false, true}) {
          for (bool from_empty : {false, true}) {
            SCOPED_TRACE(testing::Message()
                         << "dim " << dim << " seed " << seed << " scheme "
                         << stats::CovarianceSchemeName(scheme)
                         << " individual " << individual << " from_empty "
                         << from_empty);
            ClassifierOptions options;
            options.scheme = scheme;
            options.use_individual_covariances = individual;
            options.alpha = 0.01;
            std::vector<Cluster> got =
                from_empty ? std::vector<Cluster>{} : initial;
            std::vector<Cluster> want = got;
            ExpectSameDecisions(
                ClassifyBatch(got, batch, batch_scores, options),
                reference::ClassifyBatch(want, batch, batch_scores, options));
            ExpectSameClusters(got, want);
            // The single-point entry point keeps its own radius evaluation.
            ExpectSameDecisions(
                {Classify(got, batch.front(), options)},
                {reference::Classify(want, batch.front(), options)});
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace qcluster::core
