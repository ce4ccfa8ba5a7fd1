#include "core/merging.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace qcluster::core {
namespace {

using linalg::Vector;

Cluster GaussianCluster(Rng& rng, const Vector& mean, int n) {
  Cluster c(static_cast<int>(mean.size()));
  for (int i = 0; i < n; ++i) {
    Vector p = rng.GaussianVector(static_cast<int>(mean.size()));
    linalg::Axpy(1.0, mean, p);
    c.Add(p, 1.0);
  }
  return c;
}

TEST(MergingTest, EvaluatePairReportsT2AndC2) {
  Rng rng(121);
  std::vector<Cluster> clusters;
  clusters.push_back(GaussianCluster(rng, {0, 0}, 30));
  clusters.push_back(GaussianCluster(rng, {0, 0}, 30));
  const MergeOptions opt;
  const MergeCandidate c = EvaluateMergePair(clusters, 0, 1, 0.05, opt);
  EXPECT_GE(c.t2, 0.0);
  EXPECT_GT(c.c2, 0.0);
  EXPECT_TRUE(c.mergeable());  // Same-mean clusters merge at alpha 0.05.
}

TEST(MergingTest, SameMeanClustersMerge) {
  Rng rng(122);
  std::vector<Cluster> clusters;
  for (int i = 0; i < 4; ++i) {
    clusters.push_back(GaussianCluster(rng, {0, 0}, 25));
  }
  MergeOptions opt;
  opt.max_clusters = 10;  // The cap must not be the reason for merging.
  const MergeReport report = MergeClusters(clusters, opt);
  EXPECT_EQ(clusters.size(), 1u);
  EXPECT_EQ(report.merges, 3);
  EXPECT_EQ(report.forced_merges, 0);
}

TEST(MergingTest, SeparatedClustersStaySeparate) {
  Rng rng(123);
  std::vector<Cluster> clusters;
  clusters.push_back(GaussianCluster(rng, {0, 0}, 30));
  clusters.push_back(GaussianCluster(rng, {12, 0}, 30));
  clusters.push_back(GaussianCluster(rng, {0, 12}, 30));
  MergeOptions opt;
  opt.max_clusters = 5;
  MergeClusters(clusters, opt);
  EXPECT_EQ(clusters.size(), 3u);
}

TEST(MergingTest, CapForcesMerges) {
  Rng rng(124);
  std::vector<Cluster> clusters;
  // Five well-separated clusters but a cap of 2.
  for (int i = 0; i < 5; ++i) {
    clusters.push_back(
        GaussianCluster(rng, {20.0 * i, 0.0}, 20));
  }
  MergeOptions opt;
  opt.max_clusters = 2;
  const MergeReport report = MergeClusters(clusters, opt);
  EXPECT_EQ(clusters.size(), 2u);
  EXPECT_GE(report.merges, 3);
}

TEST(MergingTest, CapMergesClosestFirst) {
  Rng rng(125);
  std::vector<Cluster> clusters;
  clusters.push_back(GaussianCluster(rng, {0, 0}, 20));
  clusters.push_back(GaussianCluster(rng, {8, 0}, 20));   // Close-ish pair.
  clusters.push_back(GaussianCluster(rng, {100, 0}, 20)); // Far away.
  MergeOptions opt;
  opt.max_clusters = 2;
  MergeClusters(clusters, opt);
  ASSERT_EQ(clusters.size(), 2u);
  // The far cluster must have survived unmerged: one centroid near 100.
  const bool far_survives =
      std::abs(clusters[0].centroid()[0] - 100.0) < 2.0 ||
      std::abs(clusters[1].centroid()[0] - 100.0) < 2.0;
  EXPECT_TRUE(far_survives);
}

TEST(MergingTest, SingletonClustersUseChiSquaredFallback) {
  // Fresh singleton clusters (m_i + m_j <= p + 1) must still be comparable.
  std::vector<Cluster> clusters;
  clusters.push_back(Cluster::FromPoint({0.0, 0.0, 0.0}, 1.0));
  clusters.push_back(Cluster::FromPoint({0.1, 0.0, 0.0}, 1.0));
  MergeOptions opt;
  opt.max_clusters = 5;
  opt.min_variance = 1.0;  // Coarse metric: the points are the same place.
  MergeClusters(clusters, opt);
  EXPECT_EQ(clusters.size(), 1u);
}

TEST(MergingTest, MergedStatisticsFollowEq11To13) {
  Rng rng(126);
  std::vector<Cluster> clusters;
  clusters.push_back(GaussianCluster(rng, {0, 0}, 30));
  clusters.push_back(GaussianCluster(rng, {0.05, 0}, 30));
  const double total_weight = clusters[0].weight() + clusters[1].weight();
  const Vector expected_mean = linalg::Add(
      linalg::Scale(clusters[0].centroid(),
                    clusters[0].weight() / total_weight),
      linalg::Scale(clusters[1].centroid(),
                    clusters[1].weight() / total_weight));
  MergeOptions opt;
  MergeClusters(clusters, opt);
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_DOUBLE_EQ(clusters[0].weight(), total_weight);   // Eq. 11.
  EXPECT_TRUE(linalg::AllClose(clusters[0].centroid(), expected_mean, 1e-9));
}

TEST(MergingTest, ReportsFinalAlphaWhenRelaxed) {
  Rng rng(127);
  std::vector<Cluster> clusters;
  for (int i = 0; i < 4; ++i) {
    clusters.push_back(GaussianCluster(rng, {30.0 * i, 0.0}, 20));
  }
  MergeOptions opt;
  opt.max_clusters = 1;
  const MergeReport report = MergeClusters(clusters, opt);
  EXPECT_EQ(clusters.size(), 1u);
  EXPECT_LT(report.final_alpha, opt.alpha);  // Relaxation happened.
}

TEST(MergingTest, NoMergeBelowCapWhenDistinct) {
  Rng rng(128);
  std::vector<Cluster> clusters;
  clusters.push_back(GaussianCluster(rng, {0, 0}, 30));
  clusters.push_back(GaussianCluster(rng, {15, 0}, 30));
  MergeOptions opt;
  opt.max_clusters = 5;
  const MergeReport report = MergeClusters(clusters, opt);
  EXPECT_EQ(report.merges, 0);
  EXPECT_EQ(clusters.size(), 2u);
}

TEST(MergingTest, NoFiniteT2StopsInsteadOfAborting) {
  // A NaN coordinate makes every pair's T² NaN, so no pair can be ranked.
  // Over the cap, merging must stop and return rather than merge a
  // non-existent pair. (Under QCLUSTER_AUDIT=1 the Eq. 14 validator logs
  // each NaN T²; that is expected for this input.)
  std::vector<Cluster> clusters;
  for (int i = 0; i < 7; ++i) {
    clusters.push_back(Cluster::FromPoint(
        {std::numeric_limits<double>::quiet_NaN(), 1.0 * i, 0.0}, 1.0));
  }
  MergeOptions opt;
  opt.max_clusters = 5;
  const MergeReport report = MergeClusters(clusters, opt);
  EXPECT_EQ(clusters.size(), 7u);
  EXPECT_EQ(report.merges, 0);
  EXPECT_EQ(report.forced_merges, 0);
  EXPECT_EQ(report.final_alpha, opt.alpha);
}

}  // namespace
}  // namespace qcluster::core
