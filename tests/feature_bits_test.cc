// Pins the bits of FeatureDatabase::FromRawFeatures — standardization, the
// PCA fit and the projection — to a straightforward reference copy of the
// set-up path, so any speed-up of it must leave every feature bit unchanged.

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "dataset/feature_database.h"
#include "linalg/eigen_sym.h"

namespace qcluster::dataset {
namespace {

using linalg::Matrix;
using linalg::Vector;

std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void ExpectSameBits(const Vector& got, const Vector& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(Bits(got[i]), Bits(want[i])) << "coordinate " << i;
  }
}

/// Reference standardization: per-element sqrt, as written in the paper's
/// z-score form.
void ReferenceStandardize(std::vector<Vector>& rows) {
  const std::size_t p = rows.front().size();
  Vector mean(p, 0.0);
  for (const Vector& r : rows) {
    for (std::size_t j = 0; j < p; ++j) mean[j] += r[j];
  }
  const double inv_n = 1.0 / static_cast<double>(rows.size());
  for (double& m : mean) m *= inv_n;
  Vector var(p, 0.0);
  for (const Vector& r : rows) {
    for (std::size_t j = 0; j < p; ++j) {
      const double d = r[j] - mean[j];
      var[j] += d * d;
    }
  }
  for (double& v : var) v *= inv_n;
  for (Vector& r : rows) {
    for (std::size_t j = 0; j < p; ++j) {
      const double sd = std::sqrt(var[j]);
      r[j] = sd > 1e-12 ? (r[j] - mean[j]) / sd : 0.0;
    }
  }
}

struct ReferencePca {
  Vector mean;
  linalg::SymmetricEigen eigen;
};

ReferencePca ReferenceFit(const std::vector<Vector>& rows) {
  const std::size_t p = rows.front().size();
  Vector mean(p, 0.0);
  for (const Vector& r : rows) {
    for (std::size_t j = 0; j < p; ++j) mean[j] += r[j];
  }
  const double inv_n = 1.0 / static_cast<double>(rows.size());
  for (double& m : mean) m *= inv_n;
  Matrix cov(static_cast<int>(p), static_cast<int>(p), 0.0);
  for (const Vector& r : rows) {
    for (std::size_t i = 0; i < p; ++i) {
      const double di = r[i] - mean[i];
      for (std::size_t j = i; j < p; ++j) {
        cov(static_cast<int>(i), static_cast<int>(j)) += di * (r[j] - mean[j]);
      }
    }
  }
  for (std::size_t i = 0; i < p; ++i) {
    for (std::size_t j = i; j < p; ++j) {
      const double v = cov(static_cast<int>(i), static_cast<int>(j)) * inv_n;
      cov(static_cast<int>(i), static_cast<int>(j)) = v;
      cov(static_cast<int>(j), static_cast<int>(i)) = v;
    }
  }
  Result<linalg::SymmetricEigen> eigen = linalg::EigenSymmetric(cov);
  EXPECT_TRUE(eigen.ok());
  return {std::move(mean), std::move(eigen).value()};
}

Vector ReferenceTransform(const ReferencePca& pca, const Vector& x, int k) {
  const Vector centered = linalg::Sub(x, pca.mean);
  Vector z(static_cast<std::size_t>(k), 0.0);
  for (int c = 0; c < k; ++c) {
    double sum = 0.0;
    for (int r = 0; r < static_cast<int>(x.size()); ++r) {
      sum += pca.eigen.vectors(r, c) * centered[static_cast<std::size_t>(r)];
    }
    z[static_cast<std::size_t>(c)] = sum;
  }
  return z;
}

/// Raw features with wildly different per-dimension scales and offsets,
/// one constant dimension (the zero-variance branch), and repeated rows.
std::vector<Vector> RawFeatures(std::uint64_t seed, int n, int dim) {
  Rng rng(seed);
  Vector scale(static_cast<std::size_t>(dim));
  for (double& s : scale) s = std::pow(10.0, rng.Uniform(-3.0, 3.0));
  std::vector<Vector> rows;
  for (int i = 0; i < n; ++i) {
    if (i > 0 && rng.Uniform() < 0.1) {
      rows.push_back(rows[rng.UniformInt(rows.size())]);
      continue;
    }
    Vector r = rng.GaussianVector(dim);
    for (std::size_t j = 0; j < r.size(); ++j) {
      r[j] = scale[j] * (r[j] + static_cast<double>(j));
    }
    r[r.size() / 2] = 7.0;
    rows.push_back(std::move(r));
  }
  return rows;
}

TEST(FeatureBitsTest, FromRawFeaturesMatchesReferenceBitForBit) {
  struct Shape {
    int n;
    int dim;
    int reduced;
  };
  for (const Shape& shape : {Shape{3000, 9, 3}, Shape{1500, 32, 8},
                             Shape{200, 32, 32}}) {
    SCOPED_TRACE(testing::Message() << shape.n << " x " << shape.dim
                                    << " -> " << shape.reduced);
    const std::vector<Vector> raw = RawFeatures(
        static_cast<std::uint64_t>(shape.n * 100 + shape.dim), shape.n,
        shape.dim);
    const std::vector<int> labels(raw.size(), 0);
    const FeatureDatabase db =
        FeatureDatabase::FromRawFeatures(raw, labels, labels, shape.reduced);

    std::vector<Vector> standardized = raw;
    ReferenceStandardize(standardized);
    const ReferencePca pca = ReferenceFit(standardized);
    ExpectSameBits(db.pca().mean(), pca.mean);
    ExpectSameBits(db.pca().eigenvalues(), pca.eigen.values);
    ASSERT_EQ(db.features().size(), raw.size());
    for (std::size_t i = 0; i < raw.size(); ++i) {
      ExpectSameBits(db.features()[i],
                     ReferenceTransform(pca, standardized[i], shape.reduced));
      if (HasFailure()) return;  // One row's report is enough.
    }
  }
}

}  // namespace
}  // namespace qcluster::dataset
