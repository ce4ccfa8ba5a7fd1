#include "linalg/pca.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace qcluster::linalg {

Result<Pca> Pca::Fit(const std::vector<Vector>& rows) {
  QCLUSTER_CHECK_MSG(!rows.empty(), "PCA needs at least one sample");
  const std::size_t p = rows.front().size();
  Vector mean(p, 0.0);
  for (const Vector& r : rows) {
    QCLUSTER_CHECK(r.size() == p);
    for (std::size_t j = 0; j < p; ++j) mean[j] += r[j];
  }
  const double inv_n = 1.0 / static_cast<double>(rows.size());
  for (double& m : mean) m *= inv_n;

  // Sample covariance with 1/n normalization; the normalization constant
  // does not affect directions or variance ratios.
  Matrix cov(static_cast<int>(p), static_cast<int>(p), 0.0);
  Vector centered(p);
  for (const Vector& r : rows) {
    for (std::size_t j = 0; j < p; ++j) centered[j] = r[j] - mean[j];
    for (std::size_t i = 0; i < p; ++i) {
      const double di = centered[i];
      for (std::size_t j = i; j < p; ++j) {
        cov(static_cast<int>(i), static_cast<int>(j)) += di * centered[j];
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

  Result<SymmetricEigen> eigen = EigenSymmetric(cov);
  if (!eigen.ok()) return eigen.status();
  return Pca(std::move(mean), std::move(eigen).value());
}

int Pca::ComponentsForVarianceRatio(double epsilon) const {
  QCLUSTER_CHECK(0.0 <= epsilon && epsilon < 1.0);
  double total = 0.0;
  for (double v : eigen_.values) total += std::max(v, 0.0);
  if (total <= 0.0) return input_dim();
  double acc = 0.0;
  for (int k = 1; k <= input_dim(); ++k) {
    acc += std::max(eigen_.values[static_cast<std::size_t>(k - 1)], 0.0);
    if (acc / total >= 1.0 - epsilon) return k;
  }
  return input_dim();
}

double Pca::VarianceRatio(int k) const {
  QCLUSTER_CHECK(0 <= k && k <= input_dim());
  double total = 0.0;
  for (double v : eigen_.values) total += std::max(v, 0.0);
  if (total <= 0.0) return 1.0;
  double acc = 0.0;
  for (int i = 0; i < k; ++i) {
    acc += std::max(eigen_.values[static_cast<std::size_t>(i)], 0.0);
  }
  return acc / total;
}

void Pca::TransformRow(const Vector& x, int k, double* z) const {
  QCLUSTER_CHECK(static_cast<int>(x.size()) == input_dim());
  // z_c = Σ_r G(r, c)·(x_r − mean_r), each sum accumulated in r order.
  // Walking G row by row keeps the reads contiguous.
  const int p = input_dim();
  std::fill(z, z + k, 0.0);
  for (int r = 0; r < p; ++r) {
    const double centered =
        x[static_cast<std::size_t>(r)] - mean_[static_cast<std::size_t>(r)];
    const double* g = eigen_.vectors.data() + static_cast<std::size_t>(r) * p;
    for (int c = 0; c < k; ++c) z[c] += g[c] * centered;
  }
}

Vector Pca::Transform(const Vector& x, int k) const {
  QCLUSTER_CHECK(0 < k && k <= input_dim());
  Vector z(static_cast<std::size_t>(k));
  TransformRow(x, k, z.data());
  return z;
}

std::vector<Vector> Pca::TransformAll(const std::vector<Vector>& rows,
                                      int k) const {
  QCLUSTER_CHECK(0 < k && k <= input_dim());
  std::vector<Vector> out(rows.size(), Vector(static_cast<std::size_t>(k)));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    TransformRow(rows[i], k, out[i].data());
  }
  return out;
}

Vector Pca::InverseTransform(const Vector& z) const {
  const int k = static_cast<int>(z.size());
  QCLUSTER_CHECK(0 < k && k <= input_dim());
  Vector x = mean_;
  for (int c = 0; c < k; ++c) {
    const double zc = z[static_cast<std::size_t>(c)];
    for (int r = 0; r < input_dim(); ++r) {
      x[static_cast<std::size_t>(r)] += eigen_.vectors(r, c) * zc;
    }
  }
  return x;
}

namespace {

/// Cap on the rows used for the Projector's principal-basis fit. Any
/// orthonormal basis keeps the projector contractive, so subsampling only
/// trades a little pruning tightness for an O(sample·d²) instead of
/// O(n·d²) fit.
constexpr std::size_t kMaxFitSample = 2048;

/// Deterministic stride subsample of `view`, whitened through `whitener`.
std::vector<Vector> WhitenedSample(const Matrix& whitener,
                                   const FlatView& view) {
  const std::size_t stride =
      view.n <= kMaxFitSample ? 1 : (view.n + kMaxFitSample - 1) / kMaxFitSample;
  const int d = view.dim;
  std::vector<Vector> rows;
  rows.reserve(view.n / stride + 1);
  Vector y(static_cast<std::size_t>(d));
  for (std::size_t i = 0; i < view.n; i += stride) {
    const double* x = view.row(i);
    for (int r = 0; r < d; ++r) {
      double sum = 0.0;
      for (int c = 0; c < d; ++c) sum += whitener(r, c) * x[c];
      y[static_cast<std::size_t>(r)] = sum;
    }
    rows.push_back(y);
  }
  return rows;
}

/// Gershgorin-disc lower bound on λ_min, clamped to >= 0 — the valid (if
/// loose) spectral floor when the eigendecomposition diverges.
double GershgorinMinEigenvalueBound(const Matrix& m) {
  double bound = std::numeric_limits<double>::infinity();
  for (int r = 0; r < m.rows(); ++r) {
    double radius = 0.0;
    for (int c = 0; c < m.cols(); ++c) {
      if (c != r) radius += std::abs(m(r, c));
    }
    bound = std::min(bound, m(r, r) - radius);
  }
  return std::max(bound, 0.0);
}

/// Gershgorin-disc upper bound on λ_max.
double GershgorinMaxEigenvalueBound(const Matrix& m) {
  double bound = 0.0;
  for (int r = 0; r < m.rows(); ++r) {
    double radius = 0.0;
    for (int c = 0; c < m.cols(); ++c) {
      if (c != r) radius += std::abs(m(r, c));
    }
    bound = std::max(bound, m(r, r) + radius);
  }
  return bound;
}

/// Minimum certified λ_min / λ_max ratio for a full metric. Below it, the
/// exact full-dimension quadratic form — accumulated with error on the
/// order of d·ε·λ_max·||δ||² — can round to <= 0 for a distinct point,
/// and downstream kernels that snap non-positive forms to zero would then
/// sit *below* any positive reduced-distance "lower bound". 1e-12 leaves
/// two orders of magnitude of margin over that rounding floor.
constexpr double kPsdCertifyRatio = 1e-12;

}  // namespace

Projector Projector::Compose(const Matrix& whitener, const FlatView& sample,
                             int k) {
  const int d = whitener.cols();
  k = std::max(1, std::min(k, d));
  if (!sample.empty() && sample.dim == d) {
    Result<Pca> basis = Pca::Fit(WhitenedSample(whitener, sample));
    if (basis.ok()) {
      return Projector(basis.value()
                           .components()
                           .LeadingColumns(k)
                           .Transposed()
                           .Multiply(whitener),
                       true);
    }
  }
  // No usable sample or the basis fit diverged: keep the first k whitened
  // coordinates (rows of the identity basis) — untuned but contractive.
  Matrix p(k, d, 0.0);
  for (int r = 0; r < k; ++r) {
    for (int c = 0; c < d; ++c) p(r, c) = whitener(r, c);
  }
  return Projector(std::move(p), true);
}

Projector Projector::FitDiagonal(const Vector& diagonal_a,
                                 const FlatView& sample, int k) {
  const int d = static_cast<int>(diagonal_a.size());
  QCLUSTER_CHECK(d > 0);
  Matrix whitener(d, d, 0.0);
  for (int i = 0; i < d; ++i) {
    const double a = diagonal_a[static_cast<std::size_t>(i)];
    QCLUSTER_CHECK(a >= 0.0);
    whitener(i, i) = std::sqrt(a);
  }
  return Compose(whitener, sample, k);
}

Projector Projector::Fit(const Matrix& a, const FlatView& sample, int k) {
  const int d = a.rows();
  QCLUSTER_CHECK(d > 0 && a.cols() == d);
  Result<SymmetricEigen> eigen = EigenSymmetric(a);
  Matrix whitener(d, d, 0.0);
  bool certified = false;
  if (eigen.ok()) {
    const SymmetricEigen& e = eigen.value();
    // Eigenvalues are sorted descending: certify a strictly positive,
    // well-enough-conditioned spectrum (see contractive()). An indefinite
    // metric admits no non-negative lower bound at all.
    const double lambda_max = e.values.empty() ? 0.0 : e.values.front();
    const double lambda_min = e.values.empty() ? 0.0 : e.values.back();
    certified =
        lambda_min > 0.0 && lambda_min >= kPsdCertifyRatio * lambda_max;
    if (certified) {
      // Symmetric square root A^{1/2} = U Λ^{1/2} U'.
      for (int r = 0; r < d; ++r) {
        for (int c = r; c < d; ++c) {
          double sum = 0.0;
          for (int i = 0; i < d; ++i) {
            const double lambda = e.values[static_cast<std::size_t>(i)];
            sum += e.vectors(r, i) * std::sqrt(lambda) * e.vectors(c, i);
          }
          whitener(r, c) = sum;
          whitener(c, r) = sum;
        }
      }
    }
  } else {
    // Spectral-floor fallback: sqrt(λ_lower)·I satisfies
    // λ_lower·||δ||² <= δ'Aδ, so the projector stays contractive — but only
    // worth certifying when the Gershgorin discs themselves prove a
    // strictly positive, well-conditioned spectrum.
    const double lower = GershgorinMinEigenvalueBound(a);
    certified = lower > 0.0 &&
                lower >= kPsdCertifyRatio * GershgorinMaxEigenvalueBound(a);
    if (certified) {
      const double root = std::sqrt(lower);
      for (int i = 0; i < d; ++i) whitener(i, i) = root;
    }
  }
  if (!certified) {
    // The zero map is still formally contractive for a PSD metric, but the
    // flag tells callers not to prune with it at all.
    return Projector(Matrix(std::max(1, std::min(k, d)), d, 0.0), false);
  }
  return Compose(whitener, sample, k);
}

void Projector::Project(const double* x, double* out) const {
  const int d = p_.cols();
  for (int r = 0; r < p_.rows(); ++r) {
    double sum = 0.0;
    for (int c = 0; c < d; ++c) sum += p_(r, c) * x[c];
    out[static_cast<std::size_t>(r)] = sum;
  }
}

Vector Projector::Project(const Vector& x) const {
  QCLUSTER_CHECK(static_cast<int>(x.size()) == input_dim());
  Vector out(static_cast<std::size_t>(output_dim()));
  Project(x.data(), out.data());
  return out;
}

}  // namespace qcluster::linalg
