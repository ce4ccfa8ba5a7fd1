#ifndef QCLUSTER_LINALG_PCA_H_
#define QCLUSTER_LINALG_PCA_H_

#include "common/status.h"
#include "linalg/eigen_sym.h"
#include "linalg/flat_view.h"
#include "linalg/matrix.h"

namespace qcluster::linalg {

/// Principal component analysis as used in Sec. 4.4 of the paper: fitted on a
/// sample X, the transform is z = G_k^T (x - mean) where the columns of G are
/// eigenvectors of the sample covariance sorted by descending eigenvalue.
class Pca {
 public:
  /// Fits a PCA model on `rows` sample vectors (each of equal dimension).
  /// Requires at least one sample. Fails only if the eigensolver diverges.
  [[nodiscard]] static Result<Pca> Fit(const std::vector<Vector>& rows);

  /// Input dimensionality p.
  int input_dim() const { return static_cast<int>(mean_.size()); }

  /// The sample mean used for centering.
  const Vector& mean() const { return mean_; }

  /// Eigenvalues of the sample covariance, descending. These are the
  /// variances λ_i of the principal components.
  const Vector& eigenvalues() const { return eigen_.values; }

  /// Eigenvector matrix G; column i is the i-th principal direction.
  const Matrix& components() const { return eigen_.vectors; }

  /// Smallest k such that the first k components cover at least
  /// `1 - epsilon` of the total variance (Sec. 4.4.4, ε <= 0.15). Returns
  /// input_dim() when total variance is zero.
  int ComponentsForVarianceRatio(double epsilon) const;

  /// Fraction of total variance covered by the first k components.
  double VarianceRatio(int k) const;

  /// Projects `x` onto the first `k` principal components.
  Vector Transform(const Vector& x, int k) const;

  /// Projects every row of `rows` onto the first `k` components.
  std::vector<Vector> TransformAll(const std::vector<Vector>& rows,
                                   int k) const;

  /// Reconstructs an approximation of the original vector from a k-dim
  /// projection: x ≈ mean + G_k z.
  Vector InverseTransform(const Vector& z) const;

 private:
  Pca(Vector mean, SymmetricEigen eigen)
      : mean_(std::move(mean)), eigen_(std::move(eigen)) {}

  /// Row kernel of Transform/TransformAll: writes the first `k` principal
  /// coordinates of `x` into `z`.
  void TransformRow(const Vector& x, int k, double* z) const;

  Vector mean_;
  SymmetricEigen eigen_;
};

/// A contractive linear map for the quadratic-form metric
/// d²(x, q) = (x − q)' A (x − q), the GEMINI-style lower-bound transform
/// behind the filter-and-refine index.
///
/// The map is P = G_k' A^{1/2}: A^{1/2} whitens the metric — in whitened
/// coordinates the quadratic form is a plain squared Euclidean norm, which
/// is exactly the rotation argument of Theorem 1 / Eq. 17-18 — and G
/// collects the principal directions of the whitened sample so the k kept
/// coordinates carry as much of the distance mass as possible. Because G is
/// orthonormal, dropping coordinates only shrinks the norm:
///
///   ||P(x − q)||² = ||G_k' A^{1/2}(x − q)||² <= ||A^{1/2}(x − q)||²
///                 = (x − q)' A (x − q),
///
/// with equality at k = input_dim (Eq. 18: the full rotation preserves the
/// form). The bound holds for any orthonormal basis; the principal fit only
/// affects how tightly it prunes, never correctness.
class Projector {
 public:
  /// Projector for a diagonal metric A = diag(`diagonal_a`) (entries >= 0,
  /// the covariance scheme the paper adopts). `sample` supplies rows for
  /// the principal-basis fit (a deterministic subsample is used when large);
  /// `k` is the output dimensionality, clamped to [1, dim].
  [[nodiscard]] static Projector FitDiagonal(const Vector& diagonal_a,
                                             const FlatView& sample, int k);

  /// Projector for a full symmetric PSD metric `a`. Falls back to the
  /// spectral-floor whitener sqrt(λ_lower)·I (Gershgorin bound) when the
  /// eigendecomposition of `a` diverges — looser but still contractive.
  [[nodiscard]] static Projector Fit(const Matrix& a, const FlatView& sample,
                                     int k);

  /// True when the factory certified the contractive bound for the metric
  /// it was given. Diagonal metrics always certify (entries are checked
  /// non-negative and their quadratic form accumulates without
  /// cancellation). A full metric certifies only when its spectrum is
  /// strictly positive with λ_min >= 1e-12·λ_max: an indefinite or
  /// worse-conditioned `a` can round its *exact* full-dimension form to
  /// <= 0 for distinct points, in which case no non-negative reduced
  /// distance is a valid lower bound and callers must not prune with this
  /// projector (Project then yields all-zero coordinates).
  [[nodiscard]] bool contractive() const { return contractive_; }

  int input_dim() const { return p_.cols(); }
  int output_dim() const { return p_.rows(); }

  /// Writes the output_dim() projected coordinates of the raw point `x`
  /// (input_dim() doubles) into `out`.
  void Project(const double* x, double* out) const;

  /// Convenience wrapper over the raw-pointer entry point.
  Vector Project(const Vector& x) const;

 private:
  Projector(Matrix p, bool contractive)
      : p_(std::move(p)), contractive_(contractive) {}

  /// Shared tail of the factories: fits the principal basis of the
  /// whitened sample and composes it with the whitener.
  [[nodiscard]] static Projector Compose(const Matrix& whitener,
                                         const FlatView& sample, int k);

  Matrix p_;  ///< k × dim row-major map G_k' A^{1/2}.
  bool contractive_ = true;
};

}  // namespace qcluster::linalg

#endif  // QCLUSTER_LINALG_PCA_H_
