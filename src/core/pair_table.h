#ifndef QCLUSTER_CORE_PAIR_TABLE_H_
#define QCLUSTER_CORE_PAIR_TABLE_H_

#include <cstddef>
#include <limits>
#include <vector>

#include "common/check.h"

namespace qcluster::core {

/// The pair quantity of every cluster pair (i < j) of a shrinking cluster
/// list, kept in one flat g×g buffer (row i holds the pairs (i, j > i)).
/// Agglomerative loops (Algorithm 1 step 1, Algorithm 3) merge the closest
/// pair and repeat; a merge changes only the merged cluster, so after
/// `clusters[i]` absorbs `clusters[j]` and `clusters[j]` is erased, only
/// row i needs `pair` again. Every entry therefore always equals
/// `pair(i, j)` on the current list, and a full rescan would read the same
/// values.
class PairTable {
 public:
  /// Fills the table for a list of `g` clusters; `pair(i, j)` is called
  /// with i < j.
  template <typename PairFn>
  PairTable(int g, PairFn&& pair)
      : stride_(static_cast<std::size_t>(g)),
        g_(stride_),
        values_(stride_ * stride_, 0.0) {
    for (std::size_t i = 0; i < g_; ++i) {
      for (std::size_t j = i + 1; j < g_; ++j) {
        at(i, j) = pair(static_cast<int>(i), static_cast<int>(j));
      }
    }
  }

  /// The first pair in (i, j) order whose value is strictly below every
  /// earlier one. Returns false when no value is below +∞ (every value NaN
  /// or infinite), in which case `*i` and `*j` are left untouched.
  bool Closest(int* i, int* j, double* value) const {
    double best = std::numeric_limits<double>::infinity();
    bool found = false;
    for (std::size_t r = 0; r < g_; ++r) {
      for (std::size_t c = r + 1; c < g_; ++c) {
        if (at(r, c) < best) {
          best = at(r, c);
          *i = static_cast<int>(r);
          *j = static_cast<int>(c);
          found = true;
        }
      }
    }
    *value = best;
    return found;
  }

  /// Follows `clusters[i] = merge(i, j); clusters.erase(j)`: drops row and
  /// column j, then recomputes row i with `pair` on the updated list.
  template <typename PairFn>
  void Merge(int i, int j, PairFn&& pair) {
    QCLUSTER_CHECK(0 <= i && i < j && static_cast<std::size_t>(j) < g_);
    const auto uj = static_cast<std::size_t>(j);
    // Compact in increasing flat order: every destination sits at or before
    // its source, so no unread entry is overwritten.
    for (std::size_t r = 0; r < g_; ++r) {
      if (r == uj) continue;
      const std::size_t dr = r < uj ? r : r - 1;
      for (std::size_t c = r + 1; c < g_; ++c) {
        if (c == uj) continue;
        at(dr, c < uj ? c : c - 1) = at(r, c);
      }
    }
    --g_;
    const auto ui = static_cast<std::size_t>(i);
    for (std::size_t k = 0; k < g_; ++k) {
      if (k < ui) at(k, ui) = pair(static_cast<int>(k), i);
      if (k > ui) at(ui, k) = pair(i, static_cast<int>(k));
    }
  }

 private:
  double& at(std::size_t i, std::size_t j) { return values_[i * stride_ + j]; }
  double at(std::size_t i, std::size_t j) const {
    return values_[i * stride_ + j];
  }

  std::size_t stride_;
  std::size_t g_;
  std::vector<double> values_;
};

}  // namespace qcluster::core

#endif  // QCLUSTER_CORE_PAIR_TABLE_H_
