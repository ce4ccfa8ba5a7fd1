#ifndef QCLUSTER_INDEX_BR_TREE_H_
#define QCLUSTER_INDEX_BR_TREE_H_

#include <cstdint>
#include <vector>

#include "index/knn.h"

namespace qcluster::index {

/// A bounding-rectangle tree for k-NN search under arbitrary distance
/// functions, standing in for the hybrid tree [6] the paper indexes its
/// feature vectors with.
///
/// The tree is bulk-loaded by recursive median splits on the widest
/// dimension (the balanced KD-style space partitioning the hybrid tree also
/// produces); every node stores the bounding rectangle of its subtree, and
/// search is the classic best-first traversal ordered by
/// `DistanceFunction::MinDistance` on rectangles.
///
/// Relevance-feedback refinement support: consecutive feedback iterations
/// issue *similar* queries, and the multipoint approach of [7] amortizes
/// work by reusing index information across iterations. The shared
/// `index::WarmStart` session cache keeps the leaf pages the previous
/// iterations fetched and their points, tagged with this tree's identity.
/// SearchWarm re-scores those points first — one batched kernel call, or
/// free on an exact metric-key match — and starts the descent with the k
/// best of them, whose k-th distance θ₀ bounds the true k-th distance. That
/// prunes most node expansions of the refined query, and a cached leaf is
/// never read again (Fig. 7's cost comparison). A fetched leaf is scored
/// with one DistanceBatch call.
class BrTree final : public KnnIndex {
 public:
  struct Options {
    int leaf_size = 32;  ///< Maximum points per leaf.
  };

  /// Bulk-loads the tree over `points` (kept alive by the caller).
  BrTree(const std::vector<linalg::Vector>* points, const Options& options);

  /// Bulk-loads with default options.
  explicit BrTree(const std::vector<linalg::Vector>* points)
      : BrTree(points, Options{}) {}

  int size() const override { return static_cast<int>(points_->size()); }

  [[nodiscard]] std::vector<Neighbor> Search(
      const DistanceFunction& dist, int k,
      SearchStats* stats = nullptr) const override;

  /// Best-first search warm-started from `warm`. It runs cold when the
  /// cache holds fewer than k points or was not recorded by this tree (or a
  /// copy of it). On return the cache holds every leaf page fetched so far
  /// in the session and those pages' points, ready for the next
  /// refinement step.
  [[nodiscard]] std::vector<Neighbor> SearchWarm(
      const DistanceFunction& dist, int k, WarmStart& warm,
      SearchStats* stats = nullptr) const override;

  /// Number of tree nodes (for tests).
  int node_count() const { return static_cast<int>(nodes_.size()); }

 private:
  friend class IncrementalKnn;

  struct Node {
    Rect rect;
    int left = -1;    ///< Child index, -1 for leaves.
    int right = -1;
    int begin = 0;    ///< Range in ids_ (leaves only).
    int end = 0;
    bool IsLeaf() const { return left < 0; }
  };

  int Build(int begin, int end, int leaf_size);

  /// Shared traversal body. `seed` (nullable) fills the heap with its k
  /// smallest candidates before the descent; `cached_leaves` (ascending,
  /// non-null iff `seed` is) lists the leaf pages whose points are the
  /// seed's, skipped without IO. `fetched` / `fetched_leaves` (nullable)
  /// collect the points this call scored and the leaves it read.
  std::vector<Neighbor> SearchImpl(const DistanceFunction& dist, int k,
                                   const WarmStart::Seed* seed,
                                   const std::vector<int>* cached_leaves,
                                   std::vector<Neighbor>* fetched,
                                   std::vector<int>* fetched_leaves,
                                   SearchStats* stats) const;

  const std::vector<linalg::Vector>* points_;
  /// Process-unique identity, the owner tag of the WarmStart payloads this
  /// tree records. Unlike `this`, it is never reused by a later tree at
  /// the same address.
  std::uint64_t tree_id_;
  std::vector<int> ids_;       ///< Point ids, permuted so leaves are ranges.
  std::vector<Node> nodes_;
  int root_ = -1;
};

}  // namespace qcluster::index

#endif  // QCLUSTER_INDEX_BR_TREE_H_
