#ifndef QCLUSTER_PERFBENCH_PROBES_H_
#define QCLUSTER_PERFBENCH_PROBES_H_

// Measurement and checking helpers of the session benchmark. Everything
// here observes the library from outside: it wraps or re-issues calls to
// public functions and never reaches into private state.

#include <chrono>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "core/cluster.h"
#include "core/engine.h"
#include "core/merging.h"
#include "index/knn.h"
#include "linalg/flat_view.h"

namespace qcluster::perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds between two steady_clock readings.
inline std::int64_t ElapsedNs(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin)
      .count();
}

/// Forwarding KnnIndex decorator that times every search from outside the
/// wrapped index and, while tracing is on, records a "bench.index_search"
/// span around it. The engine calls the index on the session's thread, so
/// the time of the calling thread's last search is kept thread-locally:
/// concurrent sessions sharing one decorator read only their own numbers.
class TimedIndex final : public index::KnnIndex {
 public:
  explicit TimedIndex(const index::KnnIndex* inner) : inner_(inner) {}

  int size() const override { return inner_->size(); }
  [[nodiscard]] std::vector<index::Neighbor> Search(
      const index::DistanceFunction& dist, int k,
      index::SearchStats* stats = nullptr) const override;
  [[nodiscard]] std::vector<index::Neighbor> SearchWarm(
      const index::DistanceFunction& dist, int k, index::WarmStart& warm,
      index::SearchStats* stats = nullptr) const override;

  /// Wall time of the calling thread's most recent search, in ns.
  static std::int64_t last_search_ns();

 private:
  const index::KnnIndex* inner_;
};

/// Order-sensitive FNV-1a hash of a ranking's ids and distance bits: two
/// rankings hash equal iff they are (up to collisions) byte-identical.
std::uint64_t HashRanking(const std::vector<index::Neighbor>& ranking);

/// True when `ranking` is a well-formed answer: exactly min(k, n) entries,
/// every distance finite, sorted by (distance, id).
bool ValidRanking(const std::vector<index::Neighbor>& ranking, int k, int n);

/// True when the two rankings hold the same ids with bit-identical
/// distances, in the same order.
bool SameRanking(const std::vector<index::Neighbor>& a,
                 const std::vector<index::Neighbor>& b);

/// True when two cluster lists hold bit-identical summaries and members.
bool SameClusters(const std::vector<core::Cluster>& a,
                  const std::vector<core::Cluster>& b);

/// The variance floor QclusterEngine derives from `clusters` (its
/// adaptive shrinkage rule, recomputed from the public statistics).
double VarianceFloor(const std::vector<core::Cluster>& clusters,
                     const core::QclusterOptions& options);

/// Arguments of the distribution quantiles a round's classify and merge
/// passes evaluate: (α, p) for χ² and (α, p, dof₂) for F.
struct QuantileArgs {
  struct Chi2 {
    double alpha;
    double dof;
  };
  struct F {
    double alpha;
    double d1;
    double d2;
  };
  std::vector<Chi2> chi2;
  std::vector<F> f;
};

/// Per-phase outcome of re-running one feedback round's clustering steps.
struct ReplayOutcome {
  bool matches = false;    ///< Reproduced the session's post-round clusters.
  bool hierarchical = false;  ///< Round 1: hierarchical clustering ran.
  bool classified = false;    ///< Later round: the classifier ran.
  std::int64_t hierarchical_ns = 0;
  std::int64_t classify_ns = 0;
  std::int64_t merge_ns = 0;
  int new_clusters = 0;  ///< Points that founded a new cluster.
  core::MergeReport merge;
};

/// Re-runs one QclusterEngine::Feedback round's cluster update through the
/// public stage functions — HierarchicalCluster on round 1, ClassifyBatch
/// afterwards, the variance floor, MergeClusters, and the DisjunctiveDistance
/// the engine queries with — starting from the pre-round snapshot `before`.
/// `seen` carries the ids already absorbed by earlier rounds and is updated.
/// Each stage is spanned while tracing is on; the clustering stages are also
/// timed. The result matches when the replayed clusters equal `after` bit
/// for bit.
ReplayOutcome ReplayRound(const std::vector<linalg::Vector>& features,
                          const core::QclusterOptions& options,
                          const std::vector<core::Cluster>& before,
                          const std::vector<core::RelevantItem>& marked,
                          const std::vector<core::Cluster>& after,
                          std::unordered_set<int>& seen, QuantileArgs* args);

}  // namespace qcluster::perfbench

#endif  // QCLUSTER_PERFBENCH_PROBES_H_
