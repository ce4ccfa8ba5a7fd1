#include "index/br_tree.h"

#include <algorithm>
#include <atomic>
#include <queue>
#include <utility>

#include "common/check.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "index/linear_scan.h"

namespace qcluster::index {

using linalg::Vector;

namespace {

std::uint64_t NextTreeId() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

BrTree::BrTree(const std::vector<Vector>* points, const Options& options)
    : points_(points), tree_id_(NextTreeId()) {
  QCLUSTER_CHECK(points != nullptr);
  QCLUSTER_CHECK(options.leaf_size >= 1);
  ids_.resize(points_->size());
  for (std::size_t i = 0; i < ids_.size(); ++i) ids_[i] = static_cast<int>(i);
  if (!points_->empty()) {
    root_ = Build(0, static_cast<int>(ids_.size()), options.leaf_size);
  }
}

int BrTree::Build(int begin, int end, int leaf_size) {
  QCLUSTER_CHECK(begin < end);
  const int dim = static_cast<int>(points_->front().size());

  Rect rect = Rect::Empty(dim);
  for (int i = begin; i < end; ++i) {
    rect.Expand((*points_)[static_cast<std::size_t>(
        ids_[static_cast<std::size_t>(i)])]);
  }

  const int node_index = static_cast<int>(nodes_.size());
  nodes_.push_back(Node{});
  nodes_[static_cast<std::size_t>(node_index)].rect = rect;

  if (end - begin <= leaf_size) {
    Node& node = nodes_[static_cast<std::size_t>(node_index)];
    node.begin = begin;
    node.end = end;
    return node_index;
  }

  // Split on the widest dimension at the median.
  int split_dim = 0;
  double widest = -1.0;
  for (int d = 0; d < dim; ++d) {
    const double extent = rect.hi[static_cast<std::size_t>(d)] -
                          rect.lo[static_cast<std::size_t>(d)];
    if (extent > widest) {
      widest = extent;
      split_dim = d;
    }
  }
  const int mid = begin + (end - begin) / 2;
  std::nth_element(
      ids_.begin() + begin, ids_.begin() + mid, ids_.begin() + end,
      [this, split_dim](int a, int b) {
        return (*points_)[static_cast<std::size_t>(a)]
                   [static_cast<std::size_t>(split_dim)] <
               (*points_)[static_cast<std::size_t>(b)]
                   [static_cast<std::size_t>(split_dim)];
      });

  const int left = Build(begin, mid, leaf_size);
  const int right = Build(mid, end, leaf_size);
  nodes_[static_cast<std::size_t>(node_index)].left = left;
  nodes_[static_cast<std::size_t>(node_index)].right = right;
  return node_index;
}

std::vector<Neighbor> BrTree::Search(const DistanceFunction& dist, int k,
                                     SearchStats* stats) const {
  return SearchImpl(dist, k, nullptr, nullptr, nullptr, nullptr, stats);
}

std::vector<Neighbor> BrTree::SearchWarm(const DistanceFunction& dist, int k,
                                         WarmStart& warm,
                                         SearchStats* stats) const {
  // Only a cache this tree recorded seeds it: its points are then exactly
  // the members of its cached leaves (leaves partition ids_), so skipping
  // those leaves after the seed neither loses nor repeats a point. Any
  // other cache runs cold and is replaced below; θ₀ only ever prunes, so
  // the results are the same either way.
  WarmStart::Seed seed;
  if (warm.leaf_owner() == tree_id_) seed = warm.Reseed(dist, k, *points_);
  const bool seeded = seed.valid();
  std::vector<Neighbor> fetched;
  std::vector<int> leaves;
  SearchStats call_stats;
  std::vector<Neighbor> result = SearchImpl(
      dist, k, seeded ? &seed : nullptr, seeded ? &warm.leaves() : nullptr,
      &fetched, &leaves, &call_stats);
  if (stats != nullptr) *stats += call_stats;
  double pruned_frac = -1.0;
  if (seeded && !points_->empty()) {
    // Fraction of the database never evaluated this round — tree pruning
    // plus the leaf pages the cache made free.
    const auto n = static_cast<double>(points_->size());
    pruned_frac = (n - static_cast<double>(call_stats.distance_evaluations)) /
                  n;
  }
  FinishWarmSearch("index.br_tree", seed, result, pruned_frac);
  // The next round's cache: the cached leaves plus the ones read now, and
  // all of their points.
  std::vector<Neighbor> cache;
  if (seeded) {
    cache = std::move(seed.scored);
    cache.insert(cache.end(), fetched.begin(), fetched.end());
    leaves.insert(leaves.end(), warm.leaves().begin(), warm.leaves().end());
  } else {
    cache = std::move(fetched);
  }
  std::sort(leaves.begin(), leaves.end());
  warm.Record(dist, cache);
  warm.SetLeaves(tree_id_, std::move(leaves));
  return result;
}

std::vector<Neighbor> BrTree::SearchImpl(
    const DistanceFunction& dist, int k, const WarmStart::Seed* seed,
    const std::vector<int>* cached_leaves, std::vector<Neighbor>* fetched,
    std::vector<int>* fetched_leaves, SearchStats* stats) const {
  QCLUSTER_CHECK(k > 0);
  if (root_ < 0) return {};
  QCLUSTER_TRACE_SPAN(span, "index.br_tree.search");
  span.AddAttr("index", "br_tree");
  span.AddAttr("k", k);
  span.AddAttr("warm", seed != nullptr ? 1 : 0);
  QCLUSTER_TIMED("index.br_tree.search");
  SearchStats local;
  long long cached_leaves_skipped = 0;

  BoundedTopK best(k);
  // Warm start: the seed's first k entries are the k smallest cached
  // candidates, already re-scored under this round's metric. They are the
  // heap that offering every cached candidate would build, so the descent
  // starts with the k-th distance at θ₀.
  if (seed != nullptr) {
    for (int i = 0; i < k; ++i) {
      best.Push(seed->scored[static_cast<std::size_t>(i)]);
    }
    local.distance_evaluations += seed->evaluations;
  }

  // Best-first traversal ordered by rectangle lower bounds.
  struct Entry {
    double bound;
    int node;
  };
  const auto entry_cmp = [](const Entry& a, const Entry& b) {
    return a.bound > b.bound;
  };
  std::priority_queue<Entry, std::vector<Entry>, decltype(entry_cmp)> frontier(
      entry_cmp);
  frontier.push(
      Entry{dist.MinDistance(nodes_[static_cast<std::size_t>(root_)].rect),
            root_});

  while (!frontier.empty()) {
    const Entry entry = frontier.top();
    frontier.pop();
    if (entry.bound > best.KthDistance()) break;  // Nothing closer remains.
    const Node& node = nodes_[static_cast<std::size_t>(entry.node)];
    ++local.nodes_visited;
    if (node.IsLeaf()) {
      // A leaf whose page is in the iteration cache costs no IO, and its
      // points were already in the seed.
      if (cached_leaves != nullptr &&
          std::binary_search(cached_leaves->begin(), cached_leaves->end(),
                             entry.node)) {
        ++cached_leaves_skipped;
        continue;
      }
      ++local.leaves_visited;
      if (fetched_leaves != nullptr) fetched_leaves->push_back(entry.node);
      const int* page = ids_.data() + node.begin;
      const auto count = static_cast<std::size_t>(node.end - node.begin);
      thread_local std::vector<double> scores;
      scores.resize(count);
      ScoreRows(dist, *points_, page, count, scores.data());
      for (std::size_t j = 0; j < count; ++j) {
        const Neighbor n{page[j], scores[j]};
        best.Push(n);
        if (fetched != nullptr) fetched->push_back(n);
      }
      local.distance_evaluations += static_cast<long long>(count);
    } else {
      for (int child : {node.left, node.right}) {
        const double bound =
            dist.MinDistance(nodes_[static_cast<std::size_t>(child)].rect);
        if (bound <= best.KthDistance()) frontier.push(Entry{bound, child});
      }
    }
  }

  std::vector<Neighbor> result = std::move(best).TakeSorted();
  span.AddAttr("nodes_visited", local.nodes_visited);
  span.AddAttr("leaves_fetched", local.leaves_visited);
  span.AddAttr("cached_leaves_skipped", cached_leaves_skipped);
  if (seed != nullptr && MetricsEnabled()) {
    MetricAdd("index.br_tree.warm_searches");
    MetricAdd("index.br_tree.warm.leaf_hits", cached_leaves_skipped);
    MetricAdd("index.br_tree.warm.leaf_misses", local.leaves_visited);
  }
  FinishSearch("index.br_tree", local, stats);
  return result;
}

}  // namespace qcluster::index
