// Session benchmark: relevance-feedback round latency end to end, split by
// layer. One session is an initial query plus kRounds feedback rounds at
// k = kK, judged by eval::OracleUser, driven through core::RetrievalSession
// over a dataset::FeatureDatabase and a KnnIndex, in a closed loop (each
// client sends its next call only after the previous one returned).
//
// The work is a fixed "pass" of sessions whose query images are drawn from
// --seed; passes repeat until --seconds have elapsed, so both sides of a
// comparison run identical passes. --trace 0 prints the end-to-end metrics;
// --trace 1 runs the same passes untraced and then traced (with the
// benchmark's own spans recorded through common/trace) and prints the
// per-layer metrics. Every call's answer is checked; see README.md.
//
// Usage: session_bench --workload NAME --seed N --seconds S --trace 0|1
//                      [--trace-out chrome_trace.json]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/disjunctive_distance.h"
#include "core/session.h"
#include "dataset/feature_database.h"
#include "eval/metrics.h"
#include "eval/oracle.h"
#include "index/br_tree.h"
#include "index/linear_scan.h"
#include "probes.h"
#include "stats/distributions.h"

namespace qcluster::perfbench {
namespace {

constexpr int kRounds = 5;
/// Seed of every workload's collection. The collections are fixed and
/// --seed draws the sessions' query images: rebuilding the collection per
/// seed moved paper-color's throughput by up to ±30% between seeds, which
/// would hide any change the bounds are meant to catch.
constexpr std::uint64_t kCollectionSeed = 20030609;
constexpr int kK = 100;
/// Set-up runs at least kMinSetupRepeats times, and more while the repeats
/// so far took under kSetupSeconds; set-up metrics are the median.
constexpr int kMinSetupRepeats = 3;
constexpr int kMaxSetupRepeats = 15;
constexpr double kSetupSeconds = 3.0;
/// Untimed sessions run for this long before the first timed pass: the
/// first second after set-up runs up to 3x slower (cold caches, thread
/// wake-up). Warm-up repeats the pass's first kWarmupSessions sessions.
constexpr double kWarmupSeconds = 1.5;
constexpr int kWarmupSessions = 16;
/// Traced passes run in chunks of this many sessions; the first chunk is
/// the one exported as Chrome trace JSON.
constexpr int kTraceChunkSessions = 50;
/// Untraced passes run in blocks of this many sessions, and end-to-end
/// timings are medians over blocks. 1,000 rounds per block leave 10 samples
/// beyond each block's p99.
constexpr int kBlockSessions = 200;
/// Self times of the traced layers must explain at least this share of
/// Feedback time on the single-client workloads.
constexpr double kMinCoverage = 0.9;

int HardwareThreads() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

enum class Kind { kPaperColor, kWideScan, kConcurrentSessions };

struct Workload {
  Kind kind;
  const char* name;
  int clients;
  /// Sessions per pass (the fixed unit of work).
  int pass_sessions;
  /// Sessions of the first pass the untraced run re-checks against the
  /// cold serial reference engine.
  int reference_sessions;
  /// Rounds of the first traced pass the kernel and pool probes re-score.
  int probe_rounds;
};

std::optional<Workload> FindWorkload(const std::string& name) {
  const int clients = std::max(2, HardwareThreads() / 2);
  const Workload all[] = {
      {Kind::kPaperColor, "paper-color", 1, 2000, 24, 60},
      {Kind::kWideScan, "wide-scan", 1, 200, 4, 12},
      {Kind::kConcurrentSessions, "concurrent-sessions", clients, 2000, 24,
       60},
  };
  for (const Workload& w : all) {
    if (name == w.name) return w;
  }
  return std::nullopt;
}

// ----------------------------------------------------------------------
// Set-up: collection, features, index.

/// The d = 32 Gaussian-mixture collection of wide-scan: themes of related
/// categories, each category a mixture of two modes (the disjoint-cluster
/// structure Qcluster targets), 200 categories × 200 points. At 100k points
/// (25 MB) the scan was memory-bound and its run-to-run spread on a shared
/// host reached 0.32 of the median; 40k points (10 MB) stay well beyond L2.
dataset::FeatureDatabase GaussianMixture() {
  constexpr int kDim = 32;
  constexpr int kThemes = 40;
  constexpr int kCategoriesPerTheme = 5;
  constexpr int kPointsPerCategory = 200;
  constexpr int kModes = 2;
  // Per-dimension standard deviations of each level around its parent.
  // Categories of one theme overlap a little, so results mix related
  // categories and later rounds classify new points.
  constexpr double kThemeSpread = 4.0;
  constexpr double kCategorySpread = 0.8;
  constexpr double kModeSpread = 0.6;
  constexpr double kPointSpread = 0.7;
  Rng rng(kCollectionSeed);
  auto around = [&rng](const linalg::Vector& center, double spread) {
    linalg::Vector v(center.size());
    for (std::size_t d = 0; d < v.size(); ++d) {
      v[d] = center[d] + spread * rng.Gaussian();
    }
    return v;
  };
  const linalg::Vector origin(kDim, 0.0);
  std::vector<linalg::Vector> raw;
  std::vector<int> categories;
  std::vector<int> themes;
  const std::size_t n = static_cast<std::size_t>(kThemes) *
                        kCategoriesPerTheme * kPointsPerCategory;
  raw.reserve(n);
  categories.reserve(n);
  themes.reserve(n);
  for (int t = 0; t < kThemes; ++t) {
    const linalg::Vector theme_center = around(origin, kThemeSpread);
    for (int c = 0; c < kCategoriesPerTheme; ++c) {
      const linalg::Vector category_center =
          around(theme_center, kCategorySpread);
      std::vector<linalg::Vector> modes;
      for (int m = 0; m < kModes; ++m) {
        modes.push_back(around(category_center, kModeSpread));
      }
      for (int i = 0; i < kPointsPerCategory; ++i) {
        raw.push_back(
            around(modes[static_cast<std::size_t>(i % kModes)], kPointSpread));
        categories.push_back(t * kCategoriesPerTheme + c);
        themes.push_back(t);
      }
    }
  }
  return dataset::FeatureDatabase::FromRawFeatures(
      std::move(raw), std::move(categories), std::move(themes), kDim);
}

dataset::FeatureDatabase BuildCollection(Kind kind) {
  if (kind == Kind::kWideScan) return GaussianMixture();
  // The paper's Fig. 7 collection: 300 categories × 100 synthetic images,
  // nine color moments PCA-reduced to d = 3.
  dataset::ImageCollectionOptions options;
  options.seed = kCollectionSeed;
  const dataset::ImageCollection collection(options);
  return dataset::FeatureDatabase::Build(collection,
                                         dataset::FeatureType::kColorMoments);
}

struct Fixture {
  std::unique_ptr<dataset::FeatureDatabase> db;
  std::unique_ptr<ThreadPool> pool;  ///< wide-scan's own scan pool.
  std::unique_ptr<index::KnnIndex> index;
  double collection_s = 0.0;
  double build_s = 0.0;
};

Fixture BuildFixture(const Workload& w) {
  Fixture f;
  const Clock::time_point t0 = Clock::now();
  f.db = std::make_unique<dataset::FeatureDatabase>(
      BuildCollection(w.kind));
  const Clock::time_point t1 = Clock::now();
  if (w.kind == Kind::kWideScan) {
    f.pool = std::make_unique<ThreadPool>(HardwareThreads());
    f.index = std::make_unique<index::LinearScanIndex>(f.db->flat_view(),
                                                       f.pool.get());
  } else {
    f.index = std::make_unique<index::BrTree>(&f.db->features());
  }
  const Clock::time_point t2 = Clock::now();
  f.collection_s = static_cast<double>(ElapsedNs(t0, t1)) * 1e-9;
  f.build_s = static_cast<double>(ElapsedNs(t1, t2)) * 1e-9;
  return f;
}

double ResidentMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// ----------------------------------------------------------------------
// Statistics helpers.

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ----------------------------------------------------------------------
// Sessions.

/// Everything one session did, kept for checking after the timed calls.
struct SessionLog {
  int query = -1;
  std::vector<index::Neighbor> initial;
  std::vector<std::vector<core::RelevantItem>> marks;
  std::vector<std::vector<index::Neighbor>> results;
  double busy_s = 0.0;  ///< Start + Judge + Feedback time only.
  // Traced passes only: post-round cluster snapshots, the session's
  // recorded search costs and warm-start cache sizes.
  std::vector<std::vector<core::Cluster>> clusters;
  std::vector<index::SearchStats> search_stats;
  std::vector<int> warm_candidates;
};

struct Samples {
  std::vector<double> initial_ms;
  std::vector<double> round_ms;
  std::vector<double> update_us;  ///< Feedback minus its index search.
  std::vector<double> search_us;

  void Append(const Samples& o) {
    initial_ms.insert(initial_ms.end(), o.initial_ms.begin(),
                      o.initial_ms.end());
    round_ms.insert(round_ms.end(), o.round_ms.begin(), o.round_ms.end());
    update_us.insert(update_us.end(), o.update_us.begin(), o.update_us.end());
    search_us.insert(search_us.end(), o.search_us.begin(),
                     o.search_us.end());
  }
};

/// Outcome of re-running traced rounds through the stage functions.
struct ReplayStats {
  std::vector<double> hierarchical_us;
  std::vector<double> classify_us;
  std::vector<double> merge_us;
  long long rounds = 0;
  long long classified_rounds = 0;
  long long new_clusters = 0;
  long long merges = 0;
  long long forced_merges = 0;
  long long mismatches = 0;
  QuantileArgs args;

  void Append(const ReplayStats& o) {
    hierarchical_us.insert(hierarchical_us.end(), o.hierarchical_us.begin(),
                           o.hierarchical_us.end());
    classify_us.insert(classify_us.end(), o.classify_us.begin(),
                       o.classify_us.end());
    merge_us.insert(merge_us.end(), o.merge_us.begin(), o.merge_us.end());
    rounds += o.rounds;
    classified_rounds += o.classified_rounds;
    new_clusters += o.new_clusters;
    merges += o.merges;
    forced_merges += o.forced_merges;
    mismatches += o.mismatches;
    args.chi2.insert(args.chi2.end(), o.args.chi2.begin(), o.args.chi2.end());
    args.f.insert(args.f.end(), o.args.f.begin(), o.args.f.end());
  }
};

struct Context {
  const Workload* workload;
  const dataset::FeatureDatabase* db;
  const TimedIndex* index;
  const eval::OracleUser* oracle;
  core::QclusterOptions options;
  std::vector<int> queries;  ///< One query image per pass session.
};

double UsFromNs(std::int64_t ns) { return static_cast<double>(ns) * 1e-3; }

SessionLog RunSession(const Context& ctx, int query, bool traced,
                      Samples* samples) {
  const std::vector<linalg::Vector>& features = ctx.db->features();
  const int category = ctx.db->categories()[static_cast<std::size_t>(query)];
  const int theme = ctx.db->themes()[static_cast<std::size_t>(query)];
  core::RetrievalSession session(&features, ctx.index, ctx.options);
  SessionLog log;
  log.query = query;

  Clock::time_point begin = Clock::now();
  {
    trace::ScopedSpan span("bench.start");
    log.initial = session.Start(features[static_cast<std::size_t>(query)]);
  }
  Clock::time_point end = Clock::now();
  std::int64_t busy_ns = ElapsedNs(begin, end);
  samples->initial_ms.push_back(static_cast<double>(busy_ns) * 1e-6);
  samples->search_us.push_back(UsFromNs(TimedIndex::last_search_ns()));

  const std::vector<index::Neighbor>* current = &log.initial;
  for (int r = 0; r < kRounds; ++r) {
    begin = Clock::now();
    std::vector<core::RelevantItem> marks =
        ctx.oracle->Judge(*current, category, theme);
    const Clock::time_point judged = Clock::now();
    std::vector<index::Neighbor> result;
    {
      trace::ScopedSpan span("bench.round");
      result = session.Feedback(marks);
    }
    end = Clock::now();
    busy_ns += ElapsedNs(begin, end);
    const std::int64_t round_ns = ElapsedNs(judged, end);
    const std::int64_t search_ns = TimedIndex::last_search_ns();
    samples->round_ms.push_back(static_cast<double>(round_ns) * 1e-6);
    samples->update_us.push_back(UsFromNs(round_ns - search_ns));
    samples->search_us.push_back(UsFromNs(search_ns));
    log.marks.push_back(std::move(marks));
    log.results.push_back(std::move(result));
    current = &log.results.back();
    if (traced) {
      {
        trace::ScopedSpan span("bench.session_snapshot");
        log.clusters.push_back(session.clusters());
      }
      log.warm_candidates.push_back(session.warm_candidates());
    }
  }
  log.busy_s = static_cast<double>(busy_ns) * 1e-9;
  if (traced) {
    for (const core::SessionRound& round : session.history()) {
      log.search_stats.push_back(round.search_stats);
    }
  }
  return log;
}

/// Recall@k of the session's final ranking (the query's category is the
/// ground truth).
double FinalRecall(const Context& ctx, const SessionLog& log) {
  const int category =
      ctx.db->categories()[static_cast<std::size_t>(log.query)];
  return eval::RecallAt(
      log.results.back(), kK, ctx.oracle->CategorySize(category),
      [&](int id) { return ctx.oracle->IsRelevant(id, category); });
}

/// Number of calls of `log` whose answer differs from a cold engine
/// (use_query_cache off) over a serial linear scan fed the same marks.
int ReferenceMismatches(const Context& ctx, const SessionLog& log) {
  ThreadPool serial(1);
  const index::LinearScanIndex scan(ctx.db->flat_view(), &serial);
  core::QclusterOptions options = ctx.options;
  options.use_query_cache = false;
  core::QclusterEngine engine(&ctx.db->features(), &scan, options);
  int mismatches = 0;
  const linalg::Vector& query =
      ctx.db->features()[static_cast<std::size_t>(log.query)];
  if (!SameRanking(engine.InitialQuery(query), log.initial)) ++mismatches;
  for (std::size_t r = 0; r < log.marks.size(); ++r) {
    if (!SameRanking(engine.Feedback(log.marks[r]), log.results[r])) {
      ++mismatches;
    }
  }
  return mismatches;
}

void ReplaySession(const Context& ctx, const SessionLog& log,
                   ReplayStats* out) {
  std::unordered_set<int> seen;
  const std::vector<core::Cluster> none;
  for (std::size_t r = 0; r < log.marks.size(); ++r) {
    const std::vector<core::Cluster>& before =
        r == 0 ? none : log.clusters[r - 1];
    const ReplayOutcome o =
        ReplayRound(ctx.db->features(), ctx.options, before, log.marks[r],
                    log.clusters[r], seen, &out->args);
    ++out->rounds;
    if (!o.matches) ++out->mismatches;
    if (o.hierarchical) {
      out->hierarchical_us.push_back(UsFromNs(o.hierarchical_ns));
    }
    if (o.classified) {
      ++out->classified_rounds;
      out->classify_us.push_back(UsFromNs(o.classify_ns));
      out->new_clusters += o.new_clusters;
    }
    out->merge_us.push_back(UsFromNs(o.merge_ns));
    out->merges += o.merge.merges;
    out->forced_merges += o.merge.forced_merges;
  }
}

struct Pass {
  double wall_s = 0.0;
  std::vector<SessionLog> logs;
  Samples samples;
  ReplayStats replay;
  long long reference_calls = 0;
  long long reference_mismatches = 0;

  void Append(Pass&& o) {
    wall_s += o.wall_s;
    for (SessionLog& log : o.logs) logs.push_back(std::move(log));
    samples.Append(o.samples);
    replay.Append(o.replay);
    reference_calls += o.reference_calls;
    reference_mismatches += o.reference_mismatches;
  }
};

/// Runs sessions [first, last) of the pass on the workload's clients;
/// client c takes every clients-th session from first + c. A traced run
/// also replays and reference-checks each session right after it ends, on
/// its client.
Pass RunPass(const Context& ctx, int first, int last, bool traced) {
  const int clients = ctx.workload->clients;
  const int count = last - first;
  Pass pass;
  pass.logs.resize(static_cast<std::size_t>(count));
  std::vector<Samples> samples(static_cast<std::size_t>(clients));
  std::vector<ReplayStats> replays(static_cast<std::size_t>(clients));
  std::vector<long long> ref_calls(static_cast<std::size_t>(clients), 0);
  std::vector<long long> ref_bad(static_cast<std::size_t>(clients), 0);
  auto client = [&](int c) {
    const std::size_t slot = static_cast<std::size_t>(c);
    for (int i = c; i < count; i += clients) {
      SessionLog& log = pass.logs[static_cast<std::size_t>(i)];
      log = RunSession(ctx, ctx.queries[static_cast<std::size_t>(first + i)],
                       traced, &samples[slot]);
      if (!traced) continue;
      ReplaySession(ctx, log, &replays[slot]);
      ref_calls[slot] += 1 + static_cast<long long>(log.marks.size());
      ref_bad[slot] += ReferenceMismatches(ctx, log);
      trace::TraceRecorder::Global().Drain();
    }
  };
  const Clock::time_point begin = Clock::now();
  if (clients == 1) {
    client(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) threads.emplace_back(client, c);
    for (std::thread& t : threads) t.join();
  }
  pass.wall_s = static_cast<double>(ElapsedNs(begin, Clock::now())) * 1e-9;
  for (int c = 0; c < clients; ++c) {
    const std::size_t slot = static_cast<std::size_t>(c);
    pass.samples.Append(samples[slot]);
    pass.replay.Append(replays[slot]);
    pass.reference_calls += ref_calls[slot];
    pass.reference_mismatches += ref_bad[slot];
  }
  return pass;
}

/// Answer checks shared by every pass: each call must return a valid
/// ranking, and repeat the first pass's ranking bit for bit.
struct Checker {
  int n = 0;
  std::vector<std::uint64_t> expected;  ///< Filled by the first pass.
  long long attempted = 0;
  long long failed = 0;

  void Check(const Pass& pass) {
    const bool first = expected.empty();
    std::size_t slot = 0;
    for (const SessionLog& log : pass.logs) {
      auto check = [&](const std::vector<index::Neighbor>& ranking) {
        const std::uint64_t h = HashRanking(ranking);
        bool ok = ValidRanking(ranking, kK, n);
        if (first) {
          expected.push_back(h);
        } else {
          ok = ok && slot < expected.size() && expected[slot] == h;
        }
        ++slot;
        ++attempted;
        if (!ok) ++failed;
      };
      check(log.initial);
      for (const auto& result : log.results) check(result);
    }
  }
};

// ----------------------------------------------------------------------
// Span analysis of the traced passes.

struct SelfTimes {
  double round_ns = 0.0;   ///< Σ bench.round.
  double index_ns = 0.0;   ///< Σ bench.index_search inside a bench.round.
  std::map<std::string, double> replay_ns;  ///< Σ per bench.replay.* name.
};

void AccumulateSelfTimes(const std::vector<trace::SpanRecord>& spans,
                         SelfTimes* out) {
  // Per thread, bench spans in begin order; an index search belongs to the
  // bench.round that encloses it on the same thread.
  std::unordered_map<int, std::vector<const trace::SpanRecord*>> by_thread;
  for (const trace::SpanRecord& s : spans) {
    if (std::strncmp(s.name, "bench.", 6) == 0) {
      by_thread[s.thread_index].push_back(&s);
    }
  }
  for (auto& [thread, list] : by_thread) {
    std::sort(list.begin(), list.end(),
              [](const trace::SpanRecord* a, const trace::SpanRecord* b) {
                return a->begin_ns < b->begin_ns;
              });
    const trace::SpanRecord* round = nullptr;
    for (const trace::SpanRecord* s : list) {
      const double dur = static_cast<double>(s->end_ns - s->begin_ns);
      const std::string name = s->name;
      if (name == "bench.round") {
        round = s;
        out->round_ns += dur;
      } else if (name == "bench.index_search") {
        if (round != nullptr && s->begin_ns >= round->begin_ns &&
            s->end_ns <= round->end_ns) {
          out->index_ns += dur;
        }
      } else if (name.rfind("bench.replay.", 0) == 0 ||
                 name == "bench.session_snapshot") {
        out->replay_ns[name] += dur;
      }
    }
  }
}

// ----------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, long long attempted, long long failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-36s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string trace_out;
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0') return std::nullopt;
    } else if (key == "--trace") {
      args.trace = std::atoi(value);
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || !have_seed || args.seconds <= 0.0 ||
      (args.trace != 0 && args.trace != 1)) {
    return std::nullopt;
  }
  return args;
}

/// Timing figures of one block: kBlockSessions consecutive sessions of a
/// pass, run by all clients.
struct BlockFigures {
  double sessions_per_s;
  double round_p50_ms;
  double round_p99_ms;
  double initial_p50_ms;
};

struct TimedPasses {
  std::vector<Pass> passes;
  std::vector<BlockFigures> blocks;
};

/// Timed passes until `seconds` have elapsed (at least one). Each pass runs
/// block by block.
TimedPasses RunPasses(const Context& ctx, double seconds, Checker* checker) {
  const int count = ctx.workload->pass_sessions;
  TimedPasses out;
  const Clock::time_point begin = Clock::now();
  do {
    Pass pass;
    for (int first = 0; first < count; first += kBlockSessions) {
      Pass block =
          RunPass(ctx, first, std::min(first + kBlockSessions, count), false);
      out.blocks.push_back(
          {static_cast<double>(block.logs.size()) / block.wall_s,
           Percentile(block.samples.round_ms, 0.50),
           Percentile(block.samples.round_ms, 0.99),
           Percentile(block.samples.initial_ms, 0.50)});
      pass.Append(std::move(block));
    }
    checker->Check(pass);
    out.passes.push_back(std::move(pass));
  } while (static_cast<double>(ElapsedNs(begin, Clock::now())) * 1e-9 <
           seconds);
  return out;
}

struct TracedRun {
  std::vector<Pass> untraced;  ///< Baseline of trace.overhead_frac.
  std::vector<Pass> traced;
  SelfTimes self;
  bool ok = true;  ///< Export succeeded and no span was dropped.
};

/// One traced pass. It runs in chunks so the recorder never holds more than
/// one chunk's spans: a whole pass can exceed TraceRecorder::kMaxRetained.
/// The first chunk is exported to `trace_out` (when set) as Chrome trace
/// JSON.
Pass RunTracedPass(const Context& ctx, const std::string& trace_out,
                   TracedRun* run) {
  const int count = ctx.workload->pass_sessions;
  trace::TraceRecorder& recorder = trace::TraceRecorder::Global();
  recorder.Reset();
  trace::SetTracingEnabled(true);
  Pass pass;
  for (int first = 0; first < count; first += kTraceChunkSessions) {
    pass.Append(RunPass(ctx, first,
                        std::min(first + kTraceChunkSessions, count), true));
    recorder.Drain();
    if (first == 0 && !trace_out.empty()) {
      const Status st = recorder.DumpChromeTrace(trace_out);
      if (!st.ok()) {
        std::fprintf(stderr, "trace export failed: %s\n",
                     st.ToString().c_str());
        run->ok = false;
      }
    }
    AccumulateSelfTimes(recorder.Snapshot(), &run->self);
    if (recorder.dropped() > 0) run->ok = false;
    recorder.Reset();
  }
  trace::SetTracingEnabled(false);
  return pass;
}

/// Alternates untraced and traced passes, so host drift hits both alike,
/// and starts new pairs until `seconds` have elapsed (at least one pair).
TracedRun RunTracedPasses(const Context& ctx, double seconds,
                          const std::string& trace_out, Checker* checker) {
  TracedRun run;
  const Clock::time_point begin = Clock::now();
  do {
    run.untraced.push_back(
        RunPass(ctx, 0, ctx.workload->pass_sessions, false));
    checker->Check(run.untraced.back());
    run.traced.push_back(RunTracedPass(
        ctx, run.traced.empty() ? trace_out : std::string(), &run));
    checker->Check(run.traced.back());
  } while (static_cast<double>(ElapsedNs(begin, Clock::now())) * 1e-9 <
           seconds);
  return run;
}

double BusyPerSession(const std::vector<Pass>& passes) {
  double busy = 0.0;
  double sessions = 0.0;
  for (const Pass& p : passes) {
    for (const SessionLog& log : p.logs) busy += log.busy_s;
    sessions += static_cast<double>(p.logs.size());
  }
  return Ratio(busy, sessions);
}

/// Median per-call time, in µs, of `call` over up to kMaxCalls items of
/// `args` spread evenly across the list.
template <typename T, typename Fn>
double MedianCallUs(const std::vector<T>& args, Fn call) {
  constexpr std::size_t kMaxCalls = 2000;
  std::vector<double> us;
  const std::size_t step = std::max<std::size_t>(1, args.size() / kMaxCalls);
  volatile double sink = 0.0;
  for (std::size_t i = 0; i < args.size(); i += step) {
    const Clock::time_point begin = Clock::now();
    const double v = call(args[i]);
    us.push_back(UsFromNs(ElapsedNs(begin, Clock::now())));
    sink = sink + v;
  }
  return Median(std::move(us));
}

struct KernelProbes {
  double batch_mpts_per_s = 0.0;
  double scan_speedup = 0.0;
  int metrics = 0;
};

/// Re-scores the disjunctive metrics of evenly spaced rounds of `pass`
/// single-threaded, with nothing else running: one DistanceBatch over the
/// whole FlatView, and a LinearScanIndex search on a pool of 1 and of
/// nproc threads, whose answers must agree.
KernelProbes RunKernelProbes(const Context& ctx, const Pass& pass,
                             Checker* checker) {
  std::vector<const std::vector<core::Cluster>*> snapshots;
  for (const SessionLog& log : pass.logs) {
    for (const auto& clusters : log.clusters) snapshots.push_back(&clusters);
  }
  const std::size_t stride = std::max<std::size_t>(
      1, snapshots.size() /
             static_cast<std::size_t>(ctx.workload->probe_rounds));
  const linalg::FlatView view = ctx.db->flat_view();
  std::vector<double> out(view.n);
  ThreadPool serial_pool(1);
  ThreadPool wide_pool(HardwareThreads());
  const index::LinearScanIndex serial_scan(view, &serial_pool);
  const index::LinearScanIndex pooled_scan(view, &wide_pool);
  std::vector<double> mpts, serial_us, pooled_us;
  for (std::size_t i = 0; i < snapshots.size(); i += stride) {
    const double floor = VarianceFloor(*snapshots[i], ctx.options);
    const core::DisjunctiveDistance dist(
        *snapshots[i], ctx.options.scheme,
        floor > 0.0 ? floor : ctx.options.min_variance,
        ctx.options.covariance_shrinkage);
    Clock::time_point begin = Clock::now();
    dist.DistanceBatch(view, out.data());
    const std::int64_t ns = ElapsedNs(begin, Clock::now());
    mpts.push_back(static_cast<double>(view.n) * 1e3 /
                   static_cast<double>(std::max<std::int64_t>(ns, 1)));
    begin = Clock::now();
    const std::vector<index::Neighbor> a = serial_scan.Search(dist, kK);
    serial_us.push_back(UsFromNs(ElapsedNs(begin, Clock::now())));
    begin = Clock::now();
    const std::vector<index::Neighbor> b = pooled_scan.Search(dist, kK);
    pooled_us.push_back(UsFromNs(ElapsedNs(begin, Clock::now())));
    ++checker->attempted;
    if (!SameRanking(a, b)) ++checker->failed;
  }
  KernelProbes probes;
  probes.batch_mpts_per_s = Median(mpts);
  probes.scan_speedup = Ratio(Median(serial_us), Median(pooled_us));
  probes.metrics = static_cast<int>(mpts.size());
  return probes;
}

void PrintErrorRate(const Checker& checker) {
  std::printf("error_rate %.6g (%lld of %lld calls failed)\n",
              Ratio(static_cast<double>(checker.failed),
                    static_cast<double>(checker.attempted)),
              checker.failed, checker.attempted);
}

struct SetupStats {
  std::vector<double> setup_s;
  std::vector<double> collection_s;
  std::vector<double> build_s;
  double rss_mb = 0.0;  ///< After the first set-up, before memory is reused.
};

/// Repeats set-up; returns the last fixture, the one sessions run on.
Fixture SetUp(const Workload& workload, SetupStats* stats) {
  Fixture fixture;
  double total = 0.0;
  while (stats->setup_s.size() < static_cast<std::size_t>(kMinSetupRepeats) ||
         (total < kSetupSeconds &&
          stats->setup_s.size() < static_cast<std::size_t>(kMaxSetupRepeats))) {
    fixture = Fixture{};
    fixture = BuildFixture(workload);
    stats->collection_s.push_back(fixture.collection_s);
    stats->build_s.push_back(fixture.build_s);
    stats->setup_s.push_back(fixture.collection_s + fixture.build_s);
    total += stats->setup_s.back();
    if (stats->setup_s.size() == 1) stats->rss_mb = ResidentMb();
  }
  return fixture;
}

/// --trace 0: end-to-end metrics of the untraced passes, plus the sampled
/// reference check of evenly spaced sessions of the first pass.
std::vector<Metric> EndToEnd(const Context& ctx, const SetupStats& setup,
                             const TimedPasses& timed, Checker* checker) {
  const Workload& w = *ctx.workload;
  const Pass& first = timed.passes.front();
  long long ref_calls = 0, ref_bad = 0;
  const int stride = std::max(1, w.pass_sessions / w.reference_sessions);
  for (int i = 0; i < w.pass_sessions; i += stride) {
    const SessionLog& log = first.logs[static_cast<std::size_t>(i)];
    ref_calls += 1 + static_cast<long long>(log.marks.size());
    ref_bad += ReferenceMismatches(ctx, log);
  }
  checker->failed += ref_bad;

  // Every timing is the median over blocks of that block's figure: the
  // host's speed shifts by up to 40% for seconds at a time, and a block it
  // slowed moves the median less than it would move a pooled figure.
  std::vector<double> rates, round_p50, round_p99, initial_p50;
  for (const BlockFigures& b : timed.blocks) {
    rates.push_back(b.sessions_per_s);
    round_p50.push_back(b.round_p50_ms);
    round_p99.push_back(b.round_p99_ms);
    initial_p50.push_back(b.initial_p50_ms);
  }
  double recall = 0.0;
  for (const SessionLog& log : first.logs) recall += FinalRecall(ctx, log);
  recall /= static_cast<double>(first.logs.size());

  std::printf("workload %s: n=%d d=%d clients=%d passes=%zu x %d sessions, "
              "%zu blocks\n",
              w.name, ctx.db->size(), ctx.db->dim(), w.clients,
              timed.passes.size(), w.pass_sessions, timed.blocks.size());
  std::printf("samples per block: rounds=%d initial=%d; reference-checked "
              "calls=%lld (%lld mismatched)\n",
              kBlockSessions * kRounds, kBlockSessions, ref_calls, ref_bad);
  PrintErrorRate(*checker);
  return {
      {"setup_s", Median(setup.setup_s), "s"},
      {"sessions_per_s", Median(rates), "1/s"},
      {"round_p50_ms", Median(round_p50), "ms"},
      {"round_p99_ms", Median(round_p99), "ms"},
      {"initial_p50_ms", Median(initial_p50), "ms"},
      {"recall_at_k", recall, "fraction"},
      {"rss_mb", setup.rss_mb, "MB"},
  };
}

/// --trace 1: per-layer metrics of the traced passes. Sets `*ok` false
/// when a trace check fails.
std::vector<Metric> PerLayer(const Context& ctx, const SetupStats& setup,
                             const TracedRun& traced, Checker* checker,
                             bool* ok) {
  const Workload& w = *ctx.workload;
  Samples all;
  ReplayStats replay;
  long long ref_calls = 0, ref_bad = 0;
  for (const Pass& p : traced.traced) {
    all.Append(p.samples);
    replay.Append(p.replay);
    ref_calls += p.reference_calls;
    ref_bad += p.reference_mismatches;
  }
  checker->failed += ref_bad + replay.mismatches;

  // Exact counts, from the first traced pass.
  const Pass& counted = traced.traced.front();
  double evals = 0.0, nodes = 0.0, leaves = 0.0, searches = 0.0;
  double warm = 0.0, warm_samples = 0.0;
  for (const SessionLog& log : counted.logs) {
    for (const index::SearchStats& s : log.search_stats) {
      evals += static_cast<double>(s.distance_evaluations);
      nodes += static_cast<double>(s.nodes_visited);
      leaves += static_cast<double>(s.leaves_visited);
      searches += 1.0;
    }
    for (int c : log.warm_candidates) {
      warm += c;
      warm_samples += 1.0;
    }
  }
  const ReplayStats& counted_replay = counted.replay;
  const double rounds = static_cast<double>(counted_replay.rounds);
  const KernelProbes probes = RunKernelProbes(ctx, counted, checker);
  const double f_us = MedianCallUs(replay.args.f, [](const QuantileArgs::F& a) {
    return stats::FUpperQuantile(a.alpha, a.d1, a.d2);
  });
  const double chi2_us =
      MedianCallUs(replay.args.chi2, [](const QuantileArgs::Chi2& a) {
        return stats::ChiSquaredUpperQuantile(a.alpha, a.dof);
      });

  const SelfTimes& self = traced.self;
  auto self_frac = [&](const char* name) {
    const auto it = self.replay_ns.find(name);
    return Ratio(it == self.replay_ns.end() ? 0.0 : it->second,
                 self.round_ns);
  };
  const std::vector<Metric> shares = {
      {"trace.self_frac.index", Ratio(self.index_ns, self.round_ns),
       "fraction"},
      {"trace.self_frac.merging", self_frac("bench.replay.merge"), "fraction"},
      {"trace.self_frac.classifier", self_frac("bench.replay.classify"),
       "fraction"},
      {"trace.self_frac.hierarchical", self_frac("bench.replay.hierarchical"),
       "fraction"},
      {"trace.self_frac.variance_floor",
       self_frac("bench.replay.variance_floor"), "fraction"},
      {"trace.self_frac.distance_build", self_frac("bench.replay.distance"),
       "fraction"},
      {"trace.self_frac.session_snapshot", self_frac("bench.session_snapshot"),
       "fraction"},
  };
  double coverage = 0.0;
  for (const Metric& m : shares) coverage += m.value;
  if (w.clients == 1 && coverage < kMinCoverage) *ok = false;

  std::printf("workload %s: n=%d d=%d clients=%d traced passes=%zu x %d "
              "sessions\n",
              w.name, ctx.db->size(), ctx.db->dim(), w.clients,
              traced.traced.size(), w.pass_sessions);
  std::printf("samples: rounds=%zu searches=%zu replayed rounds=%lld "
              "(%lld mismatched); reference-checked calls=%lld (%lld "
              "mismatched); probe metrics=%d; quantile args f=%zu chi2=%zu\n",
              all.round_ms.size(), all.search_us.size(), replay.rounds,
              replay.mismatches, ref_calls, ref_bad, probes.metrics,
              replay.args.f.size(), replay.args.chi2.size());
  std::printf("self time share of Feedback: coverage %.3f (need >= %.2f with "
              "one client)\n",
              coverage, kMinCoverage);
  PrintErrorRate(*checker);

  std::vector<Metric> metrics = {
      {"dataset.collection_s", Median(setup.collection_s), "s"},
      {"index.build_s", Median(setup.build_s), "s"},
      {"engine.cluster_update_us_p50", Percentile(all.update_us, 0.50), "us"},
      {"engine.cluster_update_us_p99", Percentile(all.update_us, 0.99), "us"},
      {"hierarchical.cluster_us_p50", Median(replay.hierarchical_us), "us"},
      {"classifier.classify_us_p50", Percentile(replay.classify_us, 0.50),
       "us"},
      {"classifier.classify_us_p99", Percentile(replay.classify_us, 0.99),
       "us"},
      {"classifier.new_clusters_per_round",
       Ratio(static_cast<double>(counted_replay.new_clusters),
             static_cast<double>(counted_replay.classified_rounds)),
       "count"},
      {"merging.merge_us_p50", Percentile(replay.merge_us, 0.50), "us"},
      {"merging.merge_us_p99", Percentile(replay.merge_us, 0.99), "us"},
      {"merging.merges_per_round",
       Ratio(static_cast<double>(counted_replay.merges), rounds), "count"},
      {"merging.forced_merges_per_round",
       Ratio(static_cast<double>(counted_replay.forced_merges), rounds),
       "count"},
      {"stats.f_upper_quantile_us", f_us, "us"},
      {"stats.chi2_upper_quantile_us", chi2_us, "us"},
      {"index.search_us_p50", Percentile(all.search_us, 0.50), "us"},
      {"index.search_us_p99", Percentile(all.search_us, 0.99), "us"},
      {"index.distance_evals_per_search", Ratio(evals, searches), "count"},
      {"index.nodes_per_search", Ratio(nodes, searches), "count"},
      {"index.leaves_per_search", Ratio(leaves, searches), "count"},
      {"index.scored_frac", Ratio(evals, searches * ctx.db->size()),
       "fraction"},
      {"index.warm_candidates_mean", Ratio(warm, warm_samples), "count"},
      {"linalg.batch_mpts_per_s", probes.batch_mpts_per_s, "Mpts/s"},
      {"thread_pool.scan_speedup", probes.scan_speedup, "x"},
      {"trace.overhead_frac",
       Ratio(BusyPerSession(traced.traced), BusyPerSession(traced.untraced)) -
           1.0,
       "fraction"},
  };
  metrics.insert(metrics.end(), shares.begin(), shares.end());
  metrics.push_back({"trace.coverage_frac", coverage, "fraction"});
  return metrics;
}

int Main(int argc, char** argv) {
  const std::optional<Args> args = ParseArgs(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: session_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out PATH]\n");
    return 2;
  }
  const std::optional<Workload> workload = FindWorkload(args->workload);
  if (!workload) {
    std::fprintf(stderr, "unknown workload '%s'\n", args->workload.c_str());
    return 2;
  }
  const bool traced_run = args->trace == 1;
  SetLogLevel(LogLevel::kWarning);  // No per-round trace summary lines.

  SetupStats setup;
  const Fixture fixture = SetUp(*workload, &setup);
  const dataset::FeatureDatabase& db = *fixture.db;
  const TimedIndex timed_index(fixture.index.get());
  const eval::OracleUser oracle(&db.categories(), &db.themes(),
                                eval::OracleOptions{});
  Context ctx;
  ctx.workload = &*workload;
  ctx.db = &db;
  ctx.index = &timed_index;
  ctx.oracle = &oracle;
  ctx.options.k = kK;
  ctx.queries = Rng(args->seed).SampleWithoutReplacement(
      db.size(), workload->pass_sessions);

  for (const Clock::time_point begin = Clock::now();
       static_cast<double>(ElapsedNs(begin, Clock::now())) * 1e-9 <
       kWarmupSeconds;) {
    RunPass(ctx, 0, kWarmupSessions, false);
  }
  Checker checker;
  checker.n = db.size();
  bool ok = true;
  std::vector<Metric> metrics;
  if (traced_run) {
    // A traced pass also replays and reference-checks every session, so it
    // takes about three untraced passes: new pairs start only in the first
    // half of --seconds.
    const TracedRun traced =
        RunTracedPasses(ctx, args->seconds / 2.0, args->trace_out, &checker);
    ok = traced.ok;
    metrics = PerLayer(ctx, setup, traced, &checker, &ok);
  } else {
    metrics = EndToEnd(ctx, setup, RunPasses(ctx, args->seconds, &checker),
                       &checker);
  }
  PrintResult(ok && checker.failed == 0, checker.attempted, checker.failed,
              metrics);
  return 0;
}

}  // namespace
}  // namespace qcluster::perfbench

int main(int argc, char** argv) {
  return qcluster::perfbench::Main(argc, argv);
}
