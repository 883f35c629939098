// hcbench_run: drives the library through its public API on the inputs
// hcbench_gen wrote, times it, and checks everything it emits.
//
//   hcbench_run snapshot --dir DIR
//       loads DIR/graph.txt with LoadEdgeListText and writes the
//       mmap-loadable DIR/graph.snap the service part opens
//   hcbench_run setup --dir DIR
//       one cold set-up of the workload's first part, timed from the
//       process's start, appended to DIR/setup.txt
//   hcbench_run run --dir DIR --seconds S --threads T --trace 0|1 --seed N
//       runs the offline part (BatchPathEnumerator::Run, default options
//       and BasicEnum+) and the service part (a store-backed PathEngine
//       under an open-loop query stream with concurrent updates, then a
//       saturation phase), in the order DIR/plan.txt gives, checks the
//       outputs, and writes DIR/result.txt ("key value" lines),
//       DIR/serve_samples.txt and DIR/final_state.txt. With --trace 1 it
//       instead calls each layer's entry point itself and writes the
//       per-layer metrics and DIR/trace.json.
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <fstream>
#include <future>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "bench_common.h"
#include "bfs/msbfs.h"
#include "core/clustering.h"
#include "core/detect.h"
#include "core/join.h"
#include "core/path_enum.h"
#include "core/search.h"
#include "core/similarity.h"
#include "hcpath/hcpath.h"
#include "index/distance_index.h"
#include "oracle.h"

namespace bench {
namespace {

using SteadyClock = std::chrono::steady_clock;

// Taken during static initialization: set-up is timed from the process's
// start, so work moved before the first timer still shows.
const SteadyClock::time_point kProcessStart = SteadyClock::now();

double Now() {
  return std::chrono::duration<double>(SteadyClock::now() - kProcessStart)
      .count();
}

template <typename T>
T Unwrap(hcpath::StatusOr<T> r, const std::string& what) {
  if (!r.ok()) Die(what + ": " + r.status().ToString());
  return std::move(*r);
}

void Check(const hcpath::Status& st, const std::string& what) {
  if (!st.ok()) Die(what + ": " + st.ToString());
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }

// Peak resident set of this process so far, in MiB (VmHWM).
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0;
}

std::map<std::string, double> ReadPlan(const std::string& path) {
  std::ifstream in = OpenIn(path);
  std::map<std::string, double> plan;
  std::string key;
  double value = 0;
  while (in >> key >> value) plan[key] = value;
  return plan;
}

std::vector<hcpath::PathQuery> ToLibrary(const std::vector<Query>& qs) {
  std::vector<hcpath::PathQuery> out;
  for (const Query& q : qs) out.push_back({q.s, q.t, q.k});
  return out;
}

// ---------------------------------------------------------------- sinks

// Consumes every path of a batch and digests each query's path set.
class DigestSink : public hcpath::PathSink {
 public:
  explicit DigestSink(size_t n) : digests_(n) {}
  void OnPath(size_t qi, hcpath::PathView p) override {
    digests_[qi].Add(PathHash(p.data(), p.size()));
  }
  const std::vector<PathSetDigest>& digests() const { return digests_; }

 private:
  std::vector<PathSetDigest> digests_;
};

// One service query's sink: the engine tags paths with the query's index
// inside its micro-batch, which this sink does not need.
class QuerySink : public hcpath::PathSink {
 public:
  void OnPath(size_t, hcpath::PathView p) override {
    digest.Add(PathHash(p.data(), p.size()));
  }
  PathSetDigest digest;
};

class ValidatingSink : public hcpath::PathSink {
 public:
  explicit ValidatingSink(PathValidator* v) : v_(v) {}
  void OnPath(size_t qi, hcpath::PathView p) override {
    v_->OnPath(qi, p.data(), p.size());
  }

 private:
  PathValidator* v_;
};

// --------------------------------------------------------------- tracing

struct Span {
  std::string name;
  uint64_t id = 0;       // spans of one query or one call share an id
  int64_t parent = -1;   // index of the enclosing span, -1 at the root
  double start = 0;
  double end = 0;
};

class Tracer {
 public:
  size_t Begin(const std::string& name, uint64_t id, int64_t parent) {
    spans_.push_back({name, id, parent, Now(), 0});
    return spans_.size() - 1;
  }
  void End(size_t i) { spans_[i].end = Now(); }
  void Add(Span s) { spans_.push_back(std::move(s)); }

  std::vector<double> Durations(const std::string& name) const {
    std::vector<double> d;
    for (const Span& s : spans_) {
      if (s.name == name) d.push_back(s.end - s.start);
    }
    return d;
  }

  double Total(const std::string& name) const {
    double t = 0;
    for (double d : Durations(name)) t += d;
    return t;
  }

  // A span's self time is its duration minus the part of that interval
  // its children cover.
  std::map<std::string, double> SelfTimes() const {
    std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
    for (const Span& s : spans_) {
      if (s.parent >= 0) kids[s.parent].push_back({s.start, s.end});
    }
    std::map<std::string, double> self;
    for (size_t i = 0; i < spans_.size(); ++i) {
      auto& iv = kids[i];
      std::sort(iv.begin(), iv.end());
      double covered = 0, cur_s = 0, cur_e = -1;
      for (auto [a, b] : iv) {
        a = std::max(a, spans_[i].start);
        b = std::min(b, spans_[i].end);
        if (b <= a) continue;
        if (a > cur_e) {
          if (cur_e > cur_s) covered += cur_e - cur_s;
          cur_s = a;
          cur_e = b;
        } else {
          cur_e = std::max(cur_e, b);
        }
      }
      if (cur_e > cur_s) covered += cur_e - cur_s;
      self[spans_[i].name] += spans_[i].end - spans_[i].start - covered;
    }
    return self;
  }

  void Write(const std::string& path) const {
    std::ofstream out = OpenOut(path);
    out << std::setprecision(9) << "{\"spans\": [";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name
          << "\", \"id\": " << s.id << ", \"parent\": " << s.parent
          << ", \"start_s\": " << s.start << ", \"end_s\": " << s.end << "}";
    }
    out << "],\n\"self_s\": {";
    bool first = true;
    for (const auto& [name, t] : SelfTimes()) {
      out << (first ? "\n" : ",\n") << "\"" << name << "\": " << t;
      first = false;
    }
    out << "}}\n";
  }

 private:
  std::vector<Span> spans_;
};

// ------------------------------------------------------------ run state

struct Run {
  std::string dir;
  double seconds = 10;
  int threads = 1;
  bool trace = false;
  uint64_t seed = 0;
  std::map<std::string, double> plan;

  std::map<std::string, double> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Tracer tracer;

  std::string File(const char* name) const { return dir + "/" + name; }
};

// ---------------------------------------------------------- offline part

// The layer composition's summed spans must lie within this factor range
// of the one-thread BasicEnum+ Run they mirror. The spans leave out only
// Run's validation and bookkeeping, but both sides are single timings on a
// shared machine, hence the wide band.
constexpr std::pair<double, double> kComposeTolerance = {0.5, 2.0};

class OfflinePart {
 public:
  explicit OfflinePart(Run& run) : run_(run) {}

  // Graph file on disk to an enumerator ready for its first batch.
  double Setup() {
    const double t0 = Now();
    graph_ = std::make_unique<hcpath::Graph>(Unwrap(
        hcpath::LoadEdgeListText(run_.File("graph.txt")), "LoadEdgeListText"));
    facade_ = std::make_unique<hcpath::BatchPathEnumerator>(*graph_);
    const double t1 = Now();
    queries_ = ReadQueries(run_.File("offline.q"));
    lib_queries_ = ToLibrary(queries_);
    load_s_ = t1 - t0;
    return t1;
  }

  hcpath::BatchOptions Options(bool basic, int threads) const {
    hcpath::BatchOptions o;
    if (basic) o.algorithm = hcpath::Algorithm::kBasicEnumPlus;
    o.num_threads = threads;
    return o;
  }

  // One Run of the whole batch; returns its wall time.
  double RunOnce(bool basic, int threads, std::vector<PathSetDigest>* digests,
                 hcpath::BatchStats* stats = nullptr) {
    DigestSink sink(lib_queries_.size());
    const double t0 = Now();
    hcpath::BatchResult r = Unwrap(
        facade_->Run(lib_queries_, Options(basic, threads), &sink),
        basic ? "Run(BasicEnum+)" : "Run(default)");
    const double wall = Now() - t0;
    run_.attempted += lib_queries_.size();
    for (size_t i = 0; i < r.path_counts.size(); ++i) {
      if (r.path_counts[i] != sink.digests()[i].count) {
        Die("Run's path_counts disagree with the paths it emitted");
      }
    }
    *digests = sink.digests();
    if (stats != nullptr) *stats = r.stats;
    return wall;
  }

  // Alternates default and BasicEnum+ runs of the batch until `budget`
  // seconds are used (at least three of each).
  void Timed(double budget) {
    const double end = Now() + budget;
    std::vector<PathSetDigest> d;
    while (Now() < end || basic_s_.size() < 3) {
      batch_s_.push_back(RunOnce(false, run_.threads, &d));
      Same(d, &batch_digests_, "repeated default runs");
      basic_s_.push_back(RunOnce(true, run_.threads, &d));
      Same(d, &basic_digests_, "repeated BasicEnum+ runs");
    }
    run_.metrics["batch_s"] = Median(batch_s_);
    run_.metrics["basic_batch_s"] = Median(basic_s_);
  }

  // Untimed: one more default run through the path validator, whose
  // digests must equal the timed runs', BasicEnum+'s and the oracle's.
  void CheckOutputs() {
    Vid n = 0;
    std::vector<uint64_t> keys;
    ReadGraph(run_.File("graph.txt"), &n, &keys);
    const Adjacency adj = Adjacency::FromEdges(n, keys);
    PathValidator validator(adj, queries_);
    ValidatingSink sink(&validator);
    Unwrap(facade_->Run(lib_queries_, Options(false, run_.threads), &sink),
           "validation Run");
    const auto oracle = ReadDigests(run_.File("offline.digests"));
    for (const std::string& err :
         {Verdict(validator, oracle),
          CompareDigests(batch_digests_, validator.digests(),
                         "timed default vs validated pass"),
          CompareDigests(basic_digests_, batch_digests_,
                         "BasicEnum+ vs default")}) {
      if (!err.empty()) Die(err);
    }
    uint64_t total = 0;
    for (const PathSetDigest& d : oracle) total += d.count;
    oracle_paths_ = total;
  }

  // --trace 1: the layer split, one compute thread.
  void Traced() {
    Tracer& tr = run_.tracer;
    auto& m = run_.metrics;
    m["graph.load_text_s"] = load_s_;

    std::vector<PathSetDigest> d1, db;
    hcpath::BatchStats s1, sb, sp;
    RunOnce(false, 1, &d1, &s1);
    const double basic_wall = RunOnce(true, 1, &db, &sb);
    RunOnce(false, run_.threads, &batch_digests_, &sp);
    basic_digests_ = db;
    Same(d1, &batch_digests_, "one-thread vs multi-thread default run");

    ReportPhaseTimers(s1, sp);
    {
      // A count-only Run (no sink) at the workload's thread count.
      hcpath::BatchResult r = Unwrap(
          facade_->Run(lib_queries_, Options(false, run_.threads), nullptr),
          "count-only Run");
      std::cerr << "finding: count-only default Run at " << run_.threads
                << " threads buffered " << r.stats.merge_total_buffered_bytes
                << " bytes of paths in the merge (no sink consumes them)\n";
    }

    m["cluster.clusters"] = s1.num_clusters;
    m["detect.dominating_nodes"] = s1.dominating_nodes;
    m["detect.sharing_edges"] = s1.sharing_edges;
    m["search.edges_expanded"] = s1.edges_expanded;
    m["search.edges_pruned"] = s1.edges_pruned;
    m["search.edges_expanded_basic"] = sb.edges_expanded;
    m["splice.count"] = s1.shortcut_splices;
    m["splice.cached_paths"] = s1.cached_paths;
    m["enumerate.s"] = s1.enumerate_seconds;
    m["merge.peak_buffered_mb"] = sp.merge_peak_buffered_bytes / 1048576.0;
    m["merge.total_buffered_mb"] = sp.merge_total_buffered_bytes / 1048576.0;
    m["emit.paths"] = s1.paths_emitted;

    // The pipeline, layer by layer, through each layer's entry point.
    const hcpath::Graph& g = *graph_;
    const auto& qs = lib_queries_;
    const size_t n = qs.size();
    const size_t root = tr.Begin("offline.layers", 0, -1);
    std::vector<hcpath::VertexId> sources, targets;
    std::vector<hcpath::Hop> hops;
    for (const auto& q : qs) {
      sources.push_back(q.s);
      targets.push_back(q.t);
      hops.push_back(static_cast<hcpath::Hop>(q.k));
    }
    hcpath::DistanceIndex index;
    size_t sp_i = tr.Begin("index.build", 0, root);
    index.Build(g, sources, targets, hops);
    tr.End(sp_i);
    const auto fwd = hcpath::MultiSourceBfs(g, sources, hops,
                                            hcpath::Direction::kForward);
    const auto bwd = hcpath::MultiSourceBfs(g, targets, hops,
                                            hcpath::Direction::kBackward);
    m["index.bfs_discovered"] = fwd.total_discovered + bwd.total_discovered;

    const hcpath::BatchOptions opt = Options(false, 1);
    sp_i = tr.Begin("cluster.similarity", 0, root);
    hcpath::SimilarityMatrix sim = hcpath::ComputeSimilarityMatrix(
        g, qs, index, opt.similarity_mode);
    tr.End(sp_i);
    sp_i = tr.Begin("cluster.agglomerate", 0, root);
    const auto clusters = hcpath::ClusterQueries(sim, opt.gamma);
    tr.End(sp_i);
    if (clusters.size() != s1.num_clusters) {
      Die("ClusterQueries disagrees with Run's cluster count");
    }

    // Detection per cluster, with Run's budgets: aligned halves for
    // queries that share a cluster, the optimized split for singletons.
    std::vector<bool> reachable(n);
    std::vector<hcpath::Hop> hf(n), hb(n);
    std::vector<size_t> cluster_size(n, 1);
    for (const auto& c : clusters) {
      for (size_t qi : c) cluster_size[qi] = c.size();
    }
    for (size_t i = 0; i < n; ++i) {
      const hcpath::Hop d = index.DistToTarget(i, qs[i].s);
      reachable[i] = d != hcpath::kUnreachable && d <= qs[i].k;
      hf[i] = hcpath::ChooseForwardBudget(index.FromSourceMap(i),
                                          index.ToTargetMap(i), qs[i].k,
                                          cluster_size[i] == 1);
      hb[i] = static_cast<hcpath::Hop>(qs[i].k - hf[i]);
    }
    hcpath::BatchStats detect_stats;
    for (size_t ci = 0; ci < clusters.size(); ++ci) {
      std::vector<hcpath::Hop> fb, bb;
      std::vector<bool> skip;
      for (size_t qi : clusters[ci]) {
        fb.push_back(hf[qi]);
        bb.push_back(hb[qi]);
        skip.push_back(!reachable[qi]);
      }
      hcpath::DetectionResult f, b;
      sp_i = tr.Begin("detect", ci, root);
      hcpath::DetectBothDirections(g, qs, clusters[ci], fb, bb, skip, index,
                                   opt, nullptr, &f, &b, &detect_stats);
      tr.End(sp_i);
    }
    if (detect_stats.dominating_nodes != s1.dominating_nodes ||
        detect_stats.sharing_edges != s1.sharing_edges) {
      Die("DetectBothDirections disagrees with Run's sharing counters");
    }

    // A BasicEnum+-shaped composition, query by query.
    DigestSink sink(n);
    hcpath::BatchStats cs;
    const hcpath::ResolvedKernel rk =
        hcpath::ResolveKernel(hcpath::KernelMode::kAuto, g);
    for (size_t i = 0; i < n; ++i) {
      const auto& q = qs[i];
      const size_t qspan = tr.Begin("query", i, root);
      const hcpath::VertexDistMap& from_s = index.FromSourceMap(i);
      const hcpath::VertexDistMap& to_t = index.ToTargetMap(i);
      const hcpath::Hop st = to_t.Lookup(q.s);
      if (st == hcpath::kUnreachable || st > q.k) {
        tr.End(qspan);
        continue;
      }
      const hcpath::Hop f = hcpath::ChooseForwardBudget(from_s, to_t, q.k, true);
      const hcpath::Hop b = static_cast<hcpath::Hop>(q.k - f);
      const hcpath::TargetSlack fwd_slack[] = {{&to_t, q.k}};
      const hcpath::TargetSlack bwd_slack[] = {{&from_s, q.k}};
      hcpath::PathSet fwd_paths, bwd_paths;
      hcpath::HalfSearchSpec fs;
      fs.start = q.s;
      fs.budget = f;
      fs.dir = hcpath::Direction::kForward;
      fs.slacks = fwd_slack;
      fs.filter_for_join = true;
      fs.store_target = q.t;
      fs.resolved = rk;
      sp_i = tr.Begin("search", i, static_cast<int64_t>(qspan));
      Check(hcpath::RunHalfSearch(g, fs, &fwd_paths, &cs), "RunHalfSearch");
      tr.End(sp_i);
      if (b > 0) {
        hcpath::HalfSearchSpec bs;
        bs.start = q.t;
        bs.budget = b;
        bs.dir = hcpath::Direction::kBackward;
        bs.slacks = bwd_slack;
        bs.resolved = rk;
        sp_i = tr.Begin("search", i, static_cast<int64_t>(qspan));
        Check(hcpath::RunHalfSearch(g, bs, &bwd_paths, &cs), "RunHalfSearch");
        tr.End(sp_i);
      }
      hcpath::JoinSpec js;
      js.forward = &fwd_paths;
      js.backward = &bwd_paths;
      js.s = q.s;
      js.t = q.t;
      js.hf = f;
      js.hb = b;
      sp_i = tr.Begin("join", i, static_cast<int64_t>(qspan));
      Unwrap(hcpath::JoinAndEmit(js, i, &sink, &cs), "JoinAndEmit");
      tr.End(sp_i);
      tr.End(qspan);
    }
    tr.End(root);

    const std::string err = CompareDigests(sink.digests(), db,
                                           "layer composition vs BasicEnum+ Run");
    if (!err.empty()) Die(err);
    if (cs.edges_expanded != sb.edges_expanded) {
      Die("layer composition expanded a different number of edges than Run");
    }
    m["index.build_s"] = tr.Total("index.build");
    m["cluster.similarity_s"] = tr.Total("cluster.similarity");
    m["cluster.agglomerate_s"] = tr.Total("cluster.agglomerate");
    m["detect.s"] = tr.Total("detect");
    m["search.s"] = tr.Total("search");
    m["join.s"] = tr.Total("join");
    m["join.probes"] = cs.join_probes;
    m["join.rejected"] = cs.join_rejected;
    m["join.yield"] = cs.join_probes > 0
                          ? static_cast<double>(cs.paths_emitted) / cs.join_probes
                          : 0;
    // Cross-check: the composition's summed spans against an untraced
    // one-thread BasicEnum+ Run of the same batch.
    const double composed = tr.Total("index.build") + tr.Total("query");
    const double ratio = composed / basic_wall;
    std::cerr << "trace: composed BasicEnum+ layers " << composed
              << " s vs Run " << basic_wall << " s (ratio " << ratio << ")\n";
    if (ratio < kComposeTolerance.first || ratio > kComposeTolerance.second) {
      Die("layer composition time is outside [0.5, 2] x the Run it mirrors");
    }
  }

  uint64_t oracle_paths() const { return oracle_paths_; }

 private:
  // Logs how BatchStats' phase timers of a multi-thread run relate to its
  // total, next to the one-thread run's, for the README's findings.
  void ReportPhaseTimers(const hcpath::BatchStats& one,
                         const hcpath::BatchStats& many) const {
    auto line = [](const char* what, const hcpath::BatchStats& st) {
      const double phases = st.build_index_seconds + st.cluster_seconds +
                            st.detect_seconds + st.enumerate_seconds;
      std::cerr << "finding: " << what << ": phases " << st.build_index_seconds
                << " + " << st.cluster_seconds << " + " << st.detect_seconds
                << " + " << st.enumerate_seconds << " = " << phases
                << " s, total " << st.total_seconds
                << " s, per-cluster stage (total - index - cluster) "
                << st.total_seconds - st.build_index_seconds - st.cluster_seconds
                << " s\n";
    };
    line("default Run, 1 thread", one);
    line(("default Run, " + std::to_string(run_.threads) + " threads").c_str(),
         many);
  }

  static void Same(const std::vector<PathSetDigest>& d,
                   std::vector<PathSetDigest>* ref, const char* what) {
    if (ref->empty()) {
      *ref = d;
      return;
    }
    const std::string err = CompareDigests(d, *ref, what);
    if (!err.empty()) Die(err);
  }

  Run& run_;
  std::unique_ptr<hcpath::Graph> graph_;
  std::unique_ptr<hcpath::BatchPathEnumerator> facade_;
  std::vector<Query> queries_;
  std::vector<hcpath::PathQuery> lib_queries_;
  double load_s_ = 0;
  std::vector<double> batch_s_, basic_s_;
  std::vector<PathSetDigest> batch_digests_, basic_digests_;
  uint64_t oracle_paths_ = 0;
};

// ---------------------------------------------------------- service part

// Four of the engine's default 64-query micro-batches.
constexpr size_t kSaturationOutstanding = 256;
constexpr size_t kServeSamples = 64;
constexpr size_t kP99Windows = 5;
// A send this far behind its due time is late. Latency runs from the due
// time, so late sends charge the generator's own delay to the program; a
// run whose late sends exceed kMaxLateShare of the open loop says so.
constexpr double kLateS = 0.001;
constexpr double kMaxLateShare = 0.01;

struct Slot {
  uint32_t tmpl = 0;
  double due = 0;
  double sent = 0;
  double done = 0;
  QuerySink sink;
  std::future<hcpath::QueryResult> future;
  hcpath::QueryResult result;
};

class ServicePart {
 public:
  explicit ServicePart(Run& run) : run_(run) {}

  // Graph snapshot on disk to an engine ready for its first query.
  double Setup() {
    const double t0 = Now();
    store_ = Unwrap(hcpath::GraphStore::OpenSnapshot(run_.File("graph.snap")),
                    "GraphStore::OpenSnapshot");
    hcpath::PathEngineOptions opt;
    // Micro-batch size and wait cut stay at the engine's defaults.
    opt.batch.num_threads = 1;
    opt.collect_paths = false;
    opt.enable_distance_cache = true;
    engine_ = std::make_unique<hcpath::PathEngine>(store_.get(), opt);
    Check(engine_->status(), "PathEngine");
    const double t1 = Now();
    open_s_ = t1 - t0;
    templates_ = ReadQueries(run_.File("templates.q"));
    stream_ = ReadInts(run_.File("stream.txt"));
    updates_ = ReadUpdates(run_.File("updates.txt"));
    if (templates_.empty() || stream_.empty()) Die("empty service inputs");
    return t1;
  }

  void Timed(double open_s, double saturation_s) {
    OpenLoop(open_s);
    Saturation(saturation_s);
    engine_->Drain();
  }

  void CheckOutputs() {
    const hcpath::PathEngineStats st = engine_->GetStats();
    const uint64_t submitted = open_.size() + sat_.size();
    if (st.queries_submitted != submitted || st.queries_completed != submitted) {
      Die("engine counted " + std::to_string(st.queries_submitted) +
          " submitted / " + std::to_string(st.queries_completed) +
          " completed queries, the benchmark " + std::to_string(submitted));
    }
    // Every query that resolved OK: its count matches its sink, and equal
    // queries at one epoch agree. A seeded sample goes to the oracle. The
    // others are counted in `failed` already.
    std::map<std::pair<uint32_t, uint64_t>, PathSetDigest> seen;
    std::ofstream samples = OpenOut(run_.File("serve_samples.txt"));
    const size_t total = open_.size() + sat_.size();
    const size_t stride = std::max<size_t>(1, total / kServeSamples);
    const size_t offset = run_.seed % stride;
    size_t i = 0;
    auto visit = [&](const Slot& s) {
      const hcpath::QueryResult& r = s.result;
      if (!r.status.ok()) return;
      if (r.path_count != s.sink.digest.count) {
        Die("QueryResult.path_count disagrees with the paths streamed");
      }
      auto [it, fresh] = seen.emplace(std::make_pair(s.tmpl, r.graph_epoch),
                                      s.sink.digest);
      if (!fresh && it->second != s.sink.digest) {
        Die("one query at one epoch gave two different path sets");
      }
      if (i++ % stride == offset) {
        const Query& q = templates_[s.tmpl];
        samples << q.s << ' ' << q.t << ' ' << q.k << ' ' << r.graph_epoch
                << ' ' << s.sink.digest.count << ' ' << s.sink.digest.sum
                << '\n';
      }
    };
    for (const Slot& s : open_) visit(s);
    for (const Slot& s : sat_) visit(s);

    // The store's final edge set, for comparison with the shadow set.
    auto snap = store_->Current();
    const hcpath::Graph& g = snap->graph;
    uint64_t edges = 0, hash = 0;
    for (hcpath::VertexId u = 0; u < g.NumVertices(); ++u) {
      for (hcpath::VertexId v : g.OutNeighbors(u)) {
        ++edges;
        hash += EdgeHash(u, v);
      }
    }
    if (snap->epoch != applied_) Die("store epoch differs from batches applied");
    std::ofstream fin = OpenOut(run_.File("final_state.txt"));
    fin << applied_ << ' ' << edges << ' ' << hash << '\n';
  }

  // --trace 1 additions: per-query and per-update spans, the standalone
  // store replay, and the engine's counters.
  void Traced() {
    Tracer& tr = run_.tracer;
    auto& m = run_.metrics;
    m["graph.open_snapshot_s"] = open_s_;
    for (size_t i = 0; i < open_.size(); ++i) {
      tr.Add({"service.query", i, -1, open_[i].due, open_[i].done});
    }
    for (size_t i = 0; i < sat_.size(); ++i) {
      tr.Add({"service.query", open_.size() + i, -1, sat_[i].due, sat_[i].done});
    }
    for (size_t j = 0; j < update_spans_.size(); ++j) {
      tr.Add({"service.apply_updates", j, -1, update_spans_[j].first,
              update_spans_[j].second});
    }
    std::vector<double> wait, batch;
    // Over the open-loop queries, whose latency query_p50_ms reports.
    for (const Slot& s : open_) {
      wait.push_back(s.result.wait_seconds * 1e3);
      batch.push_back(s.result.batch_seconds * 1e3);
    }
    const hcpath::PathEngineStats st = engine_->GetStats();
    const double lookups = static_cast<double>(st.distance_cache_hits +
                                               st.distance_cache_misses);
    m["index.cache_hit_rate"] = lookups > 0 ? st.distance_cache_hits / lookups : 0;
    m["index.cache_invalidated"] =
        engine_->distance_cache()->entries_invalidated();
    m["index.cache_repaired"] = st.cache_entries_repaired;
    m["service.wait_ms"] = Median(wait);
    m["service.batch_ms"] = Median(batch);
    m["service.batch_size"] =
        st.batches_run > 0
            ? static_cast<double>(st.queries_submitted) / st.batches_run
            : 0;
    m["service.size_cuts"] = st.size_cuts;
    m["service.wait_cuts"] = st.wait_cuts;
    m["service.generator_lag_ms"] = max_lag_s_ * 1e3;
    const hcpath::GraphStoreStats gs = store_->GetStats();
    m["graph.overlay_extends"] = gs.overlay_extends;
    m["graph.overlay_delta_edges"] = gs.overlay_delta_edges;

    // The same update batches on a standalone store, timed per call.
    hcpath::GraphStore replay(Unwrap(
        hcpath::LoadEdgeListText(run_.File("graph.txt")), "LoadEdgeListText"));
    for (size_t j = 0; j < applied_; ++j) {
      const auto ups = ToEdgeUpdates(updates_[j]);
      const size_t sp = tr.Begin("graph.apply_updates", j, -1);
      Unwrap(replay.ApplyUpdates(ups), "GraphStore::ApplyUpdates");
      tr.End(sp);
    }
    m["graph.update_ms"] = Median(tr.Durations("graph.apply_updates")) * 1e3;
  }

 private:
  static std::vector<hcpath::EdgeUpdate> ToEdgeUpdates(
      const std::vector<Update>& batch) {
    std::vector<hcpath::EdgeUpdate> out;
    for (const Update& u : batch) {
      out.push_back(u.add ? hcpath::EdgeUpdate::Add(u.u, u.v)
                          : hcpath::EdgeUpdate::Remove(u.u, u.v));
    }
    return out;
  }

  hcpath::PathQuery Template(uint32_t i) const {
    const Query& q = templates_[i];
    return {q.s, q.t, q.k};
  }

  void Resolve(Slot& s) {
    s.result = s.future.get();
    s.done = Now();
    ++run_.attempted;
    if (!s.result.status.ok()) {
      ++run_.failed;
      std::cerr << "query failed: " << s.result.status.ToString() << '\n';
    }
  }

  // Queries arrive on a fixed schedule; latency runs from each query's
  // due time, so a stall also delays the queries behind it. One thread
  // applies update batches at a fixed period meanwhile.
  void OpenLoop(double duration) {
    const double rate = run_.plan.at("rate_qps");
    const double period = run_.plan.at("update_period_s");
    const size_t n = std::max<size_t>(1, static_cast<size_t>(duration * rate));
    open_ = std::vector<Slot>(n);
    std::mutex mu;
    std::condition_variable cv;
    size_t submitted = 0;

    const double start = Now() + 0.005;
    const double end = start + duration;
    std::thread completer([&] {
      for (size_t i = 0; i < n; ++i) {
        {
          std::unique_lock<std::mutex> lk(mu);
          cv.wait(lk, [&] { return submitted > i; });
        }
        Resolve(open_[i]);
      }
    });
    std::thread updater([&] {
      for (size_t j = 0; j < updates_.size(); ++j) {
        const double due = start + (j + 1) * period;
        if (due >= end) break;
        SleepUntil(due);
        const auto ups = ToEdgeUpdates(updates_[j]);
        const double t0 = Now();
        Unwrap(engine_->ApplyUpdates(ups), "PathEngine::ApplyUpdates");
        const double t1 = Now();
        update_spans_.push_back({t0, t1});
        applied_ = j + 1;
      }
    });
    for (size_t i = 0; i < n; ++i) {
      Slot& s = open_[i];
      s.tmpl = stream_[i % stream_.size()];
      s.due = start + i / rate;
      SleepUntil(s.due);
      s.sent = Now();
      s.future = engine_->Submit(Template(s.tmpl), &s.sink);
      {
        std::lock_guard<std::mutex> lk(mu);
        submitted = i + 1;
      }
      cv.notify_one();
    }
    completer.join();
    updater.join();
    run_.attempted += applied_;

    ReportLag();
    // Only queries that resolved OK: a failed one counts in `failed`, and
    // failing fast must not look like serving fast.
    std::vector<double> lat, upd;
    for (const Slot& s : open_) {
      if (s.result.status.ok()) lat.push_back((s.done - s.due) * 1e3);
    }
    for (const auto& [a, b] : update_spans_) upd.push_back((b - a) * 1e3);
    run_.metrics["query_p50_ms"] = Percentile(lat, 0.5);
    // p99 per window of the schedule, median over the windows: a machine
    // stall confined to one window does not move it, while a slowdown that
    // recurs through the run does.
    std::vector<double> window_p99;
    const size_t per = lat.size() / kP99Windows;
    for (size_t w = 0; w < kP99Windows; ++w) {
      window_p99.push_back(Percentile(
          std::vector<double>(lat.begin() + w * per, lat.begin() + (w + 1) * per),
          0.99));
    }
    run_.metrics["query_p99_ms"] = Median(window_p99);
    run_.metrics["update_p50_ms"] = Median(upd);
    if (lat.size() < 1000) {
      std::cerr << "note: " << lat.size() << " latency samples, fewer than"
                << " p99 needs for ten beyond it\n";
    }
  }

  // A fixed number of queries outstanding; completed queries per second.
  void Saturation(double duration) {
    size_t next = open_.size();
    auto submit = [&] {
      sat_.emplace_back();
      Slot& s = sat_.back();
      s.tmpl = stream_[next++ % stream_.size()];
      s.due = Now();
      s.future = engine_->Submit(Template(s.tmpl), &s.sink);
    };
    const double start = Now();
    const double end = start + duration;
    for (size_t i = 0; i < kSaturationOutstanding; ++i) submit();
    size_t head = 0, in_window = 0;
    double last = start;
    while (head < sat_.size()) {
      Resolve(sat_[head]);
      if (sat_[head].done <= end) {
        if (sat_[head].result.status.ok()) ++in_window;
        last = sat_[head].done;
        submit();
      }
      ++head;
    }
    run_.metrics["serve_qps"] = in_window / std::max(last - start, 1e-9);
  }

  // Logs how far the sends ran behind their schedule, in every run.
  void ReportLag() {
    std::vector<double> lag;
    size_t late = 0;
    for (const Slot& s : open_) {
      lag.push_back(s.sent - s.due);
      if (s.sent - s.due > kLateS) ++late;
    }
    max_lag_s_ = *std::max_element(lag.begin(), lag.end());
    std::cerr << "generator lag: max " << max_lag_s_ * 1e3 << " ms, p99 "
              << Percentile(lag, 0.99) * 1e3 << " ms, " << late << " of "
              << lag.size() << " sends more than " << kLateS * 1e3
              << " ms late\n";
    if (late > kMaxLateShare * lag.size()) {
      std::cerr << "warning: more than " << kMaxLateShare * 100
                << " % of sends were late; query latencies include the"
                << " generator's own delay\n";
    }
  }

  static void SleepUntil(double t) {
    const double d = t - Now();
    if (d > 0) std::this_thread::sleep_for(std::chrono::duration<double>(d));
  }

  Run& run_;
  std::unique_ptr<hcpath::GraphStore> store_;
  std::unique_ptr<hcpath::PathEngine> engine_;
  std::vector<Query> templates_;
  std::vector<uint32_t> stream_;
  std::vector<std::vector<Update>> updates_;
  std::vector<Slot> open_;
  std::deque<Slot> sat_;
  std::vector<std::pair<double, double>> update_spans_;
  size_t applied_ = 0;
  double max_lag_s_ = 0;
  double open_s_ = 0;
};

}  // namespace
}  // namespace bench

namespace bench {
namespace {

std::map<std::string, std::string> ParseArgs(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      Die("bad argument " + std::string(argv[i]));
    }
    kv[argv[i] + 2] = argv[i + 1];
  }
  return kv;
}

std::string Get(const std::map<std::string, std::string>& kv,
                const std::string& key) {
  auto it = kv.find(key);
  if (it == kv.end()) Die("missing --" + key);
  return it->second;
}

int Snapshot(const std::string& dir) {
  const hcpath::Graph g = Unwrap(hcpath::LoadEdgeListText(dir + "/graph.txt"),
                                 "LoadEdgeListText");
  Check(hcpath::SaveGraphSnapshot(g, dir + "/graph.snap"), "SaveGraphSnapshot");
  return 0;
}

// One cold set-up, in a process of its own: the graph file on disk to the
// workload's first part ready for its first query.
int Setup(const std::string& dir) {
  Run run;
  run.dir = dir;
  run.plan = ReadPlan(run.File("plan.txt"));
  double t = 0;
  if (run.plan.at("service_first") != 0) {
    ServicePart service(run);
    t = service.Setup();
  } else {
    OfflinePart offline(run);
    t = offline.Setup();
  }
  std::ofstream out(run.File("setup.txt"), std::ios::app);
  out << std::setprecision(17) << t << '\n';
  if (!out) Die("cannot write setup.txt");
  return 0;
}

int RunWorkload(const std::map<std::string, std::string>& kv) {
  Run run;
  run.dir = Get(kv, "dir");
  run.seconds = std::stod(Get(kv, "seconds"));
  run.threads = std::stoi(Get(kv, "threads"));
  run.trace = Get(kv, "trace") == "1";
  run.seed = std::stoull(Get(kv, "seed"));
  run.plan = ReadPlan(run.File("plan.txt"));

  OfflinePart offline(run);
  ServicePart service(run);
  const bool service_first = run.plan.at("service_first") != 0;
  // setup_s comes from separate `setup` processes; here the workload's own
  // part is still set up first, as it is there.
  if (service_first) {
    service.Setup();
    offline.Setup();
  } else {
    offline.Setup();
    service.Setup();
  }
  const double s = run.seconds;
  auto offline_timed = [&] { offline.Timed(s * run.plan.at("offline_share")); };
  auto service_timed = [&] {
    service.Timed(s * run.plan.at("open_share"),
                  s * run.plan.at("saturation_share"));
  };

  if (!run.trace) {
    if (service_first) {
      service_timed();
      offline_timed();
    } else {
      offline_timed();
      service_timed();
    }
    run.metrics["peak_rss_mb"] = PeakRssMb();
    offline.CheckOutputs();
    service.CheckOutputs();
  } else {
    run.metrics.clear();
    offline.Traced();
    service_timed();
    service.Traced();
    offline.CheckOutputs();
    service.CheckOutputs();
    if (run.metrics.at("emit.paths") != offline.oracle_paths()) {
      Die("paths_emitted differs from the oracle's total");
    }
    for (const char* end_to_end :
         {"batch_s", "basic_batch_s", "query_p50_ms", "query_p99_ms",
          "serve_qps", "update_p50_ms"}) {
      run.metrics.erase(end_to_end);
    }
    run.tracer.Write(run.File("trace.json"));
  }

  std::ofstream out = OpenOut(run.File("result.txt"));
  out << std::setprecision(17);
  out << "attempted " << run.attempted << '\n';
  out << "failed " << run.failed << '\n';
  for (const auto& [name, value] : run.metrics) {
    out << "metric " << name << ' ' << value << '\n';
  }
  out << "wall_s " << Now() << '\n';
  if (!out) Die("cannot write result.txt");
  return 0;
}

}  // namespace
}  // namespace bench

int main(int argc, char** argv) {
  try {
    if (argc < 2) {
      bench::Die("usage: hcbench_run snapshot|setup|run --key value ...");
    }
    const std::string cmd = argv[1];
    const auto kv = bench::ParseArgs(argc, argv);
    if (cmd == "snapshot") return bench::Snapshot(bench::Get(kv, "dir"));
    if (cmd == "setup") return bench::Setup(bench::Get(kv, "dir"));
    if (cmd == "run") return bench::RunWorkload(kv);
    bench::Die("unknown command " + cmd);
  } catch (const std::exception& e) {
    std::cerr << "hcbench_run: " << e.what() << '\n';
    return 1;
  }
}
