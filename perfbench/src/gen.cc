// hcbench_gen: makes a workload's inputs from a seed and holds the oracle.
//
//   hcbench_gen gen --workload W --seed N --seconds S --out DIR
//       writes graph.txt, offline.q, templates.q, stream.txt, updates.txt,
//       offline.digests (the oracle's answers), plan.txt (service-phase
//       constants for the runner) and meta.txt (make-up and µ of each batch)
//   hcbench_gen verify-serve --dir DIR
//       replays updates.txt on a shadow edge set and checks the runner's
//       sampled service results (serve_samples.txt) against the oracle at
//       each result's graph epoch, and the final edge set (final_state.txt)
//
// Nothing here uses the library: the program under test only ever sees the
// files written by `gen`.
#include <bit>
#include <cmath>
#include <cstring>
#include <iostream>
#include <map>

#include "bench_common.h"
#include "oracle.h"

namespace bench {
namespace {

// ----------------------------------------------------------- constants

constexpr Vid kVertices = 50000;
constexpr int kMinOutDegree = 5;
constexpr int kMaxOutDegree = 24;
constexpr double kDegreeExponent = 1.5;  // mean out-degree about 10.5
constexpr int kMaxLocalOffset = 24;
constexpr double kLongEdgeProb = 0.004;
// A query with more paths than this is redrawn: it bounds the work of one
// query so that no single query dominates a run.
constexpr uint64_t kMaxPathsPerQuery = 4095;
// The random family spreads its queries' path counts evenly over the
// buckets [1, 2), [2, 4), ..., [2048, 4096), close to the natural spread;
// the grouped family spreads its groups' total path counts over [1, 16),
// [16, 32), ..., [8192, 32768) in the shares a large unstratified sample
// showed. Either way batches of different seeds are equally hard.
constexpr int kPathBuckets = 12;
constexpr double kGroupBucketShare[] = {0.187, 0.057, 0.064, 0.086,
                                        0.101, 0.121, 0.113, 0.060,
                                        0.090, 0.084, 0.037};
constexpr uint64_t kRelaxAfter = 20000;

constexpr int kGroupSize = 8;
constexpr double kRepeatProb = 0.15;
constexpr int kGroupWindow = 24;

// Service traffic. Six edge changes per update batch and Zipf skew 1.1 are
// the values bench/exp11_dynamic and bench/exp10_overload already use. One
// batch every 50 ms gives every run at least 100 update batches, enough for
// a steady median of their latency in a 15 s run.
constexpr size_t kUpdateBatchSize = 6;
constexpr double kUpdatePeriodS = 0.05;
constexpr double kZipfExponent = 1.1;

struct WorkloadSpec {
  const char* name;
  int offline_grouped;   // queries in grouped (shared) families
  int offline_random;    // uniformly random reachable pairs
  bool offline_is_pool;  // the offline batch is the template pool itself
  int tmpl_grouped;
  int tmpl_random;
  double rate_qps;         // open-loop arrival rate of the service phase
  double offline_share;    // of --seconds, spent on the offline batch
  double open_share;       // ... on the open-loop service phase
  double saturation_share; // ... on the saturation phase
  bool service_first;      // serve_mixed times the service part first
};

// 600 queries/s is at most a third of the saturation throughput the engine
// reaches with its default options on every workload (medians of 2600 to
// 3500 queries/s on 4 vCPUs, 1800 in the slowest run seen), so no backlog
// grows even while a shared machine runs slow.
const WorkloadSpec kWorkloads[] = {
    {"batch_shared", 512, 0, false, 512, 0, 600, 0.4, 0.35, 0.25, false},
    {"batch_disjoint", 0, 512, false, 0, 512, 600, 0.4, 0.35, 0.25, false},
    {"serve_mixed", 0, 0, true, 256, 256, 600, 0.3, 0.45, 0.25, true},
};

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// -------------------------------------------------------------- graph

// A directed graph with power-law out-degrees and mostly local edges (a
// ring with log-uniform forward offsets plus rare uniform long edges), so
// that k-hop balls stay bounded as in clustered real graphs.
std::vector<uint64_t> MakeGraph(Rng& rng) {
  // Inverse-CDF sampling of a discrete power law on [min, max].
  std::vector<double> cdf;
  double total = 0;
  for (int d = kMinOutDegree; d <= kMaxOutDegree; ++d) {
    total += std::pow(d, -kDegreeExponent);
    cdf.push_back(total);
  }
  std::vector<uint64_t> keys;
  keys.reserve(static_cast<size_t>(kVertices) * 11);
  std::vector<Vid> targets;
  for (Vid u = 0; u < kVertices; ++u) {
    const double x = rng.Unit() * total;
    const int deg = kMinOutDegree + static_cast<int>(
        std::lower_bound(cdf.begin(), cdf.end(), x) - cdf.begin());
    targets.clear();
    for (int tries = 0; static_cast<int>(targets.size()) < deg && tries < 8 * deg;
         ++tries) {
      Vid v;
      if (rng.Unit() < kLongEdgeProb) {
        v = static_cast<Vid>(rng.Below(kVertices));
      } else {
        const int off = static_cast<int>(
            std::exp(rng.Unit() * std::log(kMaxLocalOffset + 1.0)));
        v = static_cast<Vid>((u + std::max(1, off)) % kVertices);
      }
      if (v == u ||
          std::find(targets.begin(), targets.end(), v) != targets.end()) {
        continue;
      }
      targets.push_back(v);
    }
    for (Vid v : targets) keys.push_back(EdgeKey(u, v));
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

// ------------------------------------------------------------ queries

class QueryMaker {
 public:
  QueryMaker(const Adjacency& adj, Rng& rng)
      : adj_(adj), rng_(rng), oracle_(adj) {}

  // Uniformly random reachable pairs: s uniform, t uniform over the
  // vertices within k hops of s.
  std::vector<Query> Random(int count, int kmin, int kmax) {
    StartFamily(count);
    std::vector<Query> out;
    while (static_cast<int>(out.size()) < count) {
      Query q;
      q.s = static_cast<Vid>(rng_.Below(adj_.n));
      q.k = NextK(kmin, kmax);
      CappedBfs(adj_.out, q.s, q.k, dist_, order_);
      if (order_.size() < 2) continue;
      q.t = order_[1 + rng_.Below(order_.size() - 1)];
      if (Accept(q)) out.push_back(q);
    }
    return out;
  }

  // Groups of kGroupSize queries: each group fixes a source and draws its
  // targets from a small id window around one vertex of the source's
  // ball, with some exact repeats. Groups are stratified by their total
  // path count.
  std::vector<Query> Grouped(int count, int kmin, int kmax) {
    const int groups = (count + kGroupSize - 1) / kGroupSize;
    std::vector<double> shares(std::begin(kGroupBucketShare),
                               std::end(kGroupBucketShare));
    StartFamily(groups, shares);
    std::vector<Query> out;
    while (static_cast<int>(out.size()) < count) {
      const Vid s = static_cast<Vid>(rng_.Below(adj_.n));
      CappedBfs(adj_.out, s, kmax, dist_, order_);
      if (order_.size() < 2) continue;
      const Vid center = order_[1 + rng_.Below(order_.size() - 1)];
      std::vector<Query> group;
      uint64_t total = 0;
      for (int tries = 0;
           static_cast<int>(group.size()) < kGroupSize && tries < 200;
           ++tries) {
        if (!group.empty() && rng_.Unit() < kRepeatProb) {
          const size_t pick = rng_.Below(group.size());
          total += counts_[pick];
          group.push_back(group[pick]);
          counts_.push_back(counts_[pick]);
          continue;
        }
        Query q;
        q.s = s;
        q.k = NextK(kmin, kmax);
        const int off = rng_.Between(-kGroupWindow, kGroupWindow);
        q.t = static_cast<Vid>((static_cast<int64_t>(center) + off +
                                adj_.n) % adj_.n);
        if (q.t == s || dist_[q.t] > q.k) continue;
        const uint64_t paths = Paths(q);
        if (paths == 0) continue;
        if (group.empty()) counts_.clear();
        ++accepted_;
        group.push_back(q);
        counts_.push_back(paths);
        total += paths;
      }
      if (static_cast<int>(group.size()) < kGroupSize) continue;
      const int bucket = GroupBucket(total);
      if (!HasRoom(bucket)) continue;
      Take(bucket);
      for (const Query& q : group) {
        if (static_cast<int>(out.size()) < count) out.push_back(q);
      }
    }
    return out;
  }

 private:
  // Per-bucket quotas for `count` items in the given shares (equal shares
  // over kPathBuckets by default), by largest remainder.
  void StartFamily(int count, std::vector<double> shares = {}) {
    if (shares.empty()) shares.assign(kPathBuckets, 1.0 / kPathBuckets);
    filled_.assign(shares.size(), 0);
    quota_.assign(shares.size(), 0);
    rejected_ = 0;
    double sum = 0;
    for (double x : shares) sum += x;
    std::vector<std::pair<double, size_t>> rest;
    int given = 0;
    for (size_t b = 0; b < shares.size(); ++b) {
      const double exact = count * shares[b] / sum;
      quota_[b] = static_cast<int>(exact);
      given += quota_[b];
      rest.push_back({quota_[b] - exact, b});
    }
    std::sort(rest.begin(), rest.end());
    for (int i = 0; given < count; ++i, ++given) ++quota_[rest[i].second];
  }

  static int GroupBucket(uint64_t total) {
    int b = 0;
    const int last = static_cast<int>(std::size(kGroupBucketShare)) - 1;
    while (total >= 16 && b < last) {
      total /= 2;
      ++b;
    }
    return b;
  }

  static int Bucket(uint64_t paths) {
    int b = 0;
    while (paths >= 2 && b + 1 < kPathBuckets) {
      paths /= 2;
      ++b;
    }
    return b;
  }

  // A bucket has room while under its quota. After kRelaxAfter rejected
  // candidates any bucket has room, so a seed whose graph cannot fill one
  // still finishes.
  bool HasRoom(int bucket) {
    if (filled_[bucket] < quota_[bucket]) return true;
    return ++rejected_ > kRelaxAfter;
  }

  void Take(int bucket) { ++filled_[bucket]; }

  // The query's path count if reachable within k and at most
  // kMaxPathsPerQuery, else 0. `dist_` belongs to the caller's BFS, so
  // this uses a second buffer.
  uint64_t Paths(const Query& q) {
    CappedBfs(adj_.out, q.s, q.k, check_dist_, check_order_);
    if (check_dist_[q.t] > q.k) return 0;
    uint64_t n = 0;
    const bool within = oracle_.Enumerate(
        q, kMaxPathsPerQuery, [&](const Vid*, size_t) { ++n; });
    return within ? n : 0;
  }

  // k cycles through [kmin, kmax] over accepted queries rather than being
  // drawn, so every batch has the same k mix whatever the seed.
  int NextK(int kmin, int kmax) const {
    return kmin + static_cast<int>(accepted_ % (kmax - kmin + 1));
  }

  // Reachable within k (checked by BFS), at most kMaxPathsPerQuery paths,
  // and room left in its path-count bucket.
  bool Accept(const Query& q) {
    const uint64_t paths = Paths(q);
    if (paths == 0 || !HasRoom(Bucket(paths))) return false;
    Take(Bucket(paths));
    ++accepted_;
    return true;
  }

  const Adjacency& adj_;
  Rng& rng_;
  Oracle oracle_;
  std::vector<uint8_t> dist_, check_dist_;
  std::vector<Vid> order_, check_order_;
  uint64_t accepted_ = 0;
  uint64_t rejected_ = 0;
  std::vector<uint64_t> counts_;  // path counts of the group being built
  std::vector<int> filled_, quota_;
};

// Average pairwise similarity µ (the paper's Def 4.5) computed exactly:
// for each pair, the harmonic mean of the overlap coefficients of the
// forward k-hop balls of the sources and the backward k-hop balls of the
// targets, 0 when either intersection is empty. With `group` > 0 only
// pairs inside the same block of `group` consecutive queries count.
double AverageSimilarity(const Adjacency& adj, const std::vector<Query>& qs,
                         size_t group = 0) {
  const size_t n = qs.size();
  if (n < 2) return 0;
  const size_t words = (adj.n + 63) / 64;
  std::vector<uint64_t> fwd(n * words, 0), bwd(n * words, 0);
  std::vector<uint64_t> fsize(n), bsize(n);
  std::vector<uint8_t> dist;
  std::vector<Vid> order;
  for (size_t i = 0; i < n; ++i) {
    CappedBfs(adj.out, qs[i].s, qs[i].k, dist, order);
    for (Vid v : order) fwd[i * words + v / 64] |= 1ULL << (v % 64);
    fsize[i] = order.size();
    CappedBfs(adj.in, qs[i].t, qs[i].k, dist, order);
    for (Vid v : order) bwd[i * words + v / 64] |= 1ULL << (v % 64);
    bsize[i] = order.size();
  }
  auto overlap = [&](const std::vector<uint64_t>& bits,
                     const std::vector<uint64_t>& size, size_t a, size_t b) {
    uint64_t common = 0;
    for (size_t w = 0; w < words; ++w) {
      common += std::popcount(bits[a * words + w] & bits[b * words + w]);
    }
    return static_cast<double>(common) / std::min(size[a], size[b]);
  };
  double sum = 0;
  uint64_t pairs = 0;
  for (size_t a = 0; a < n; ++a) {
    const size_t end = group > 0 ? std::min(n, (a / group + 1) * group) : n;
    for (size_t b = a + 1; b < end; ++b) {
      const double of = overlap(fwd, fsize, a, b);
      const double ob = overlap(bwd, bsize, a, b);
      if (of > 0 && ob > 0) sum += 2 * of * ob / (of + ob);
      ++pairs;
    }
  }
  return pairs > 0 ? sum / static_cast<double>(pairs) : 0;
}

// ------------------------------------------------------------ updates

// Batches of kUpdateBatchSize edge changes, half adds (drawn like the
// generator's edges) and half removes of edges present at that point.
std::vector<std::vector<Update>> MakeUpdates(Adjacency shadow, size_t batches,
                                             Rng& rng) {
  std::vector<std::vector<Update>> out;
  for (size_t b = 0; b < batches; ++b) {
    std::vector<Update> batch;
    while (batch.size() < kUpdateBatchSize) {
      Update up;
      up.u = static_cast<Vid>(rng.Below(shadow.n));
      if (batch.size() % 2 == 0) {
        up.add = true;
        if (rng.Unit() < kLongEdgeProb) {
          up.v = static_cast<Vid>(rng.Below(shadow.n));
        } else {
          const int off = static_cast<int>(
              std::exp(rng.Unit() * std::log(kMaxLocalOffset + 1.0)));
          up.v = static_cast<Vid>((up.u + std::max(1, off)) % shadow.n);
        }
        if (up.v == up.u) continue;
      } else {
        up.add = false;
        const auto& outs = shadow.out[up.u];
        if (outs.empty()) continue;
        up.v = outs[rng.Below(outs.size())];
      }
      batch.push_back(up);
    }
    shadow.Apply(batch);
    out.push_back(std::move(batch));
  }
  return out;
}

// Zipf-distributed template indices (rank r has weight (r + 1)^-s).
std::vector<uint32_t> MakeStream(size_t templates, size_t length, Rng& rng) {
  std::vector<double> cdf;
  double total = 0;
  for (size_t r = 0; r < templates; ++r) {
    total += std::pow(static_cast<double>(r + 1), -kZipfExponent);
    cdf.push_back(total);
  }
  std::vector<uint32_t> out(length);
  for (uint32_t& x : out) {
    x = static_cast<uint32_t>(
        std::lower_bound(cdf.begin(), cdf.end(), rng.Unit() * total) -
        cdf.begin());
    x = std::min<uint32_t>(x, static_cast<uint32_t>(templates - 1));
  }
  return out;
}

struct Args {
  std::map<std::string, std::string> kv;
  std::string Get(const std::string& key) const {
    auto it = kv.find(key);
    if (it == kv.end()) Die("missing --" + key);
    return it->second;
  }
};

Args ParseArgs(int argc, char** argv, int first) {
  Args a;
  for (int i = first; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) Die("bad argument " + std::string(argv[i]));
    a.kv[argv[i] + 2] = argv[i + 1];
  }
  return a;
}

std::string Join(const std::string& dir, const char* file) {
  return dir + "/" + file;
}

int Gen(const Args& args) {
  const WorkloadSpec* w = FindWorkload(args.Get("workload"));
  if (w == nullptr) Die("unknown workload " + args.Get("workload"));
  const uint64_t seed = std::stoull(args.Get("seed"));
  const double seconds = std::stod(args.Get("seconds"));
  const std::string dir = args.Get("out");

  Rng rng(Mix64(seed) ^ 0x7f4a7c15f39cc060ULL);
  std::vector<uint64_t> keys = MakeGraph(rng);
  const Adjacency adj = Adjacency::FromEdges(kVertices, keys);
  WriteGraph(Join(dir, "graph.txt"), kVertices, keys);

  QueryMaker maker(adj, rng);
  std::vector<Query> pool = maker.Grouped(w->tmpl_grouped, 4, 6);
  for (const Query& q : maker.Random(w->tmpl_random, 5, 7)) pool.push_back(q);
  // Popularity rank r (the pool index the stream draws) goes to the
  // template at cost quantile frac((r + 0.5) * golden ratio), by path
  // count: popularity stays independent of cost, but the popular head has
  // the same cost profile whatever the seed.
  {
    for (size_t i = pool.size(); i > 1; --i) {
      std::swap(pool[i - 1], pool[rng.Below(i)]);
    }
    Oracle oracle(adj);
    std::vector<std::pair<uint64_t, size_t>> by_cost;
    for (size_t i = 0; i < pool.size(); ++i) {
      by_cost.push_back({oracle.Digest(pool[i]).count, i});
    }
    std::sort(by_cost.begin(), by_cost.end());
    std::vector<std::pair<double, size_t>> by_key;
    for (size_t r = 0; r < pool.size(); ++r) {
      const double key = (r + 0.5) * 0.6180339887498949;
      by_key.push_back({key - std::floor(key), r});
    }
    std::sort(by_key.begin(), by_key.end());
    std::vector<Query> ranked(pool.size());
    for (size_t j = 0; j < pool.size(); ++j) {
      ranked[by_key[j].second] = pool[by_cost[j].second];
    }
    pool = std::move(ranked);
  }
  std::vector<Query> offline;
  if (w->offline_is_pool) {
    offline = pool;
  } else {
    offline = maker.Grouped(w->offline_grouped, 4, 6);
    for (const Query& q : maker.Random(w->offline_random, 5, 7)) {
      offline.push_back(q);
    }
  }
  WriteQueries(Join(dir, "offline.q"), offline);
  WriteQueries(Join(dir, "templates.q"), pool);

  Oracle oracle(adj);
  std::vector<PathSetDigest> digests;
  uint64_t total_paths = 0;
  for (const Query& q : offline) {
    digests.push_back(oracle.Digest(q));
    total_paths += digests.back().count;
  }
  WriteDigests(Join(dir, "offline.digests"), digests);

  // Enough arrivals and update batches for the whole service phase at any
  // run length; the runner uses a prefix (and wraps the stream).
  const size_t stream_len = 20000;
  std::vector<uint32_t> stream = MakeStream(pool.size(), stream_len, rng);
  {
    std::ofstream out = OpenOut(Join(dir, "stream.txt"));
    for (uint32_t x : stream) out << x << '\n';
  }
  const size_t update_batches =
      static_cast<size_t>(seconds * w->open_share / kUpdatePeriodS) + 4;
  WriteUpdates(Join(dir, "updates.txt"), MakeUpdates(adj, update_batches, rng));

  {
    std::ofstream plan = OpenOut(Join(dir, "plan.txt"));
    plan << "rate_qps " << w->rate_qps << '\n'
         << "update_period_s " << kUpdatePeriodS << '\n'
         << "offline_share " << w->offline_share << '\n'
         << "open_share " << w->open_share << '\n'
         << "saturation_share " << w->saturation_share << '\n'
         << "service_first " << (w->service_first ? 1 : 0) << '\n';
  }
  {
    std::ofstream meta = OpenOut(Join(dir, "meta.txt"));
    meta << "vertices " << adj.n << '\n'
         << "edges " << keys.size() << '\n'
         << "offline_queries " << offline.size() << '\n'
         << "offline_paths " << total_paths << '\n'
         << "offline_mu " << AverageSimilarity(adj, offline) << '\n';
    if (w->offline_grouped > 0) {
      meta << "offline_within_group_mu "
           << AverageSimilarity(adj, offline, kGroupSize) << '\n';
    }
    meta
         << "templates " << pool.size() << '\n'
         << "templates_mu " << AverageSimilarity(adj, pool) << '\n'
         << "update_batches " << update_batches << '\n';
  }
  return 0;
}

int VerifyServe(const Args& args) {
  const std::string dir = args.Get("dir");
  Vid n = 0;
  std::vector<uint64_t> keys;
  ReadGraph(Join(dir, "graph.txt"), &n, &keys);
  Adjacency shadow = Adjacency::FromEdges(n, keys);
  keys.clear();
  const auto batches = ReadUpdates(Join(dir, "updates.txt"));

  struct Sample {
    Query q;
    uint64_t epoch;
    PathSetDigest d;
  };
  std::multimap<uint64_t, Sample> by_epoch;
  {
    std::ifstream in = OpenIn(Join(dir, "serve_samples.txt"));
    Sample s;
    while (in >> s.q.s >> s.q.t >> s.q.k >> s.epoch >> s.d.count >> s.d.sum) {
      by_epoch.emplace(s.epoch, s);
    }
  }
  uint64_t applied = 0, final_edges = 0, final_hash = 0;
  {
    std::ifstream in = OpenIn(Join(dir, "final_state.txt"));
    if (!(in >> applied >> final_edges >> final_hash)) {
      Die("bad final_state.txt");
    }
  }
  if (applied > batches.size()) Die("runner applied more batches than exist");
  if (by_epoch.empty()) Die("no service samples to check");

  Oracle oracle(shadow);
  size_t checked = 0;
  for (uint64_t epoch = 0; epoch <= applied; ++epoch) {
    if (epoch > 0) shadow.Apply(batches[epoch - 1]);
    auto range = by_epoch.equal_range(epoch);
    for (auto it = range.first; it != range.second; ++it) {
      const Sample& s = it->second;
      const PathSetDigest want = oracle.Digest(s.q);
      if (want != s.d) {
        std::cerr << "serve result mismatch at epoch " << epoch << ": query "
                  << s.q.s << "->" << s.q.t << " k=" << s.q.k << " got "
                  << s.d.count << " paths, oracle " << want.count << '\n';
        return 1;
      }
      ++checked;
    }
  }
  if (checked != by_epoch.size()) {
    std::cerr << "a service sample names an epoch beyond the applied updates\n";
    return 1;
  }
  if (shadow.num_edges != final_edges || shadow.EdgeHash() != final_hash) {
    std::cerr << "store edge set differs from the shadow set after "
              << applied << " update batches (" << final_edges << " vs "
              << shadow.num_edges << " edges)\n";
    return 1;
  }
  std::cout << "verify-serve: " << checked << " sampled results and the "
            << "final edge set match the oracle\n";
  return 0;
}

}  // namespace
}  // namespace bench

int main(int argc, char** argv) {
  try {
    if (argc < 2) bench::Die("usage: hcbench_gen gen|verify-serve --key value ...");
    const std::string cmd = argv[1];
    const bench::Args args = bench::ParseArgs(argc, argv, 2);
    if (cmd == "gen") return bench::Gen(args);
    if (cmd == "verify-serve") return bench::VerifyServe(args);
    bench::Die("unknown command " + cmd);
  } catch (const std::exception& e) {
    std::cerr << "hcbench_gen: " << e.what() << '\n';
    return 2;
  }
}
