// The benchmark's own answer to an HC-s-t path query, and the checks every
// emitted path must pass. Independent of the library: a plain DFS with
// BFS-distance pruning over bench::Adjacency.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <string>
#include <unordered_set>
#include <vector>

#include "bench_common.h"

namespace bench {

// Enumerates every simple path from q.s to q.t with at most q.k hops and
// calls emit(path, length_in_vertices) for each. Returns false, having
// stopped early, once more than `cap` paths were found (cap 0 = no cap).
class Oracle {
 public:
  explicit Oracle(const Adjacency& adj) : adj_(adj), on_path_(adj.n, 0) {}

  template <typename Emit>
  bool Enumerate(const Query& q, uint64_t cap, Emit&& emit) {
    CappedBfs(adj_.in, q.t, q.k, to_t_, order_);
    found_ = 0;
    cap_ = cap;
    path_.clear();
    if (to_t_[q.s] > q.k) return true;
    return Dfs(q.s, q, emit);
  }

  PathSetDigest Digest(const Query& q) {
    PathSetDigest d;
    Enumerate(q, 0, [&](const Vid* p, size_t n) { d.Add(PathHash(p, n)); });
    return d;
  }

 private:
  template <typename Emit>
  bool Dfs(Vid u, const Query& q, Emit& emit) {
    path_.push_back(u);
    if (u == q.t) {
      emit(path_.data(), path_.size());
      path_.pop_back();
      return cap_ == 0 || ++found_ <= cap_;
    }
    on_path_[u] = 1;
    const int hops = static_cast<int>(path_.size());  // hops after one more
    bool ok = true;
    for (Vid v : adj_.out[u]) {
      if (on_path_[v] || to_t_[v] == 255 || hops + to_t_[v] > q.k) continue;
      if (!Dfs(v, q, emit)) {
        ok = false;
        break;
      }
    }
    on_path_[u] = 0;
    path_.pop_back();
    return ok;
  }

  const Adjacency& adj_;
  std::vector<uint8_t> on_path_;
  std::vector<uint8_t> to_t_;
  std::vector<Vid> order_;
  std::vector<Vid> path_;
  uint64_t found_ = 0;
  uint64_t cap_ = 0;
};

// Checks each emitted path of a batch on its own: it starts at s, ends at
// t, has at most k hops, repeats no vertex, uses only edges of `adj`, and
// is not emitted twice for its query. Also digests each query's path set.
// The first violation is kept in error().
class PathValidator {
 public:
  PathValidator(const Adjacency& adj, const std::vector<Query>& queries)
      : adj_(adj), queries_(queries), digests_(queries.size()) {}

  void OnPath(size_t qi, const Vid* p, size_t n) {
    if (qi >= queries_.size()) return Fail(qi, "query index out of range");
    const Query& q = queries_[qi];
    if (n < 2) return Fail(qi, "path has no edge");
    if (p[0] != q.s) return Fail(qi, "path does not start at s");
    if (p[n - 1] != q.t) return Fail(qi, "path does not end at t");
    if (static_cast<int>(n - 1) > q.k) return Fail(qi, "path exceeds k hops");
    for (size_t i = 0; i < n; ++i) {
      if (p[i] >= adj_.n) return Fail(qi, "vertex out of range");
      for (size_t j = 0; j < i; ++j) {
        if (p[i] == p[j]) return Fail(qi, "path repeats a vertex");
      }
      if (i > 0 && !adj_.Has(p[i - 1], p[i])) {
        return Fail(qi, "path uses an edge not in the graph");
      }
    }
    const uint64_t h = PathHash(p, n);
    if (!seen_.insert(Mix64(h ^ (qi * 0x9E3779B97F4A7C15ULL))).second) {
      return Fail(qi, "path emitted twice");
    }
    digests_[qi].Add(h);
  }

  const std::vector<PathSetDigest>& digests() const { return digests_; }
  const std::string& error() const { return error_; }

 private:
  void Fail(size_t qi, const char* what) {
    if (error_.empty()) {
      error_ = "query " + std::to_string(qi) + ": " + what;
    }
  }

  const Adjacency& adj_;
  const std::vector<Query>& queries_;
  std::vector<PathSetDigest> digests_;
  std::unordered_set<uint64_t> seen_;
  std::string error_;
};

// Compares two per-query digest lists; returns "" when equal, otherwise a
// description of the first difference.
inline std::string CompareDigests(const std::vector<PathSetDigest>& got,
                                  const std::vector<PathSetDigest>& want,
                                  const std::string& what) {
  if (got.size() != want.size()) {
    return what + ": " + std::to_string(got.size()) + " queries vs " +
           std::to_string(want.size());
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i] != want[i]) {
      return what + ": query " + std::to_string(i) + " has " +
             std::to_string(got[i].count) + " paths (digest " +
             std::to_string(got[i].sum) + "), expected " +
             std::to_string(want[i].count) + " (digest " +
             std::to_string(want[i].sum) + ")";
    }
  }
  return "";
}

// The verdict on one validated pass over a batch's output: "" when every
// path passed the validator and each query's path set equals `want`.
inline std::string Verdict(const PathValidator& v,
                           const std::vector<PathSetDigest>& want) {
  if (!v.error().empty()) return "emitted path: " + v.error();
  return CompareDigests(v.digests(), want, "emitted paths vs oracle");
}

}  // namespace bench

#endif  // PERFBENCH_ORACLE_H_
