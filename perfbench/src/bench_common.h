// Benchmark-owned primitives shared by the input generator, the oracle and
// the runner: a seeded RNG, the path and edge-set hashes, the input file
// formats, and plain adjacency lists. Nothing here includes the library's
// headers, so a change to the library cannot change what the benchmark
// generates or how it checks results.
#ifndef PERFBENCH_BENCH_COMMON_H_
#define PERFBENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace bench {

using Vid = uint32_t;

struct Query {
  Vid s = 0;
  Vid t = 0;
  int k = 0;
};

struct Update {
  bool add = true;
  Vid u = 0;
  Vid v = 0;
};

[[noreturn]] inline void Die(const std::string& msg) {
  throw std::runtime_error(msg);
}

// ------------------------------------------------------------------ RNG

inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

// splitmix64: small, seedable, and identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ULL + 1) {}
  uint64_t Next() {
    state_ += 0x9E3779B97F4A7C15ULL;
    return Mix64(state_);
  }
  // Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }
  // Uniform in [lo, hi].
  int Between(int lo, int hi) {
    return lo + static_cast<int>(Below(static_cast<uint64_t>(hi - lo + 1)));
  }
  double Unit() { return (Next() >> 11) * (1.0 / 9007199254740992.0); }

 private:
  uint64_t state_;
};

// ---------------------------------------------------------------- hashes

// Hash of one path as a vertex sequence. Order-sensitive within the path.
inline uint64_t PathHash(const Vid* p, size_t n) {
  uint64_t h = Mix64(0x51ed270b27a5f3c1ULL ^ n);
  for (size_t i = 0; i < n; ++i) h = Mix64(h ^ (p[i] + 0x9E3779B97F4A7C15ULL));
  return h;
}

// Order-independent fingerprint of a multiset of paths: a count plus the
// wrapping sum of the path hashes. A dropped, altered or duplicated path
// changes it.
struct PathSetDigest {
  uint64_t count = 0;
  uint64_t sum = 0;
  void Add(uint64_t path_hash) {
    ++count;
    sum += path_hash;
  }
  bool operator==(const PathSetDigest& o) const {
    return count == o.count && sum == o.sum;
  }
  bool operator!=(const PathSetDigest& o) const { return !(*this == o); }
};

inline uint64_t EdgeKey(Vid u, Vid v) {
  return (static_cast<uint64_t>(u) << 32) | v;
}

// Order-independent fingerprint of one edge; an edge set's fingerprint is
// the wrapping sum over its edges.
inline uint64_t EdgeHash(Vid u, Vid v) {
  return Mix64(EdgeKey(u, v) ^ 0x2545F4914F6CDD1DULL);
}

// ------------------------------------------------------------ adjacency

// Plain sorted out- and in-adjacency lists over vertex ids [0, n). Also the
// shadow edge set the oracle replays updates on.
struct Adjacency {
  Vid n = 0;
  uint64_t num_edges = 0;
  std::vector<std::vector<Vid>> out, in;

  static Adjacency FromEdges(Vid n, const std::vector<uint64_t>& keys) {
    Adjacency a;
    a.n = n;
    a.out.assign(n, {});
    a.in.assign(n, {});
    for (uint64_t key : keys) {
      const Vid u = static_cast<Vid>(key >> 32);
      const Vid v = static_cast<Vid>(key & 0xffffffffu);
      a.out[u].push_back(v);
      a.in[v].push_back(u);
    }
    for (auto& l : a.out) std::sort(l.begin(), l.end());
    for (auto& l : a.in) std::sort(l.begin(), l.end());
    a.num_edges = keys.size();
    return a;
  }

  bool Has(Vid u, Vid v) const {
    return std::binary_search(out[u].begin(), out[u].end(), v);
  }

  // Applies one update batch in order, so the last operation on an edge
  // wins. Self-loops are ignored, as the program ignores them.
  void Apply(const std::vector<Update>& batch) {
    for (const Update& up : batch) {
      if (up.u == up.v) continue;
      if (up.u >= n || up.v >= n) Die("update names a vertex out of range");
      auto& o = out[up.u];
      auto& i = in[up.v];
      auto oit = std::lower_bound(o.begin(), o.end(), up.v);
      const bool present = oit != o.end() && *oit == up.v;
      if (up.add && !present) {
        o.insert(oit, up.v);
        i.insert(std::lower_bound(i.begin(), i.end(), up.u), up.u);
        ++num_edges;
      } else if (!up.add && present) {
        o.erase(oit);
        i.erase(std::lower_bound(i.begin(), i.end(), up.u));
        --num_edges;
      }
    }
  }

  uint64_t EdgeHash() const {
    uint64_t h = 0;
    for (Vid u = 0; u < n; ++u) {
      for (Vid v : out[u]) h += bench::EdgeHash(u, v);
    }
    return h;
  }
};

// Hop distances from `src` over `adj` (out-edges when forward, in-edges
// otherwise), capped at `cap`; 255 = unreached. `dist` is reset by the call.
inline void CappedBfs(const std::vector<std::vector<Vid>>& adj, Vid src,
                      int cap, std::vector<uint8_t>& dist,
                      std::vector<Vid>& order) {
  dist.assign(adj.size(), 255);
  order.clear();
  dist[src] = 0;
  order.push_back(src);
  for (size_t head = 0; head < order.size(); ++head) {
    const Vid u = order[head];
    if (dist[u] >= cap) continue;
    for (Vid v : adj[u]) {
      if (dist[v] == 255) {
        dist[v] = static_cast<uint8_t>(dist[u] + 1);
        order.push_back(v);
      }
    }
  }
}

// ------------------------------------------------------------ file I/O

inline std::ifstream OpenIn(const std::string& path) {
  std::ifstream in(path);
  if (!in) Die("cannot open " + path);
  return in;
}

inline std::ofstream OpenOut(const std::string& path) {
  std::ofstream out(path);
  if (!out) Die("cannot create " + path);
  return out;
}

// graph.txt: a SNAP-style edge list, "u v" per line, '#' comments. The
// header comment carries the vertex count so isolated high ids survive.
inline void WriteGraph(const std::string& path, Vid n,
                       const std::vector<uint64_t>& keys) {
  std::ofstream out = OpenOut(path);
  out << "# vertices " << n << " edges " << keys.size() << "\n";
  for (uint64_t key : keys) {
    out << (key >> 32) << ' ' << (key & 0xffffffffu) << '\n';
  }
  if (!out) Die("write failed: " + path);
}

inline void ReadGraph(const std::string& path, Vid* n,
                      std::vector<uint64_t>* keys) {
  std::ifstream in = OpenIn(path);
  std::string line;
  *n = 0;
  keys->clear();
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      unsigned long long value = 0;
      if (std::sscanf(line.c_str(), "# vertices %llu", &value) == 1) {
        *n = std::max<Vid>(*n, static_cast<Vid>(value));
      }
      continue;
    }
    char* end = nullptr;
    const unsigned long long u = std::strtoull(line.c_str(), &end, 10);
    char* end2 = nullptr;
    const unsigned long long v = std::strtoull(end, &end2, 10);
    if (end == line.c_str() || end2 == end || u >= UINT32_MAX ||
        v >= UINT32_MAX) {
      Die("bad edge line in " + path + ": " + line);
    }
    keys->push_back(EdgeKey(static_cast<Vid>(u), static_cast<Vid>(v)));
    *n = std::max<Vid>(*n, static_cast<Vid>(std::max(u, v) + 1));
  }
  std::sort(keys->begin(), keys->end());
}

inline void WriteQueries(const std::string& path,
                         const std::vector<Query>& qs) {
  std::ofstream out = OpenOut(path);
  for (const Query& q : qs) out << q.s << ' ' << q.t << ' ' << q.k << '\n';
  if (!out) Die("write failed: " + path);
}

inline std::vector<Query> ReadQueries(const std::string& path) {
  std::ifstream in = OpenIn(path);
  std::vector<Query> qs;
  Query q;
  while (in >> q.s >> q.t >> q.k) qs.push_back(q);
  return qs;
}

// updates.txt: one batch per line, "+u,v" / "-u,v" items separated by
// spaces.
inline void WriteUpdates(const std::string& path,
                         const std::vector<std::vector<Update>>& batches) {
  std::ofstream out = OpenOut(path);
  for (const auto& b : batches) {
    for (size_t i = 0; i < b.size(); ++i) {
      out << (i ? " " : "") << (b[i].add ? '+' : '-') << b[i].u << ','
          << b[i].v;
    }
    out << '\n';
  }
  if (!out) Die("write failed: " + path);
}

inline std::vector<std::vector<Update>> ReadUpdates(const std::string& path) {
  std::ifstream in = OpenIn(path);
  std::vector<std::vector<Update>> batches;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string item;
    std::vector<Update> b;
    while (ls >> item) {
      Update up;
      up.add = item[0] == '+';
      unsigned long long u = 0, v = 0;
      if (std::sscanf(item.c_str() + 1, "%llu,%llu", &u, &v) != 2) {
        Die("bad update item in " + path);
      }
      up.u = static_cast<Vid>(u);
      up.v = static_cast<Vid>(v);
      b.push_back(up);
    }
    batches.push_back(std::move(b));
  }
  return batches;
}

inline std::vector<uint32_t> ReadInts(const std::string& path) {
  std::ifstream in = OpenIn(path);
  std::vector<uint32_t> v;
  uint32_t x = 0;
  while (in >> x) v.push_back(x);
  return v;
}

// digests files: "count sum" per line, aligned with a query file.
inline void WriteDigests(const std::string& path,
                         const std::vector<PathSetDigest>& ds) {
  std::ofstream out = OpenOut(path);
  for (const PathSetDigest& d : ds) out << d.count << ' ' << d.sum << '\n';
  if (!out) Die("write failed: " + path);
}

inline std::vector<PathSetDigest> ReadDigests(const std::string& path) {
  std::ifstream in = OpenIn(path);
  std::vector<PathSetDigest> ds;
  PathSetDigest d;
  while (in >> d.count >> d.sum) ds.push_back(d);
  return ds;
}

}  // namespace bench

#endif  // PERFBENCH_BENCH_COMMON_H_
