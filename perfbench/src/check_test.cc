// Plants faults in what the benchmark's output checks receive and expects
// each to be caught: a dropped path, an altered vertex, a duplicated path,
// and a path from the wrong query. Exit 0 when every fault is caught and
// the unaltered output passes.
#include <functional>
#include <iostream>

#include "bench_common.h"
#include "oracle.h"

namespace bench {
namespace {

using Paths = std::vector<std::vector<std::vector<Vid>>>;  // per query

// A ring where each vertex links to the next three: many short paths.
Adjacency TestGraph() {
  const Vid n = 40;
  std::vector<uint64_t> keys;
  for (Vid u = 0; u < n; ++u) {
    for (Vid d = 1; d <= 3; ++d) keys.push_back(EdgeKey(u, (u + d) % n));
  }
  keys.push_back(EdgeKey(7, 2));
  std::sort(keys.begin(), keys.end());
  return Adjacency::FromEdges(n, keys);
}

std::string Check(const Adjacency& adj, const std::vector<Query>& qs,
                  const std::vector<PathSetDigest>& want, const Paths& paths) {
  PathValidator v(adj, qs);
  for (size_t qi = 0; qi < paths.size(); ++qi) {
    for (const auto& p : paths[qi]) v.OnPath(qi, p.data(), p.size());
  }
  return Verdict(v, want);
}

int Main() {
  const Adjacency adj = TestGraph();
  const std::vector<Query> qs = {{0, 6, 4}, {3, 9, 5}, {10, 15, 4}};
  Oracle oracle(adj);
  Paths good(qs.size());
  std::vector<PathSetDigest> want;
  for (size_t qi = 0; qi < qs.size(); ++qi) {
    oracle.Enumerate(qs[qi], 0, [&](const Vid* p, size_t n) {
      good[qi].emplace_back(p, p + n);
    });
    want.push_back(oracle.Digest(qs[qi]));
    if (good[qi].size() < 3) Die("test query has too few paths");
  }

  int failures = 0;
  auto expect = [&](const char* what, bool caught_wanted,
                    const std::function<void(Paths&)>& plant) {
    Paths p = good;
    plant(p);
    const std::string verdict = Check(adj, qs, want, p);
    const bool caught = !verdict.empty();
    std::cout << (caught == caught_wanted ? "ok   " : "FAIL ") << what
              << (caught ? ": " + verdict : std::string(": passed")) << '\n';
    if (caught != caught_wanted) ++failures;
  };
  expect("unaltered output passes", false, [](Paths&) {});
  expect("unaltered output in another order passes", false, [](Paths& p) {
    for (auto& q : p) std::reverse(q.begin(), q.end());
  });
  expect("one dropped path is caught", true,
         [](Paths& p) { p[1].erase(p[1].begin() + 1); });
  expect("one altered interior vertex is caught", true,
         [](Paths& p) { p[1][0][1] = (p[1][0][1] + 1) % 40; });
  expect("one altered end vertex is caught", true,
         [](Paths& p) { p[0][2].back() = 5; });
  expect("one duplicated path is caught", true,
         [](Paths& p) { p[2].push_back(p[2][0]); });
  expect("a path credited to the wrong query is caught", true,
         [](Paths& p) {
           p[0].push_back(p[2].back());
           p[2].pop_back();
         });

  // The same digests guard the timed runs and the service results: one
  // dropped path changes a digest.
  PathSetDigest d = want[1];
  PathSetDigest dropped;
  for (size_t i = 1; i < good[1].size(); ++i) {
    dropped.Add(PathHash(good[1][i].data(), good[1][i].size()));
  }
  const bool digest_caught = dropped != d;
  std::cout << (digest_caught ? "ok   " : "FAIL ")
            << "a digest without one path differs from the full digest\n";
  if (!digest_caught) ++failures;

  std::cout << (failures == 0 ? "all planted faults caught\n"
                              : "some planted faults were missed\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace bench

int main() {
  try {
    return bench::Main();
  } catch (const std::exception& e) {
    std::cerr << "hcbench_check_test: " << e.what() << '\n';
    return 2;
  }
}
