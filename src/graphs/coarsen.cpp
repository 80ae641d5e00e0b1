#include "graphs/coarsen.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "runtime/parallel_for.hpp"

namespace cirstag::graphs {

namespace {

constexpr std::uint32_t kUnmatched = 0xffffffffu;

/// Fixed chunk sizes for the parallel stages. Like every other grain in the
/// repo these are functions of nothing but the constant itself — chunk
/// boundaries never depend on the pool width, so per-chunk work is identical
/// at any thread count (runtime/parallel_for.hpp's determinism contract).
constexpr std::size_t kProposeGrain = 1024;
constexpr std::size_t kTripletGrain = 8192;

/// Stop when a matching round shrinks the graph by less than this factor
/// (num_coarse > kMinShrink * n means matching stagnated — e.g. a star
/// graph — and further rounds would only burn time).
constexpr double kMinShrink = 0.9;

/// Heaviest neighbor of u over ALL neighbors, ignoring match state: parallel
/// edges sum in incidence order (the same order the serial scan accumulates
/// them, so the per-neighbor doubles are bit-identical), and the winner is
/// the (max weight, then min id) selection — an order-independent reduction.
/// `accum` is caller-provided size-n scratch that must be all-zero on entry
/// and is restored to all-zero on exit.
NodeId propose_partner(const Graph& g, NodeId u, std::vector<double>& accum,
                       std::vector<NodeId>& touched) {
  touched.clear();
  for (const Incidence& inc : g.neighbors(u)) {
    if (accum[inc.neighbor] == 0.0) touched.push_back(inc.neighbor);
    accum[inc.neighbor] += g.edge(inc.edge).weight;
  }
  NodeId best = kUnmatched;
  double best_w = 0.0;
  for (const NodeId v : touched) {
    if (accum[v] > best_w || (accum[v] == best_w && v < best)) {
      best = v;
      best_w = accum[v];
    }
    accum[v] = 0.0;
  }
  return best;
}

/// The historical serial inner scan: heaviest currently-unmatched neighbor
/// of u (parallel edges summed in incidence order, ties toward the smallest
/// id). Used by the resolve pass when the proposed partner was already
/// taken. Scratch contract matches propose_partner.
NodeId serial_partner(const Graph& g, NodeId u,
                      std::span<const std::uint32_t> map,
                      std::vector<double>& accum,
                      std::vector<NodeId>& touched) {
  touched.clear();
  for (const Incidence& inc : g.neighbors(u)) {
    if (map[inc.neighbor] != kUnmatched) continue;  // partner taken
    if (accum[inc.neighbor] == 0.0) touched.push_back(inc.neighbor);
    accum[inc.neighbor] += g.edge(inc.edge).weight;
  }
  NodeId best = kUnmatched;
  double best_w = 0.0;
  for (const NodeId v : touched) {
    // Heaviest aggregate weight; ties resolve toward the smallest id so
    // the matching is a pure function of the edge stream.
    if (accum[v] > best_w || (accum[v] == best_w && v < best)) {
      best = v;
      best_w = accum[v];
    }
    accum[v] = 0.0;
  }
  return best;
}

}  // namespace

bool coarsen_engaged(const CoarsenOptions& opts, std::size_t num_nodes) {
  if (opts.mode == CoarsenMode::off) return false;
  if (opts.max_levels == 0) return false;
  return num_nodes >= opts.auto_threshold &&
         num_nodes > opts.coarsest_target;
}

std::vector<std::uint32_t> heavy_edge_matching(const Graph& g,
                                               std::size_t& num_coarse) {
  const std::size_t n = g.num_nodes();
  std::vector<std::uint32_t> map(n, kUnmatched);

  // Propose phase (parallel): candidate[u] = heaviest neighbor of u over all
  // neighbors. Per-node results are independent of each other and of match
  // state, so chunking is free of cross-chunk effects; each worker thread
  // keeps its own O(n) accumulation scratch (allocated once per thread,
  // cleared per node via the touched list, so the pass stays O(edges)).
  std::vector<NodeId> candidate(n, kUnmatched);
  runtime::parallel_for_chunks(
      0, n, kProposeGrain, [&](std::size_t lo, std::size_t hi) {
        static thread_local std::vector<double> accum;
        static thread_local std::vector<NodeId> touched;
        if (accum.size() < n) accum.assign(n, 0.0);
        for (std::size_t u = lo; u < hi; ++u)
          candidate[u] =
              propose_partner(g, static_cast<NodeId>(u), accum, touched);
      });

  // Resolve phase (serial, ascending id): when u is still unmatched and its
  // proposed partner is too, the proposal IS the serial greedy choice — the
  // unmatched argmax cannot beat the global argmax, and the proposal being
  // unmatched means the global argmax is attained inside the unmatched set
  // with the same smallest-id tie-break. Any earlier-taken proposal falls
  // back to the exact serial scan, so by induction the whole map matches the
  // historical serial algorithm bit for bit.
  std::vector<double> accum(n, 0.0);
  std::vector<NodeId> touched;
  std::uint32_t next = 0;
  for (std::size_t u = 0; u < n; ++u) {
    if (map[u] != kUnmatched) continue;
    NodeId best = candidate[u];
    if (best != kUnmatched && map[best] != kUnmatched)
      best = serial_partner(g, static_cast<NodeId>(u), map, accum, touched);
    map[u] = next;
    if (best != kUnmatched) map[best] = next;
    ++next;
  }
  num_coarse = next;
  return map;
}

Graph aggregate_graph(const Graph& g, std::span<const std::uint32_t> map,
                      std::size_t num_coarse) {
  if (map.size() != g.num_nodes())
    throw std::invalid_argument("aggregate_graph: map size != node count");
  struct Triplet {
    std::uint32_t a;
    std::uint32_t b;
    double w;
  };
  // Classify phase (parallel): each edge writes its (sorted coarse pair,
  // weight) triplet — or an intra-aggregate tombstone — into its own slot,
  // so chunks never contend and the slot order is the fine edge order.
  const std::span<const Edge> edges = g.edges();
  const std::size_t m = edges.size();
  std::vector<Triplet> slots(m);
  std::atomic<bool> out_of_range{false};
  runtime::parallel_for_chunks(
      0, m, kTripletGrain, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          const Edge& e = edges[i];
          const std::uint32_t a = map[e.u];
          const std::uint32_t b = map[e.v];
          if (a >= num_coarse || b >= num_coarse) {
            out_of_range.store(true, std::memory_order_relaxed);
            slots[i] = {kUnmatched, kUnmatched, 0.0};
            continue;
          }
          if (a == b) {
            // Intra-aggregate edge: Pᵀ L P drops it.
            slots[i] = {kUnmatched, kUnmatched, 0.0};
            continue;
          }
          slots[i] = {std::min(a, b), std::max(a, b), e.weight};
        }
      });
  if (out_of_range.load())
    throw std::invalid_argument("aggregate_graph: map entry out of range");
  // Compact + sort (parallel): per-chunk compact preserving edge order and a
  // local stable sort, then a pairwise stable merge tree. Chunk boundaries
  // are a function of kTripletGrain alone, and a stable sort's output is the
  // unique stability-preserving permutation of its input, so the final
  // triplet sequence — and with it the weight summation order and the coarse
  // weight bits — is byte-identical to the historical serial compact +
  // std::stable_sort at every thread count, while the O(m log m) comparison
  // work runs on all cores.
  const auto less = [](const Triplet& l, const Triplet& r) {
    return l.a != r.a ? l.a < r.a : l.b < r.b;
  };
  const std::size_t num_runs =
      m == 0 ? 0 : (m + kTripletGrain - 1) / kTripletGrain;
  std::vector<std::vector<Triplet>> runs(num_runs);
  runtime::parallel_for_chunks(
      0, m, kTripletGrain, [&](std::size_t lo, std::size_t hi) {
        std::vector<Triplet>& run = runs[lo / kTripletGrain];
        run.reserve(hi - lo);
        for (std::size_t i = lo; i < hi; ++i)
          if (slots[i].a != kUnmatched) run.push_back(slots[i]);
        std::stable_sort(run.begin(), run.end(), less);
      });
  while (runs.size() > 1) {
    // std::merge takes from the left range on ties, so every tree level
    // preserves fine-edge order within equal coarse pairs.
    const std::size_t pairs = runs.size() / 2;
    std::vector<std::vector<Triplet>> next((runs.size() + 1) / 2);
    runtime::parallel_for_chunks(
        0, pairs, 1, [&](std::size_t lo, std::size_t hi) {
          for (std::size_t p = lo; p < hi; ++p) {
            std::vector<Triplet>& out = next[p];
            out.resize(runs[2 * p].size() + runs[2 * p + 1].size());
            std::merge(runs[2 * p].begin(), runs[2 * p].end(),
                       runs[2 * p + 1].begin(), runs[2 * p + 1].end(),
                       out.begin(), less);
          }
        });
    if (runs.size() % 2) next.back() = std::move(runs.back());
    runs = std::move(next);
  }
  const std::vector<Triplet> triplets =
      runs.empty() ? std::vector<Triplet>{} : std::move(runs.front());
  Graph coarse(num_coarse);
  std::size_t i = 0;
  while (i < triplets.size()) {
    std::size_t j = i;
    double w = 0.0;
    while (j < triplets.size() && triplets[j].a == triplets[i].a &&
           triplets[j].b == triplets[i].b) {
      w += triplets[j].w;
      ++j;
    }
    coarse.add_edge(triplets[i].a, triplets[i].b, w);
    i = j;
  }
  return coarse;
}

namespace {

/// Shared stop logic of both hierarchy builders: keep coarsening while the
/// current level is above target, rounds keep shrinking, and the depth cap
/// has room.
bool another_round(const CoarsenOptions& opts, std::size_t current_n,
                   std::size_t levels_built) {
  return current_n > opts.coarsest_target && levels_built < opts.max_levels;
}

bool round_productive(std::size_t fine_n, std::size_t coarse_n) {
  return coarse_n < fine_n &&
         static_cast<double>(coarse_n) <
             kMinShrink * static_cast<double>(fine_n);
}

}  // namespace

CoarsenHierarchy coarsen_graph(const Graph& g, const CoarsenOptions& opts) {
  static const obs::Counter rounds("coarsen.matching_rounds");
  CoarsenHierarchy out;
  const Graph* current = &g;
  while (another_round(opts, current->num_nodes(), out.levels.size())) {
    std::size_t num_coarse = 0;
    std::vector<std::uint32_t> map = heavy_edge_matching(*current, num_coarse);
    rounds.add();
    if (!round_productive(current->num_nodes(), num_coarse)) break;
    CoarsenLevel level;
    level.graph = aggregate_graph(*current, map, num_coarse);
    level.map = std::move(map);
    out.levels.push_back(std::move(level));
    current = &out.levels.back().graph;
  }
  return out;
}

CoarsenPairHierarchy coarsen_pair(const Graph& x, const Graph& y,
                                  const CoarsenOptions& opts) {
  if (x.num_nodes() != y.num_nodes())
    throw std::invalid_argument("coarsen_pair: node-count mismatch");
  static const obs::Counter rounds("coarsen.matching_rounds");
  CoarsenPairHierarchy out;

  // The matching runs on the edge-weight union of both sides so one P
  // respects the connectivity of L_X and L_Y alike.
  const auto make_union = [](const Graph& a, const Graph& b) {
    Graph u(a.num_nodes());
    for (const Edge& e : a.edges()) u.add_edge(e.u, e.v, e.weight);
    for (const Edge& e : b.edges()) u.add_edge(e.u, e.v, e.weight);
    return u;
  };

  Graph combined = make_union(x, y);
  const Graph* cx = &x;
  const Graph* cy = &y;
  while (another_round(opts, combined.num_nodes(), out.maps.size())) {
    std::size_t num_coarse = 0;
    std::vector<std::uint32_t> map = heavy_edge_matching(combined, num_coarse);
    rounds.add();
    if (!round_productive(combined.num_nodes(), num_coarse)) break;
    out.x_levels.push_back(aggregate_graph(*cx, map, num_coarse));
    out.y_levels.push_back(aggregate_graph(*cy, map, num_coarse));
    combined = aggregate_graph(combined, map, num_coarse);
    out.maps.push_back(std::move(map));
    cx = &out.x_levels.back();
    cy = &out.y_levels.back();
  }
  return out;
}

}  // namespace cirstag::graphs
