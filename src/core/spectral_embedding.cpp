#include "core/spectral_embedding.hpp"

#include <cmath>
#include <stdexcept>

#include "graphs/coarsen.hpp"
#include "graphs/laplacian.hpp"
#include "linalg/lanczos.hpp"
#include "linalg/multilevel_eigen.hpp"
#include "obs/metrics.hpp"

namespace cirstag::core {

linalg::Matrix spectral_embedding(const graphs::Graph& g,
                                  const SpectralEmbeddingOptions& opts) {
  const std::size_t n = g.num_nodes();
  if (n == 0) return {};
  const std::size_t m = std::min(opts.dimensions, n);

  const linalg::SparseMatrix l_norm = graphs::normalized_laplacian(g);
  // Normalized-Laplacian spectrum lives in [0, 2].
  linalg::EigenDecomposition eig;
  if (graphs::coarsen_engaged(opts.coarsen, n)) {
    // Multilevel path (DESIGN.md §12): coarsen, solve the coarsest level's
    // own normalized Laplacian, then Rayleigh-Ritz-refine up the hierarchy
    // against each finer level's operator. Engaged only above the auto
    // threshold.
    const graphs::CoarsenHierarchy hier =
        graphs::coarsen_graph(g, opts.coarsen);
    std::vector<linalg::SparseMatrix> coarse;
    std::vector<linalg::ProlongMap> maps;
    coarse.reserve(hier.levels.size());
    maps.reserve(hier.levels.size());
    for (const graphs::CoarsenLevel& level : hier.levels) {
      coarse.push_back(graphs::normalized_laplacian(level.graph));
      maps.push_back(level.map);
    }
    linalg::MultilevelSmallestOptions mopts;
    mopts.refine_sweeps = opts.coarsen.refine_sweeps;
    mopts.spectrum_upper_bound = 2.0;
    mopts.seed = opts.seed;
    linalg::MultilevelStats stats;
    eig = linalg::multilevel_smallest_eigenpairs(l_norm, coarse, maps, m,
                                                 mopts, &stats);
    static const obs::Gauge levels_gauge("coarsen.levels");
    static const obs::Gauge coarsest_gauge("coarsen.coarsest_n");
    levels_gauge.set(static_cast<double>(stats.levels));
    coarsest_gauge.set(static_cast<double>(stats.coarsest_n));
  } else {
    eig = linalg::smallest_eigenpairs(l_norm, m, /*spectrum_upper_bound=*/2.0,
                                      /*max_subspace=*/0, opts.seed);
  }

  linalg::Matrix u(n, eig.values.size());
  for (std::size_t j = 0; j < eig.values.size(); ++j) {
    const double w = std::sqrt(std::abs(1.0 - eig.values[j]));
    for (std::size_t i = 0; i < n; ++i) u(i, j) = w * eig.vectors(i, j);
  }
  return u;
}

}  // namespace cirstag::core
