#pragma once

#include <vector>

#include "graphs/effective_resistance.hpp"
#include "graphs/graph.hpp"

namespace cirstag::graphs {

/// Options for PGM-style spectral sparsification (CirSTAG Phase 2).
struct SparsifyOptions {
  /// Fraction of off-tree edges to keep, ranked by spectral distortion
  /// η_pq = w_pq · R_eff(p,q) (largest kept). 0 keeps only the spanning
  /// forest; 1 keeps everything.
  double offtree_keep_fraction = 0.10;
  ResistanceSketchOptions resistance;
};

/// Result of sparsification: the sparsified graph plus diagnostics.
struct SparsifyResult {
  Graph graph;
  std::vector<EdgeId> kept_edges;    ///< ids into the *input* graph
  std::vector<double> eta;           ///< per-input-edge distortion score
  std::size_t tree_edges = 0;
};

/// Spectrum-preserving graph sparsification via effective-resistance
/// distortion pruning (paper Eq. 8, standing in for SGL's iterative PGM
/// learning). Keeps a maximum-weight spanning forest for connectivity, then
/// retains the off-tree edges with the largest η_pq = w_pq · R_eff(p,q):
/// those are exactly the edges whose removal would most perturb
/// log det(Θ) relative to the data-fit term (Eqs. 6–7).
///
/// `cache` (optional) is threaded through to the resistance sketch so the
/// Laplacian solver for `g` is shared with other phases of the pipeline.
[[nodiscard]] SparsifyResult sparsify_pgm(const Graph& g,
                                          const SparsifyOptions& opts = {},
                                          LaplacianSolverCache* cache = nullptr);

}  // namespace cirstag::graphs
