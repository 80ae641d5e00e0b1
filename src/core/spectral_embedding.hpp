#pragma once

#include "graphs/coarsen.hpp"
#include "graphs/graph.hpp"
#include "linalg/matrix.hpp"

namespace cirstag::core {

/// Options for CirSTAG Phase 1 (input-side spectral embedding).
struct SpectralEmbeddingOptions {
  std::size_t dimensions = 16;  ///< M, number of eigenpairs
  std::uint64_t seed = 5;
  /// Multilevel coarsening policy (DESIGN.md §12). The default `automatic`
  /// engages only at coarsen.auto_threshold nodes and above, so small graphs
  /// keep the exact Lanczos path byte for byte.
  graphs::CoarsenOptions coarsen;
};

/// Weighted spectral (Laplacian-eigenmap) embedding of a graph, Eq. 4:
///
///   U_M = [ sqrt|1-λ̃_1| ũ_1, ..., sqrt|1-λ̃_M| ũ_M ]
///
/// where (λ̃_i, ũ_i) are the M smallest eigenpairs of the symmetric
/// normalized Laplacian. Rows are per-node coordinates on the input
/// manifold; the sqrt|1-λ| weighting emphasizes smooth (low-frequency)
/// structure, which is what makes the downstream kNN manifold faithful to
/// the circuit's global topology.
[[nodiscard]] linalg::Matrix spectral_embedding(
    const graphs::Graph& g, const SpectralEmbeddingOptions& opts = {});

}  // namespace cirstag::core
