#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "linalg/dense_eigen.hpp"
#include "linalg/generalized_eigen.hpp"
#include "linalg/sparse.hpp"

namespace cirstag::linalg {

/// Multilevel eigensolvers over a coarsening hierarchy (DESIGN.md §12).
///
/// The hierarchy itself is built by graphs/coarsen.hpp; this layer only sees
/// the per-level operators (sparse symmetric matrices) and the
/// piecewise-constant prolongation maps between levels, keeping the
/// graphs -> linalg dependency direction intact. Both solvers follow the
/// same V-shape: solve the coarsest problem directly with the existing
/// machinery (Lanczos / generalized subspace iteration), then per finer
/// level interpolate the eigenvectors through the map and re-converge them
/// with a few Rayleigh-Ritz-projected subspace-iteration sweeps. Refinement
/// touches each level's operator only through SpMV / CG applications, so
/// results keep the repo's bit-identity contract across thread counts and
/// SIMD modes; accuracy relative to the single-level solver is bounded by
/// kMultilevelResidualBound and watched by the health monitor.

/// Fine-row -> coarse-row aggregate map (the columns of a piecewise-constant
/// prolongation P: prolong(V)(i, j) = V(map[i], j)).
using ProlongMap = std::vector<std::uint32_t>;

/// Deterministic per-run hierarchy statistics, mirrored into the obs
/// registry by the callers (gauges coarsen.levels / coarsen.coarsest_n,
/// counter eigen.ritz_refine_sweeps) and gated by the CI scale smoke.
struct MultilevelStats {
  std::size_t levels = 0;              ///< coarse levels below the fine one
  std::size_t coarsest_n = 0;          ///< rows of the directly-solved level
  std::size_t ritz_refine_sweeps = 0;  ///< refinement sweeps, all levels
};

/// Documented accuracy contract of the multilevel mode. Standard path: the
/// spectrum-relative residual ‖A u − θ u‖ / b (b = spectrum upper bound) of
/// every returned Ritz pair stays below kMultilevelResidualBound.
/// Generalized path: the pencil residual ‖L_X u − θ (L_Y + εI) u‖ / ‖L_X u‖
/// stays below kMultilevelPencilResidualBound — looser because warm subspace
/// iteration with a fixed sweep budget leaves the trailing pairs of the
/// block only partially converged (the exact single-level solver's own Ritz
/// early stop accepts residuals of the same order). A violation records a
/// warning-severity eigen.multilevel_residual health event (the CI health
/// gate fails only on error severity, so a drifting hierarchy is visible
/// before it is fatal).
inline constexpr double kMultilevelResidualBound = 0.1;
inline constexpr double kMultilevelPencilResidualBound = 0.5;

struct MultilevelSmallestOptions {
  /// Subspace-iteration sweeps per refinement level (shifted power sweeps
  /// on b·I − A followed by one dense Rayleigh-Ritz projection). Mid-
  /// spectrum contamination damps by roughly (b − λ)/b per sweep, so ~8
  /// sweeps reduce it below the documented residual bound.
  std::size_t refine_sweeps = 8;
  /// Upper bound b >= λ_max(A) of the fine spectrum (2.0 for normalized
  /// Laplacians); the refinement operator is b·I − A.
  double spectrum_upper_bound = 2.0;
  std::uint64_t seed = 5;  ///< rank-repair draws during refinement
};

/// Smallest-k eigenpairs of `fine` through the hierarchy. `coarse[l]` is the
/// operator l+1 levels below the fine one; `maps[0]` maps fine rows into
/// coarse[0], `maps[l]` maps coarse[l-1] rows into coarse[l]. The coarsest
/// level is solved by linalg::smallest_eigenpairs (the existing Lanczos).
/// Values ascending, like smallest_eigenpairs. Pass empty spans to fall
/// through to the exact single-level solver.
[[nodiscard]] EigenDecomposition multilevel_smallest_eigenpairs(
    const SparseMatrix& fine, std::span<const SparseMatrix> coarse,
    std::span<const ProlongMap> maps, std::size_t k,
    const MultilevelSmallestOptions& opts, MultilevelStats* stats = nullptr);

/// Generalized problem L_X v = ζ L_Y v through a shared pair hierarchy:
/// lx[0]/ly[0] are the finest operators, lx.back()/ly.back() the coarsest;
/// maps[l] maps level-l rows into level l+1. The coarsest level runs
/// generalized_eigen_sparse with the caller's full iteration budget; each
/// finer level re-enters it warm (initial_subspace = the prolonged
/// eigenvectors) for `refine_sweeps` sweeps, reusing all of its Ritz
/// machinery. `finest_solver` (optional) is the prebuilt (L_Y + εI) solver
/// for the finest level — e.g. the pipeline's cached solver — under the
/// same contract as generalized_eigen_sparse's external_solver.
[[nodiscard]] GeneralizedEigenResult multilevel_generalized_eigen(
    std::span<const SparseMatrix> lx, std::span<const SparseMatrix> ly,
    std::span<const ProlongMap> maps, const GeneralizedEigenOptions& opts,
    std::size_t refine_sweeps, const LaplacianSolver* finest_solver = nullptr,
    MultilevelStats* stats = nullptr);

}  // namespace cirstag::linalg
