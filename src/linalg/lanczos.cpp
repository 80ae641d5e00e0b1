#include "linalg/lanczos.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "linalg/vector_ops.hpp"
#include "obs/metrics.hpp"

namespace cirstag::linalg {

EigenDecomposition lanczos_eigen(const LinearOperator& op, std::size_t n,
                                 const LanczosOptions& opts) {
  if (n == 0) return {};
  const std::size_t k = std::min(opts.num_eigenpairs, n);
  std::size_t m = opts.max_subspace ? opts.max_subspace : (4 * k + 32);
  m = std::min(m, n);

  Rng rng(opts.seed);
  std::vector<std::vector<double>> basis;  // orthonormal Lanczos vectors
  basis.reserve(m);

  std::vector<double> v(n);
  for (auto& x : v) x = rng.normal();
  scale(1.0 / norm2(v), v);
  basis.push_back(v);

  std::vector<double> alpha;  // T diagonal
  std::vector<double> beta;   // T off-diagonal

  std::vector<double> w(n, 0.0);
  for (std::size_t j = 0; j < m; ++j) {
    std::fill(w.begin(), w.end(), 0.0);
    op(basis[j], w);
    const double a = dot(w, basis[j]);
    alpha.push_back(a);
    // w -= a * v_j  (and beta_{j-1} * v_{j-1}, folded into reorth below)
    // Full reorthogonalization against all previous basis vectors, twice,
    // which keeps orthogonality to machine precision at these sizes.
    for (int pass = 0; pass < 2; ++pass) {
      for (const auto& q : basis) {
        const double c = dot(w, q);
        axpy(-c, q, w);
      }
    }
    const double b = norm2(w);
    if (j + 1 == m) break;
    if (b < 1e-12) {
      // Invariant subspace found; restart with a random orthogonal vector.
      std::vector<double> fresh(n);
      for (auto& x : fresh) x = rng.normal();
      for (int pass = 0; pass < 2; ++pass) {
        for (const auto& q : basis) {
          const double c = dot(fresh, q);
          axpy(-c, q, fresh);
        }
      }
      const double fn = norm2(fresh);
      if (fn < 1e-12) break;  // space exhausted
      scale(1.0 / fn, fresh);
      static const obs::Counter restarts("lanczos.restarts");
      restarts.add();
      beta.push_back(0.0);
      basis.push_back(std::move(fresh));
    } else {
      scale(1.0 / b, w);
      beta.push_back(b);
      basis.push_back(w);
    }
  }

  const std::size_t dim = alpha.size();
  beta.resize(dim > 0 ? dim - 1 : 0);
  EigenDecomposition tri = tridiagonal_eigen(alpha, beta);

  // Select the wanted end of the Ritz spectrum.
  std::vector<std::size_t> pick(tri.values.size());
  for (std::size_t i = 0; i < pick.size(); ++i) pick[i] = i;
  if (!opts.want_smallest) std::reverse(pick.begin(), pick.end());
  pick.resize(std::min(k, pick.size()));

  EigenDecomposition out;
  out.values.resize(pick.size());
  out.vectors = Matrix(n, pick.size());
  for (std::size_t j = 0; j < pick.size(); ++j) {
    out.values[j] = tri.values[pick[j]];
    // Ritz vector = sum_i basis[i] * S(i, pick[j])
    std::vector<double> ritz(n, 0.0);
    for (std::size_t i = 0; i < dim; ++i)
      axpy(tri.vectors(i, pick[j]), basis[i], ritz);
    const double nn = norm2(ritz);
    if (nn > 0) scale(1.0 / nn, ritz);
    out.vectors.set_col(j, ritz);
  }
  return out;
}

EigenDecomposition smallest_eigenpairs(const SparseMatrix& a, std::size_t k,
                                       double spectrum_upper_bound,
                                       std::size_t max_subspace,
                                       std::uint64_t seed) {
  if (a.rows() != a.cols())
    throw std::invalid_argument("smallest_eigenpairs: matrix not square");
  const std::size_t n = a.rows();
  const double shift = spectrum_upper_bound;

  // Lanczos converges fastest at the dominant end; run it on (shift*I - A)
  // whose largest eigenvalues correspond to the smallest eigenvalues of A.
  auto op = [&a, shift](std::span<const double> x, std::span<double> y) {
    for (std::size_t i = 0; i < x.size(); ++i) y[i] = shift * x[i];
    a.multiply_add(x, y, -1.0);
  };

  LanczosOptions opts;
  opts.num_eigenpairs = k;
  opts.max_subspace = max_subspace;
  opts.want_smallest = false;  // largest of (shift*I - A)
  opts.seed = seed;
  EigenDecomposition shifted = lanczos_eigen(op, n, opts);

  for (auto& v : shifted.values) v = shift - v;  // map back to eigenvalues of A
  return shifted;  // ascending in A's eigenvalues by construction
}

}  // namespace cirstag::linalg
