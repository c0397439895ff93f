#include "stats/quantile_regression.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "rng/distributions.hpp"
#include "rng/lanes.hpp"
#include "stats/descriptive.hpp"
#include "stats/parallel.hpp"

namespace sci::stats {
namespace {

// A residual, a basis-inverse product or a directional derivative whose
// magnitude is below this fraction of the scale of its inputs (|row| x
// the largest entry it is multiplied with) is rounding noise and counts
// as exactly zero. The scale, not the terms' own sizes, is the yardstick:
// an inverse entry that should be 0 carries noise of the inverse's size.
constexpr double kZeroTol = 1e-12;

double check_loss(double u, double tau) noexcept { return u * (u < 0.0 ? tau - 1.0 : tau); }

/// Barrodale-Roberts descent for  min_b sum_i rho_tau(y_i - x_i'b).
///
/// The LP optimum sits at a vertex where p observations -- the basis --
/// have zero residual. A vertex is described by those observations and
/// the p x p inverse of their design rows, never by the n x (2p + 2n)
/// tableau. Each step prices the 2p edges that free one basic residual
/// (plus, while the basis is still filling, the +-directions of each
/// coefficient not yet pinned), picks the steepest descending one, and
/// walks it past every breakpoint whose crossing keeps the slope
/// negative -- a weighted-median selection over the breakpoints, so one
/// step may pass many vertices.
///
/// Degenerate vertices (duplicate rows, collinear points) are resolved
/// by the lexicographic perturbation y_i + eps^(i+1): a zero residual
/// takes the sign its eps-expansion gives it, and breakpoints at equal
/// step lengths are ordered by their eps-terms. Every step then strictly
/// lowers the perturbed objective, so no basis repeats and the walk
/// terminates; a vertex with no descending edge is optimal for the
/// perturbed problem and hence, in the limit, for the original one.
///
/// A design of rank r < p stops with r coefficients pinned; the rest
/// stay 0, which is one of the (then non-unique) optima.
///
/// Row i may carry a weight w_i > 0 -- the loss is sum w_i rho_tau(.),
/// exactly the loss of w_i copies of the row -- so a bootstrap resample
/// is solved on its distinct rows. Weights scale the gradient, the
/// breakpoint weights and the cost of freeing a basic residual; with
/// none given every row weighs 1. A fit may start from a partial basis
/// (`start`); the walk from there is the same descent.
class BarrodaleRoberts {
 public:
  /// Fits the row-major n x p design (intercept column included) with
  /// row weights `weights` (empty: all 1), starting from the basis rows
  /// `start` (empty: b = 0). Writes p coefficients; returns false -- no
  /// fit -- when an input is NaN or infinite (the LP has no optimum
  /// then), and otherwise only if the safety cap on steps is hit or a
  /// basis turns out singular.
  bool fit(std::span<const double> y, std::span<const double> design, std::size_t p,
           double tau, std::span<const double> weights, std::span<const std::size_t> start,
           double* coef, double& objective) {
    const auto finite = [](double v) { return std::isfinite(v); };
    if (!std::all_of(y.begin(), y.end(), finite) ||
        !std::all_of(design.begin(), design.end(), finite)) {
      return false;
    }
    y_ = y.data();
    x_ = design.data();
    n_ = y.size();
    p_ = p;
    tau_ = tau;
    if (weights.empty()) {
      ones_.assign(n_, 1.0);
      w_ = ones_.data();
    } else {
      w_ = weights.data();
    }
    rank_ = 0;
    basis_.assign(p, 0);
    cols_.assign(p, 0);
    free_.assign(p, 1);
    pos_.assign(n_, kNonbasic);
    inv_.assign(p * p, 0.0);
    inv_colmax_.assign(p, 0.0);
    b_max_ = 0.0;
    work_.assign(p * 2 * p, 0.0);
    b_.assign(p, 0.0);
    resid_.assign(n_, 0.0);
    row_abs_.assign(n_, 0.0);
    for (std::size_t i = 0; i < n_; ++i) {
      for (std::size_t j = 0; j < p_; ++j) row_abs_[i] += std::fabs(x(i, j));
    }
    sign_.assign(n_, 0);
    grad_.assign(p, 0.0);
    dir_.assign(p, 0.0);

    seed_basis(start);
    if (!factor()) return false;
    classify();
    const std::size_t cap = 100 + 20 * n_ * p_;
    for (steps_ = 0;; ++steps_) {
      Edge edge;
      if (!steepest_edge(edge)) break;  // optimal vertex
      if (steps_ == cap) return false;
      const std::size_t enter = line_search(edge);
      if (enter == kNonbasic) return false;
      if (edge.free_col) {
        basis_[rank_] = enter;
        cols_[rank_] = edge.index;
        free_[edge.index] = 0;
        pos_[enter] = rank_++;
      } else {
        pos_[basis_[edge.index]] = kNonbasic;
        basis_[edge.index] = enter;
        pos_[enter] = edge.index;
      }
      if (!factor()) return false;
      classify();
    }
    objective = 0.0;
    for (std::size_t i = 0; i < n_; ++i) objective += w_[i] * check_loss(resid_[i], tau_);
    std::copy(b_.begin(), b_.end(), coef);
    return true;
  }

  /// Sizes the scratch for fits of up to n rows and p coefficients, so
  /// that no later such fit allocates.
  void reserve(std::size_t n, std::size_t p) {
    pos_.reserve(n);
    resid_.reserve(n);
    row_abs_.reserve(n);
    sign_.reserve(n);
    cands_.reserve(n);
    sorted_basis_.reserve(p);
  }

  /// The last fit's basis rows, in position order.
  [[nodiscard]] std::span<const std::size_t> basis() const noexcept {
    return {basis_.data(), rank_};
  }
  /// Descent steps the last fit took.
  [[nodiscard]] std::size_t steps() const noexcept { return steps_; }

 private:
  static constexpr std::size_t kNonbasic = static_cast<std::size_t>(-1);

  struct Edge {
    bool free_col = false;  ///< move a not-yet-pinned coefficient ...
    std::size_t index = 0;  ///< ... column `index`, or free basis position `index`
    double sigma = 1.0;     ///< direction sign
    double slope = 0.0;     ///< perturbed directional derivative (< -tol)
    double tol = 0.0;       ///< slopes within tol of zero count as zero
  };

  struct Breakpoint {
    double t;           ///< step length at which residual i reaches zero
    double weight;      ///< w_i |g_i|: the slope increase when it is crossed
    std::size_t i;
    double g;           ///< signed rate of change of x_i'b along the edge
  };

  double x(std::size_t i, std::size_t j) const noexcept { return x_[i * p_ + j]; }

  /// Pins each row of `start` that is independent of the rows pinned
  /// before it, to the free column where its row -- reduced against
  /// theirs by forward elimination in work_ -- is largest. The rest of
  /// the basis fills from free columns during the descent.
  void seed_basis(std::span<const std::size_t> start) {
    for (const std::size_t i : start) {
      double* v = &work_[rank_ * p_];
      for (std::size_t j = 0; j < p_; ++j) v[j] = x(i, j);
      for (std::size_t q = 0; q < rank_; ++q) {
        const double* u = &work_[q * p_];
        const double f = v[cols_[q]] / u[cols_[q]];
        if (f == 0.0) continue;
        for (std::size_t j = 0; j < p_; ++j) v[j] -= f * u[j];
      }
      std::size_t col = p_;
      double pivot = kZeroTol * row_abs_[i];
      for (std::size_t j = 0; j < p_; ++j) {
        if (free_[j] && std::fabs(v[j]) > pivot) {
          col = j;
          pivot = std::fabs(v[j]);
        }
      }
      if (col == p_) continue;  // in the span of the rows before it
      basis_[rank_] = i;
      cols_[rank_] = col;
      free_[col] = 0;
      pos_[i] = rank_++;
    }
  }

  /// inv_ = A^{-1} for A[m][c] = x(basis_[m], cols_[c]) by Gauss-Jordan
  /// with partial pivoting; inv_[c * p_ + m] maps basis position m to
  /// coefficient slot c. Then b_ = A^{-1} y_B, free columns 0.
  bool factor() {
    const std::size_t r = rank_;
    const std::size_t w = 2 * r;
    for (std::size_t m = 0; m < r; ++m) {
      for (std::size_t c = 0; c < r; ++c) work_[m * w + c] = x(basis_[m], cols_[c]);
      for (std::size_t c = 0; c < r; ++c) work_[m * w + r + c] = m == c ? 1.0 : 0.0;
    }
    for (std::size_t c = 0; c < r; ++c) {
      std::size_t piv = c;
      for (std::size_t m = c + 1; m < r; ++m) {
        if (std::fabs(work_[m * w + c]) > std::fabs(work_[piv * w + c])) piv = m;
      }
      if (work_[piv * w + c] == 0.0) return false;
      if (piv != c) {
        for (std::size_t k = 0; k < w; ++k) std::swap(work_[piv * w + k], work_[c * w + k]);
      }
      const double inv_piv = 1.0 / work_[c * w + c];
      for (std::size_t k = 0; k < w; ++k) work_[c * w + k] *= inv_piv;
      for (std::size_t m = 0; m < r; ++m) {
        const double f = work_[m * w + c];
        if (m == c || f == 0.0) continue;
        for (std::size_t k = 0; k < w; ++k) work_[m * w + k] -= f * work_[c * w + k];
      }
    }
    // Row c of the reduced right half is row c of A^{-1}.
    std::fill(inv_colmax_.begin(), inv_colmax_.end(), 0.0);
    for (std::size_t c = 0; c < r; ++c) {
      for (std::size_t m = 0; m < r; ++m) {
        inv_[c * p_ + m] = work_[c * w + r + m];
        inv_colmax_[m] = std::max(inv_colmax_[m], std::fabs(inv_[c * p_ + m]));
      }
    }
    std::fill(b_.begin(), b_.end(), 0.0);
    b_max_ = 0.0;
    for (std::size_t c = 0; c < r; ++c) {
      double v = 0.0;
      for (std::size_t m = 0; m < r; ++m) v += inv_[c * p_ + m] * y_[basis_[m]];
      b_[cols_[c]] = v;
      b_max_ = std::max(b_max_, std::fabs(v));
    }
    return true;
  }

  /// z_i[m] = x_{i,P}' A^{-1} e_m: how residual i moves when basic
  /// residual m does. Rounding noise is returned as exact 0.
  double z(std::size_t i, std::size_t m) const noexcept {
    double v = 0.0;
    for (std::size_t c = 0; c < rank_; ++c) v += x(i, cols_[c]) * inv_[c * p_ + m];
    return std::fabs(v) > kZeroTol * row_abs_[i] * inv_colmax_[m] ? v : 0.0;
  }

  /// Sign of the zero residual i under the perturbation: its
  /// eps-expansion is eps_i - sum_m z_i[m] eps_basis[m], and the lowest
  /// observation index with a nonzero coefficient dominates.
  signed char perturbed_sign(std::size_t i) const noexcept {
    std::size_t lead = i;
    signed char sign = 1;
    for (std::size_t m = 0; m < rank_; ++m) {
      if (basis_[m] >= lead) continue;
      const double zm = z(i, m);
      if (zm == 0.0) continue;
      lead = basis_[m];
      sign = zm > 0.0 ? -1 : 1;
    }
    return sign;
  }

  /// Residuals and (perturbed) signs at the current vertex, and the
  /// gradient sum_{i nonbasic} psi_i x_i of the loss's linear part.
  void classify() {
    std::fill(grad_.begin(), grad_.end(), 0.0);
    grad_mag_ = 0.0;
    for (std::size_t i = 0; i < n_; ++i) {
      if (pos_[i] != kNonbasic) {
        resid_[i] = 0.0;
        sign_[i] = 0;
        continue;
      }
      double fit = 0.0;
      for (std::size_t j = 0; j < p_; ++j) fit += x(i, j) * b_[j];
      const double r = y_[i] - fit;
      if (std::fabs(r) > kZeroTol * (std::fabs(y_[i]) + row_abs_[i] * b_max_)) {
        resid_[i] = r;
        sign_[i] = r > 0.0 ? 1 : -1;
      } else {
        resid_[i] = 0.0;
        sign_[i] = perturbed_sign(i);
      }
      const double psi = w_[i] * (sign_[i] > 0 ? tau_ : tau_ - 1.0);
      for (std::size_t j = 0; j < p_; ++j) grad_[j] += psi * x(i, j);
      grad_mag_ += std::fabs(psi) * row_abs_[i];
    }
  }

  /// Edge direction into dir_ (coefficient space, before sigma).
  void edge_direction(bool free_col, std::size_t index) {
    std::fill(dir_.begin(), dir_.end(), 0.0);
    if (free_col) {
      // Move coefficient `index`; keep every basic residual at zero.
      dir_[index] = 1.0;
      for (std::size_t c = 0; c < rank_; ++c) {
        double v = 0.0;
        for (std::size_t m = 0; m < rank_; ++m) v += inv_[c * p_ + m] * x(basis_[m], index);
        dir_[cols_[c]] = -v;
      }
    } else {
      // Free basic residual `index`; keep the other basic ones at zero.
      for (std::size_t c = 0; c < rank_; ++c) dir_[cols_[c]] = inv_[c * p_ + index];
    }
  }

  /// Steepest descending edge, preferring unpinned coefficients while
  /// the basis fills. Returns false at an optimal vertex.
  bool steepest_edge(Edge& best) {
    best.slope = 0.0;
    bool found = false;
    const auto consider = [&](bool free_col, std::size_t index, double basic_cost) {
      edge_direction(free_col, index);
      double s = 0.0;
      double dir_max = 0.0;
      for (std::size_t j = 0; j < p_; ++j) {
        s += grad_[j] * dir_[j];
        dir_max = std::max(dir_max, std::fabs(dir_[j]));
      }
      // Moving +dir raises the freed basic residual's loss at rate
      // w (1 - tau) and -dir at rate w tau; a free column pays neither.
      const double up = basic_cost * (1.0 - tau_) - s;
      const double down = basic_cost * tau_ + s;
      const double tol = kZeroTol * (basic_cost + grad_mag_ * dir_max);
      if (up < -tol && up < best.slope) {
        best = {free_col, index, 1.0, up, tol};
        found = true;
      }
      if (down < -tol && down < best.slope) {
        best = {free_col, index, -1.0, down, tol};
        found = true;
      }
    };
    for (std::size_t j = 0; j < p_; ++j) {
      if (free_[j]) consider(true, j, 0.0);
    }
    if (found) return true;
    for (std::size_t m = 0; m < rank_; ++m) consider(false, m, w_[basis_[m]]);
    return found;
  }

  /// Coefficient of eps_j in the perturbed step length of breakpoint bp.
  double eps_coef(const Breakpoint& bp, std::size_t j) const noexcept {
    if (j == bp.i) return 1.0 / bp.g;
    if (pos_[j] == kNonbasic) return 0.0;  // the other breakpoint's own eps
    return -z(bp.i, pos_[j]) / bp.g;
  }

  /// Lexicographic order of perturbed step lengths: the lowest index
  /// whose eps-coefficient differs decides. Only a.i, b.i and the basis
  /// carry coefficients; they are visited in ascending index order.
  bool eps_less(const Breakpoint& a, const Breakpoint& b) const noexcept {
    const std::size_t own[2] = {std::min(a.i, b.i), std::max(a.i, b.i)};
    std::size_t o = 0;
    std::size_t k = 0;
    while (o < 2 || k < rank_) {
      const bool take_own = o < 2 && (k == rank_ || own[o] < sorted_basis_[k]);
      const std::size_t j = take_own ? own[o++] : sorted_basis_[k++];
      const double ca = eps_coef(a, j);
      const double cb = eps_coef(b, j);
      if (ca != cb) return ca < cb;
    }
    return false;
  }

  /// Walks the edge to the breakpoint where the slope turns
  /// non-negative; returns the observation entering the basis.
  std::size_t line_search(const Edge& edge) {
    edge_direction(edge.free_col, edge.index);
    double dir_max = 0.0;
    for (const double d : dir_) dir_max = std::max(dir_max, std::fabs(d));
    cands_.clear();
    for (std::size_t i = 0; i < n_; ++i) {
      if (pos_[i] != kNonbasic) continue;
      double g = 0.0;
      for (std::size_t j = 0; j < p_; ++j) g += x(i, j) * dir_[j];
      const double mag = row_abs_[i] * dir_max;
      g *= edge.sigma;
      // Only residuals moving toward zero become breakpoints; a zero
      // residual does when its perturbed sign matches the motion.
      if (std::fabs(g) <= kZeroTol * mag || (g > 0.0) != (sign_[i] > 0)) continue;
      cands_.push_back({resid_[i] == 0.0 ? 0.0 : resid_[i] / g, w_[i] * std::fabs(g), i, g});
    }
    if (cands_.empty()) return kNonbasic;

    // Weighted selection: the first breakpoint (in step order) whose
    // cumulative weight brings the slope to zero. Quickselect with a
    // three-way partition on the leading step length alone -- plain
    // double compares -- so the eps order is only consulted inside the
    // block of exact ties the answer falls in. A slope left within
    // tolerance of zero is flat: stopping there keeps rounding from
    // walking a flat stretch, whose reverse edge would look descending.
    double need = -edge.slope - edge.tol;
    auto lo = cands_.begin();
    auto hi = cands_.end();
    while (hi - lo > 16) {
      const double a = lo->t;
      const double b = lo[(hi - lo) / 2].t;
      const double c = std::prev(hi)->t;
      const double pivot = std::max(std::min(a, b), std::min(std::max(a, b), c));
      auto lt = lo;  // [lo, lt) < pivot, [lt, it) == pivot, [gt, hi) > pivot
      auto gt = hi;
      double below = 0.0;
      double equal = 0.0;
      for (auto it = lo; it != gt;) {
        if (it->t < pivot) {
          below += it->weight;
          std::iter_swap(it++, lt++);
        } else if (it->t > pivot) {
          std::iter_swap(it, --gt);
        } else {
          equal += it->weight;
          ++it;
        }
      }
      if (below >= need) {
        hi = lt;
      } else if (below + equal >= need) {
        need -= below;
        lo = lt;
        hi = gt;
        break;
      } else {
        need -= below + equal;
        lo = gt;
      }
    }
    // Sort the remainder by step length; only the tie block holding the
    // answer needs the eps order.
    std::sort(lo, hi, [](const Breakpoint& u, const Breakpoint& v) { return u.t < v.t; });
    for (auto block = lo; block != hi;) {
      auto end = block;
      double weight = 0.0;
      for (; end != hi && end->t == block->t; ++end) weight += end->weight;
      if (weight < need) {
        need -= weight;
        block = end;
        continue;
      }
      if (end - block > 1) {
        sorted_basis_.assign(basis_.begin(),
                             basis_.begin() + static_cast<std::ptrdiff_t>(rank_));
        std::sort(sorted_basis_.begin(), sorted_basis_.end());
        std::sort(block, end, [this](const Breakpoint& u, const Breakpoint& v) {
          return eps_less(u, v);
        });
      }
      for (auto it = block; it != end; ++it) {
        need -= it->weight;
        if (need <= 0.0) return it->i;
      }
      return std::prev(end)->i;  // rounding in the block's sum
    }
    // Only rounding can leave weight unmet: the loss grows without
    // bound along every edge, so stop at the farthest breakpoint.
    return std::prev(hi)->i;
  }

  const double* y_ = nullptr;
  const double* x_ = nullptr;
  std::size_t n_ = 0;
  std::size_t p_ = 0;
  double tau_ = 0.5;
  const double* w_ = nullptr;             ///< [n] row weights
  std::vector<double> ones_;              ///< [n] the weights of an unweighted fit
  std::size_t rank_ = 0;                  ///< basis size (pinned coefficients)
  std::size_t steps_ = 0;                 ///< descent steps of the last fit
  std::vector<std::size_t> basis_;        ///< [p] observation at each position
  std::vector<std::size_t> cols_;         ///< [p] coefficient pinned by each position
  std::vector<char> free_;                ///< [p] coefficient not yet pinned
  std::vector<std::size_t> pos_;          ///< [n] basis position or kNonbasic
  std::vector<double> inv_;               ///< [p x p] A^{-1}
  std::vector<double> inv_colmax_;        ///< [p] max |entry| per column of A^{-1}
  std::vector<double> work_;              ///< [p x 2p] Gauss-Jordan scratch
  std::vector<double> b_;                 ///< [p] coefficients at the vertex
  double b_max_ = 0.0;                    ///< max |b_j|
  std::vector<double> resid_;             ///< [n] residuals, 0 for zero ones
  std::vector<double> row_abs_;           ///< [n] sum_j |x_ij|
  std::vector<signed char> sign_;         ///< [n] perturbed sign, 0 if basic
  std::vector<double> grad_;              ///< [p] sum psi_i x_i over nonbasic i
  double grad_mag_ = 0.0;                 ///< sum |psi_i| |x_i|_1, for tolerances
  std::vector<double> dir_;               ///< [p] current edge direction
  std::vector<Breakpoint> cands_;
  std::vector<std::size_t> sorted_basis_;
};

/// Validates the inputs; returns the regressor count k (p = k + 1).
std::size_t checked_width(std::span<const double> y,
                          std::span<const std::vector<double>> design, double tau) {
  if (y.empty()) throw std::invalid_argument("quantile_regression: empty response");
  if (tau <= 0.0 || tau >= 1.0) throw std::domain_error("quantile_regression: tau in (0,1)");
  const std::size_t k = design.empty() ? 0 : design.front().size();
  for (const auto& row : design) {
    if (row.size() != k) throw std::invalid_argument("quantile_regression: ragged design");
  }
  if (!design.empty() && design.size() != y.size())
    throw std::invalid_argument("quantile_regression: design/response size mismatch");
  return k;
}

/// Row-major n x p design with the intercept column in front.
std::vector<double> with_intercept(std::size_t n, std::size_t p,
                                   std::span<const std::vector<double>> design) {
  std::vector<double> x(n * p);
  for (std::size_t i = 0; i < n; ++i) {
    x[i * p] = 1.0;
    for (std::size_t j = 1; j < p; ++j) x[i * p + j] = design[i][j - 1];
  }
  return x;
}

QuantRegResult solve(BarrodaleRoberts& solver, std::span<const double> y,
                     std::span<const double> x, std::size_t p, double tau) {
  QuantRegResult out;
  out.tau = tau;
  out.coefficients.resize(p);
  out.converged = solver.fit(y, x, p, tau, {}, {}, out.coefficients.data(), out.objective);
  if (!out.converged) {
    out.coefficients.clear();
    out.objective = 0.0;
  }
  return out;
}

}  // namespace

QuantRegResult quantile_regression(std::span<const double> y,
                                   std::span<const std::vector<double>> design,
                                   double tau) {
  const std::size_t p = checked_width(y, design, tau) + 1;
  const std::vector<double> x = with_intercept(y.size(), p, design);
  BarrodaleRoberts solver;
  return solve(solver, y, x, p, tau);
}

std::vector<QuantRegResult> quantile_regression_sweep(
    std::span<const double> y, std::span<const std::vector<double>> design,
    std::span<const double> taus) {
  std::vector<QuantRegResult> out;
  out.reserve(taus.size());
  if (taus.empty()) return out;
  const std::size_t p = checked_width(y, design, taus.front()) + 1;
  const std::vector<double> x = with_intercept(y.size(), p, design);
  BarrodaleRoberts solver;
  for (double tau : taus) {
    (void)checked_width(y, design, tau);
    out.push_back(solve(solver, y, x, p, tau));
  }
  return out;
}

namespace {

/// The point fit of (y, design) and, when it converged or `always`,
/// `replicates` xy-pair bootstrap refits of it.
///
/// A refit draws its n rows as before -- n uniform_below draws on its
/// lane -- but keeps them as a count per observation and solves the
/// distinct rows with those counts as weights: the same loss as the
/// duplicated resample, on ~63% of the rows. It starts from the point
/// fit's basis rows the resample holds.
///
/// Lane l refits the contiguous replicate block [l*base + min(l, rem),
/// ...) using Xoshiro256(seed) jumped l times -- the same sharding
/// contract as BootstrapEngine, so refits depend on `lanes` but never on
/// `threads`, and lanes = 1 is the historical single-stream sequence.
detail::QuantRegReplicates fit_and_refit(std::span<const double> y,
                                         std::span<const std::vector<double>> design,
                                         double tau, std::size_t replicates, std::uint64_t seed,
                                         const ExecPolicy& policy, bool always) {
  const std::size_t n = y.size();
  const std::size_t p = checked_width(y, design, tau) + 1;
  const std::vector<double> x = with_intercept(n, p, design);

  detail::QuantRegReplicates out;
  BarrodaleRoberts point;
  out.fit = solve(point, y, x, p, tau);
  if (!out.fit.converged && !always) return out;
  const std::span<const std::size_t> start =
      out.fit.converged ? point.basis() : std::span<const std::size_t>{};

  const std::size_t lanes = std::min(policy.effective_lanes(),
                                     std::max<std::size_t>(replicates, 1));
  rng::LaneRng lane_rng;
  lane_rng.reset(seed, lanes);
  const std::size_t base = replicates / lanes;
  const std::size_t rem = replicates % lanes;

  // Indexed by global replicate, so any thread count fills the same slots.
  out.coefficients.resize(replicates * p);
  out.converged.resize(replicates, 0);
  out.steps.resize(replicates, 0);
  policy_partition(ExecPolicy{policy.effective_threads(), 1}, lanes,
                   [&](std::size_t, std::size_t lane_lo, std::size_t lane_hi) {
                     // Per-worker scratch, reused by every refit it runs.
                     BarrodaleRoberts solver;
                     solver.reserve(n, p);
                     std::vector<std::size_t> count(n);
                     std::vector<std::size_t> row_of(n);
                     std::vector<double> yb(n);
                     std::vector<double> xb(n * p);
                     std::vector<double> wb(n);
                     std::vector<std::size_t> warm;
                     warm.reserve(start.size());
                     for (std::size_t l = lane_lo; l < lane_hi; ++l) {
                       rng::Xoshiro256 gen = lane_rng.lane(l);
                       const std::size_t first = l * base + std::min(l, rem);
                       const std::size_t len = base + (l < rem ? 1 : 0);
                       for (std::size_t rep = first; rep < first + len; ++rep) {
                         std::fill(count.begin(), count.end(), 0);
                         for (std::size_t i = 0; i < n; ++i) {
                           ++count[static_cast<std::size_t>(rng::uniform_below(gen, n))];
                         }
                         std::size_t rows = 0;
                         for (std::size_t i = 0; i < n; ++i) {
                           if (count[i] == 0) continue;
                           row_of[i] = rows;
                           yb[rows] = y[i];
                           std::copy_n(x.begin() + static_cast<std::ptrdiff_t>(i * p), p,
                                       xb.begin() + static_cast<std::ptrdiff_t>(rows * p));
                           wb[rows++] = static_cast<double>(count[i]);
                         }
                         warm.clear();
                         for (const std::size_t i : start) {
                           if (count[i] != 0) warm.push_back(row_of[i]);
                         }
                         double objective = 0.0;
                         out.converged[rep] =
                             solver.fit({yb.data(), rows}, {xb.data(), rows * p}, p, tau,
                                        {wb.data(), rows}, warm, &out.coefficients[rep * p],
                                        objective)
                                 ? 1
                                 : 0;
                         out.steps[rep] = solver.steps();
                       }
                     }
                   });
  return out;
}

/// Percentile CI of each coefficient over the converged refits.
QuantRegCI percentile_ci(const detail::QuantRegReplicates& reps, std::size_t p,
                         double confidence) {
  const std::size_t replicates = reps.converged.size();
  std::vector<std::vector<double>> coef_samples(p);
  for (std::size_t rep = 0; rep < replicates; ++rep) {
    if (!reps.converged[rep]) continue;
    for (std::size_t j = 0; j < p; ++j) coef_samples[j].push_back(reps.coefficients[rep * p + j]);
  }

  QuantRegCI ci;
  ci.lower.resize(p);
  ci.upper.resize(p);
  const double alpha = 1.0 - confidence;
  for (std::size_t j = 0; j < p; ++j) {
    if (coef_samples[j].size() < 10)
      throw std::runtime_error("quantile_regression_bootstrap_ci: too few converged refits");
    const auto sorted = sorted_copy(coef_samples[j]);
    ci.lower[j] = quantile_sorted(sorted, alpha / 2.0);
    ci.upper[j] = quantile_sorted(sorted, 1.0 - alpha / 2.0);
  }
  return ci;
}

}  // namespace

QuantRegCI quantile_regression_bootstrap_ci(std::span<const double> y,
                                            std::span<const std::vector<double>> design,
                                            double tau, std::size_t replicates,
                                            double confidence, std::uint64_t seed,
                                            const ExecPolicy& policy) {
  const auto reps = fit_and_refit(y, design, tau, replicates, seed, policy, true);
  return percentile_ci(reps, checked_width(y, design, tau) + 1, confidence);
}

QuantRegFitCI quantile_regression_with_ci(std::span<const double> y,
                                          std::span<const std::vector<double>> design,
                                          double tau, std::size_t replicates,
                                          double confidence, std::uint64_t seed,
                                          const ExecPolicy& policy) {
  auto reps = fit_and_refit(y, design, tau, replicates, seed, policy, false);
  QuantRegFitCI out;
  if (reps.fit.converged) out.ci = percentile_ci(reps, reps.fit.coefficients.size(), confidence);
  out.fit = std::move(reps.fit);
  return out;
}

namespace detail {

QuantRegReplicates quantile_regression_replicates(std::span<const double> y,
                                                  std::span<const std::vector<double>> design,
                                                  double tau, std::size_t replicates,
                                                  std::uint64_t seed, const ExecPolicy& policy) {
  return fit_and_refit(y, design, tau, replicates, seed, policy, true);
}

}  // namespace detail

}  // namespace sci::stats
