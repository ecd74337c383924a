#include "src/core/lp_synthesis.h"

#include <algorithm>

namespace bcert::core {

namespace {
/// Scales a constraint row to unit ∞-norm. Rows are homogeneous
/// inequalities (… ≤ 0), so positive scaling leaves the feasible set of
/// (coefficients, margin) unchanged while keeping the simplex tableau
/// well conditioned — essential once high-degree monomials (|x|⁴ ≈ 625
/// at the domain corners) share rows with O(1) entries.
void normalize_row(linalg::Vector& row) {
  const double scale = row.norm_inf();
  if (scale > 0.0) row /= scale;
}
}  // namespace

std::vector<FieldSample> samples_from_trace(const ode::Trace& trace,
                                            const ode::VectorField& field,
                                            const Rect& domain,
                                            std::size_t max_points,
                                            const Rect* decrease_exclude) {
  const ode::Trace thin = trace.downsampled(max_points);
  std::vector<FieldSample> out;
  out.reserve(thin.size());
  for (std::size_t i = 0; i < thin.size(); ++i) {
    const linalg::Vector& x = thin.state(i);
    if (!domain.contains(x)) continue;
    const bool decrease =
        decrease_exclude == nullptr || !decrease_exclude->contains(x);
    out.push_back({x, field(x), decrease});
  }
  return out;
}

SynthesisResult synthesize_candidate(const std::vector<FieldSample>& samples,
                                     std::size_t dims,
                                     const SynthesisOptions& opts) {
  const std::size_t k = QuadraticForm::basis_size(dims);
  QuadraticForm basis_helper(dims);  // zero form, used for basis math

  // Variables: c_0..c_{k-1} ∈ [−1, 1], margin g ≥ 0. Maximize g.
  lp::LpProblem problem = lp::LpProblem::with_free_vars(k + 1);
  problem.sense = lp::Sense::kMaximize;
  problem.objective[k] = 1.0;
  for (std::size_t i = 0; i < k; ++i) {
    problem.lower[i] = -1.0;
    problem.upper[i] = 1.0;
  }
  problem.lower[k] = 0.0;

  for (const FieldSample& s : samples) {
    const double scale = dot(s.x, s.x);
    if (scale < opts.origin_tol) continue;  // requirements vanish at 0

    // Positivity: −Σ c_k m_k(x) + g·scale ≤ 0.
    linalg::Vector pos_row(k + 1);
    for (std::size_t b = 0; b < k; ++b) {
      pos_row[b] = -basis_helper.basis_value(b, s.x);
    }
    pos_row[k] = scale;
    normalize_row(pos_row);
    problem.add_row(std::move(pos_row), lp::RowRel::kLe,
                    opts.rhs_perturbation *
                        static_cast<double>(problem.num_rows() + 1));

    if (!s.require_decrease) continue;  // inside X0: condition (5) exempt

    // Decrease: Σ c_k (∇m_k(x)·f(x)) + g·scale ≤ 0.
    linalg::Vector dec_row(k + 1);
    for (std::size_t b = 0; b < k; ++b) {
      dec_row[b] = dot(basis_helper.basis_gradient(b, s.x), s.fx);
    }
    dec_row[k] = scale;
    normalize_row(dec_row);
    problem.add_row(std::move(dec_row), lp::RowRel::kLe,
                    opts.rhs_perturbation *
                        static_cast<double>(problem.num_rows() + 1));
  }

  const lp::LpSolution lp_sol = lp::solve_lp(problem, opts.simplex);

  SynthesisResult result{false,         QuadraticForm(dims),
                         0.0,           lp_sol.iterations,
                         lp_sol.status, lp_sol.basis,
                         lp_sol.used_warm_start};
  if (lp_sol.status != lp::LpStatus::kOptimal) return result;

  linalg::Vector coeffs(k);
  for (std::size_t i = 0; i < k; ++i) coeffs[i] = lp_sol.x[i];
  result.margin = lp_sol.x[k];
  result.candidate = QuadraticForm(dims, std::move(coeffs));
  result.feasible = result.margin > opts.min_margin;

  // Rank decrease samples by normalized slack under the (possibly
  // degenerate) optimal candidate; the tightest ones bind the margin.
  std::vector<std::pair<double, std::size_t>> slack;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const FieldSample& s = samples[i];
    if (!s.require_decrease) continue;
    const double scale = dot(s.x, s.x);
    if (scale < opts.origin_tol) continue;
    const double lie = dot(result.candidate.gradient(s.x), s.fx);
    slack.emplace_back(-lie / scale, i);
  }
  std::sort(slack.begin(), slack.end());
  const std::size_t keep = std::min<std::size_t>(4, slack.size());
  for (std::size_t i = 0; i < keep; ++i) {
    result.binding_states.push_back(samples[slack[i].second].x);
  }
  return result;
}

PolySynthesisResult synthesize_polynomial_candidate(
    const std::vector<FieldSample>& samples, const MonomialBasis& basis,
    const SynthesisOptions& opts) {
  const std::size_t k = basis.size();

  lp::LpProblem problem = lp::LpProblem::with_free_vars(k + 1);
  problem.sense = lp::Sense::kMaximize;
  problem.objective[k] = 1.0;
  for (std::size_t i = 0; i < k; ++i) {
    problem.lower[i] = -1.0;
    problem.upper[i] = 1.0;
  }
  problem.lower[k] = 0.0;

  for (const FieldSample& s : samples) {
    const double scale = dot(s.x, s.x);
    if (scale < opts.origin_tol) continue;

    linalg::Vector pos_row(k + 1);
    for (std::size_t b = 0; b < k; ++b) pos_row[b] = -basis.value(b, s.x);
    pos_row[k] = scale;
    normalize_row(pos_row);
    problem.add_row(std::move(pos_row), lp::RowRel::kLe,
                    opts.rhs_perturbation *
                        static_cast<double>(problem.num_rows() + 1));

    if (!s.require_decrease) continue;

    linalg::Vector dec_row(k + 1);
    for (std::size_t b = 0; b < k; ++b) {
      dec_row[b] = dot(basis.gradient(b, s.x), s.fx);
    }
    dec_row[k] = scale;
    normalize_row(dec_row);
    problem.add_row(std::move(dec_row), lp::RowRel::kLe,
                    opts.rhs_perturbation *
                        static_cast<double>(problem.num_rows() + 1));
  }

  const lp::LpSolution lp_sol = lp::solve_lp(problem, opts.simplex);

  PolySynthesisResult result{false,         PolynomialForm(basis),
                             0.0,           lp_sol.iterations,
                             lp_sol.status, lp_sol.basis,
                             lp_sol.used_warm_start};
  if (lp_sol.status != lp::LpStatus::kOptimal) return result;

  linalg::Vector coeffs(k);
  for (std::size_t i = 0; i < k; ++i) coeffs[i] = lp_sol.x[i];
  result.margin = lp_sol.x[k];
  result.candidate = PolynomialForm(basis, std::move(coeffs));
  result.feasible = result.margin > opts.min_margin;
  return result;
}

}  // namespace bcert::core
