#pragma once
/// \file lp_synthesis.h
/// \brief Candidate-generator synthesis by linear programming (§3).
///
/// Simulation traces supply sample states x with field values f(x). The
/// generator W is linear in its template coefficients c, so both
/// requirements discretize into linear constraints:
///
///   positivity:  W(x) ≥ g·‖x‖²        (W positive away from the origin)
///   decrease:    ∇W(x)·f(x) ≤ −g·‖x‖² (W strictly decreasing)
///
/// with the shared margin g maximized subject to c ∈ [−1, 1]^k (the usual
/// normalization — W is scale-invariant). A strictly positive optimal
/// margin yields a robust candidate; CEX states found by the SMT check
/// re-enter as additional samples.

#include <vector>

#include "src/core/polynomial_form.h"
#include "src/core/quadratic_form.h"
#include "src/linalg/vector.h"
#include "src/lp/problem.h"
#include "src/lp/simplex.h"
#include "src/ode/integrator.h"
#include "src/ode/trace.h"

namespace bcert::core {

/// One LP sample: a state and the closed-loop field there. The decrease
/// constraint only applies where condition (5) requires it (D \ X0) —
/// samples inside X0 contribute positivity rows only.
struct FieldSample {
  linalg::Vector x;
  linalg::Vector fx;
  bool require_decrease = true;
};

/// Collects LP samples from a trace: keeps states inside \p domain
/// (drops the rest), downsampled to at most \p max_points, and evaluates
/// \p field at each kept state. States inside \p decrease_exclude (if
/// given) are marked positivity-only.
std::vector<FieldSample> samples_from_trace(
    const ode::Trace& trace, const ode::VectorField& field,
    const Rect& domain, std::size_t max_points,
    const Rect* decrease_exclude = nullptr);

/// Result of one candidate-synthesis LP.
struct SynthesisResult {
  bool feasible = false;     ///< LP optimal with positive margin
  QuadraticForm candidate;   ///< meaningful only when feasible
  double margin = 0.0;       ///< optimal g
  int lp_iterations = 0;
  lp::LpStatus lp_status = lp::LpStatus::kIterLimit;
  /// Final simplex basis (optimal solves only). Feed it back through
  /// SynthesisOptions::simplex.warm_start on the next candidate LP —
  /// the refinement loop only appends counterexample rows, which is
  /// exactly the append-only pattern the warm start is built for.
  lp::LpBasis basis;
  /// True when the LP completed from the provided warm basis.
  bool lp_warm_started = false;
  /// States whose decrease constraint binds the margin (worst first).
  /// When the LP is infeasible these locate where *no* template
  /// candidate can decrease — valuable feedback for retraining (CEGIS).
  std::vector<linalg::Vector> binding_states;
};

/// Options for the synthesis LP.
struct SynthesisOptions {
  double min_margin = 1e-6;   ///< required optimal margin
  double origin_tol = 1e-9;   ///< samples closer to 0 than this are skipped
  /// The margin LP is homogeneous (all right-hand sides zero), which
  /// makes its starting vertex maximally degenerate and can stall the
  /// simplex for tens of thousands of pivots. Distinct tiny RHS
  /// perturbations break the degeneracy; the ≤1e-9 relaxation they
  /// introduce is dwarfed by the required margin and the candidate is
  /// re-validated symbolically regardless.
  double rhs_perturbation = 1e-10;
  lp::SimplexOptions simplex;
  /// Thread the previous iteration's basis into the next candidate LP
  /// (`BarrierPipeline` does this via SynthesisResult::basis). The one
  /// switch for LP basis warm-starting; false = every LP cold-starts.
  bool warm_start = true;
};

/// Solves the margin-maximization LP over all \p samples for a pure
/// quadratic template in \p dims variables.
SynthesisResult synthesize_candidate(const std::vector<FieldSample>& samples,
                                     std::size_t dims,
                                     const SynthesisOptions& opts = {});

/// Result of polynomial-template synthesis (general monomial basis).
struct PolySynthesisResult {
  bool feasible = false;
  PolynomialForm candidate;
  double margin = 0.0;
  int lp_iterations = 0;
  lp::LpStatus lp_status = lp::LpStatus::kIterLimit;
  /// Final simplex basis (optimal solves only); see SynthesisResult.
  lp::LpBasis basis;
  /// True when the LP completed from the provided warm basis.
  bool lp_warm_started = false;
};

/// Same LP over an arbitrary monomial basis (see polynomial_form.h):
/// positivity `W(x) ≥ g‖x‖²` and decrease `∇W·f ≤ −g‖x‖²` per sample,
/// coefficients in [−1, 1], margin g maximized.
PolySynthesisResult synthesize_polynomial_candidate(
    const std::vector<FieldSample>& samples, const MonomialBasis& basis,
    const SynthesisOptions& opts = {});

}  // namespace bcert::core
