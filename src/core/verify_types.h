#pragma once
/// \file verify_types.h
/// \brief Shared vocabulary of the verification stack: the problem
/// statement, tuning options, template selection and the one unified
/// result type every pipeline produces.
///
/// The template-generic `BarrierPipeline` (pipeline.h) and the `Engine`
/// (engine.h) speak these types: one `BarrierProblem`, one
/// `VerifierOptions`, one `VerifyResult`.

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "src/core/fault.h"
#include "src/core/lp_synthesis.h"
#include "src/core/polynomial_form.h"
#include "src/core/quadratic_form.h"
#include "src/core/region.h"
#include "src/expr/expr.h"
#include "src/ode/integrator.h"
#include "src/smt/icp_solver.h"
#include "src/smt/optimizer.h"

namespace bcert::core {

/// The verification problem: a closed-loop system given both numerically
/// (for simulation) and symbolically (for the SMT queries), with the
/// paper's region structure X0 / U = complement(safe_rect) /
/// D = safe_rect \ X0.
struct BarrierProblem {
  ode::VectorField sim_field;            ///< numeric ẋ = f(x)
  std::vector<expr::ExprId> sym_field;   ///< symbolic f, in `pool`
  expr::ExprPool* pool = nullptr;        ///< shared expression pool
  Rect initial_set;                      ///< X0
  Rect safe_rect;                        ///< U is its complement

  /// Optional allocation-free simulation field. Each factory invocation
  /// must return an *independent* field instance (own scratch buffers):
  /// the falsifier and the verifier call it once per thread/rollout to
  /// simulate without touching the allocator. When unset, sim_field is
  /// wrapped (correct, but slower).
  std::function<ode::VectorFieldInPlace()> sim_field_factory;

  /// The fastest simulation field available: sim_field_factory() when
  /// set, otherwise a wrapper around sim_field. The returned field owns
  /// its scratch and must not be shared across threads.
  ode::VectorFieldInPlace make_fast_field() const;

  /// Which dimensions' bounds constitute the unsafe set. Empty means
  /// "all" (the paper's case study). For augmented states — e.g. the
  /// hidden state of a recurrent controller — mark controller dimensions
  /// false: their safe_rect bounds are then treated as an *invariant
  /// domain* instead, and the verifier proves the flow points inward on
  /// those faces (so trajectories provably never leave the region where
  /// the decrease condition was checked).
  std::vector<bool> unsafe_dims;

  /// True when dimension \p i participates in the unsafe set.
  bool dim_unsafe(std::size_t i) const {
    return unsafe_dims.empty() || unsafe_dims[i];
  }
  /// True when some dimension is domain-only (needs invariance proof).
  bool has_invariant_dims() const;

  std::size_t dims() const { return initial_set.dims(); }
  void validate() const;
};

/// Which certificate template the pipeline synthesizes. The quadratic
/// and polynomial pipelines share everything except the level-window
/// strategy and the condition-(7) variant (see pipeline.h).
struct TemplateSpec {
  enum class Kind : std::uint8_t { kQuadratic, kPolynomial };

  Kind kind = Kind::kQuadratic;
  /// Polynomial templates span monomials of total degree 2..max_degree.
  int max_degree = 4;
  /// Certified global-optimizer settings for the polynomial level
  /// window (unused by the quadratic template's analytic window).
  smt::OptimizeConfig optimize;

  static TemplateSpec quadratic() { return {}; }
  static TemplateSpec polynomial(int max_degree = 4,
                                 smt::OptimizeConfig optimize = {}) {
    TemplateSpec spec;
    spec.kind = Kind::kPolynomial;
    spec.max_degree = max_degree;
    spec.optimize = optimize;
    return spec;
  }
};

const char* template_kind_name(TemplateSpec::Kind k);

/// Tuning for the whole procedure.
struct VerifierOptions {
  double gamma = 1e-6;            ///< slack of condition (5), as the paper
  int seed_traces = 10;           ///< initial random simulations
  double trace_duration = 15.0;
  double trace_dt = 0.01;
  std::size_t samples_per_trace = 15;
  /// Positivity-only samples drawn uniformly from the safe rectangle.
  /// Trajectory samples concentrate near the closed loop's attracting
  /// manifold; in augmented state spaces (stateful controllers) that
  /// leaves W unconstrained off-manifold and the LP can return an
  /// indefinite form. Uniform positivity samples restore W > 0 on the
  /// whole domain (they add no decrease rows).
  int positivity_samples = 100;
  int max_candidate_iterations = 20;  ///< LP ↔ SMT(5) refinement loop
  int max_level_iterations = 32;      ///< binary search on ℓ
  double level_margin = 1e-3;         ///< relative shrink of the ℓ window
  unsigned seed = 1;                  ///< RNG seed for initial states
  smt::IcpConfig icp;                 ///< δ-SAT solver settings
  SynthesisOptions synthesis;         ///< LP settings

  /// δ-refinement: a δ-SAT witness of (5) whose *numeric* Lie derivative
  /// is below −γ is spurious (an artifact of interval slack at the
  /// current δ). When enabled, the verifier re-runs the query with a
  /// tighter δ instead of feeding the spurious point back into the LP —
  /// the same workflow as re-invoking dReal with a smaller δ.
  bool adaptive_delta = true;
  double delta_shrink = 0.25;   ///< δ multiplier per refinement
  double min_delta = 1e-7;      ///< refinement floor
};

/// Outcome classes. Only kSafe carries a certificate; the others mirror
/// the "terminates with no conclusion" exits of Figure 1 — plus the
/// Engine-era early exits (cancellation, deadline).
enum class VerifyStatus : std::uint8_t {
  kSafe,
  kLpInfeasible,             ///< no candidate with positive margin
  kMaxCandidateIterations,   ///< CEX loop exhausted
  kLevelSetFailed,           ///< no ℓ window or binary search exhausted
  kSolverBudget,             ///< an SMT query returned UNKNOWN
  kDomainNotInvariant,       ///< flow exits a domain-only face
  kCancelled,                ///< job cancelled via its CancellationToken
  kDeadlineExceeded,         ///< job deadline elapsed mid-pipeline
  kResourceExhausted,        ///< memory quota hit (resource governor)
  kInternalError,            ///< exception crossed the job boundary
};

const char* verify_status_name(VerifyStatus s);

/// Timing columns of Table 1.
struct VerifyTimings {
  int candidate_iterations = 0;  ///< "Avg Num Iterations" contributor
  int lp_solves = 0;
  int smt5_queries = 0;
  double lp_time_s = 0.0;        ///< total LP time
  double smt5_time_s = 0.0;      ///< total SMT-(5) time
  double simulation_time_s = 0.0;
  double generator_time_s = 0.0; ///< total of the candidate loop
  double level_set_time_s = 0.0; ///< ℓ window + SMT (6)/(7)
  double total_time_s = 0.0;

  double avg_lp_time_s() const {
    return lp_solves ? lp_time_s / lp_solves : 0.0;
  }
  double avg_smt5_time_s() const {
    return smt5_queries ? smt5_time_s / smt5_queries : 0.0;
  }
  /// Table 1 "Time Spent in Other Steps".
  double other_time_s() const {
    return total_time_s - generator_time_s - level_set_time_s;
  }

  /// Column-wise accumulation (campaign aggregates).
  void accumulate(const VerifyTimings& other);
};

/// The one verification report, shared by both templates. Exactly one of
/// `generator` / `poly_generator` is set (matching `template_kind`);
/// everything else is template-independent.
struct VerifyResult {
  VerifyStatus status = VerifyStatus::kMaxCandidateIterations;
  TemplateSpec::Kind template_kind = TemplateSpec::Kind::kQuadratic;
  std::optional<QuadraticForm> generator;       ///< quadratic W candidate
  std::optional<PolynomialForm> poly_generator; ///< polynomial W candidate
  double level = 0.0;                      ///< ℓ (when kSafe)
  double lp_margin = 0.0;                  ///< margin of the final LP
  VerifyTimings timings;
  std::vector<linalg::Vector> counterexamples;  ///< CEX states from (5)
  /// Typed error detail for the failure statuses (kCancelled,
  /// kDeadlineExceeded, kResourceExhausted, kInternalError); ok() for
  /// every analytic outcome.
  Status error;
  /// Degradation-ladder decisions taken while producing this result
  /// (jit→tape, tape→tree, cold starts, LP cold solves, campaign
  /// retries). All-zero on a clean run.
  DegradationReport degradation;

  bool safe() const { return status == VerifyStatus::kSafe; }
  /// W(x) of whichever generator is set; requires one to be set.
  double generator_value(const linalg::Vector& x) const;
  /// Coefficient vector of whichever generator is set.
  const linalg::Vector& generator_coeffs() const;
  bool has_generator() const {
    return generator.has_value() || poly_generator.has_value();
  }
};

}  // namespace bcert::core
