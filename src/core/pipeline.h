#pragma once
/// \file pipeline.h
/// \brief The template-generic Figure-1 verification pipeline.
///
/// `BarrierPipeline<Form>` is the single implementation of the paper's
/// procedure — seed simulations, the LP ↔ SMT(5) candidate refinement
/// loop, domain invariance, level-set selection with SMT (6)/(7) — for
/// any certificate template `Form` (today `QuadraticForm` and
/// `PolynomialForm`). `core::Engine` runs it for jobs and campaigns;
/// tests, benches and ablations drive its sub-steps directly.
///
/// The per-template differences are isolated in `CertificateTraits`:
///
///  * **synthesize** — which margin LP builds a candidate (pure
///    quadratic template vs a general monomial basis);
///  * **level_window** — the analytic ellipsoid window (quadratic) vs
///    the certified global-optimizer window (polynomial);
///  * **check_level_exclusion** — condition (7) over the level set's
///    bounding box intersected with U's halfspaces (quadratic) vs the
///    face form (7′) over ∂(safe_rect) (polynomial; the soundness
///    argument is at `CertificateTraits<PolynomialForm>`).
///
/// Everything else — the decrease check (5), the initial-set check (6),
/// domain invariance, the δ-refinement workflow, the Table-1 timing
/// instrumentation and the binary search on ℓ — is shared code.
///
/// `PipelineHooks` is how the Engine drives a pipeline run: cooperative
/// cancellation, a deadline (both also interrupt long ICP queries via
/// `IcpConfig::interrupt` / clamped time limits), progress callbacks, a
/// memory budget, and the cross-scenario LP warm-basis slot. A run
/// executes entirely on its caller's thread.

#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/verify_types.h"
#include "src/interval/box.h"

namespace bcert::parallel {
class CancellationToken;
}  // namespace bcert::parallel

namespace bcert::core {

/// Pipeline phases, reported through `PipelineHooks::on_progress`.
enum class JobPhase : std::uint8_t {
  kSeeding,        ///< initial random simulations
  kCandidateLoop,  ///< LP ↔ SMT(5) refinement
  kLevelSet,       ///< invariance + ℓ window + SMT (6)/(7)
  kDone,
};

const char* job_phase_name(JobPhase p);

/// Progress snapshot passed to the callback. Invoked from the thread
/// executing the pipeline (an Engine pool worker for submitted jobs) —
/// callbacks must be thread-safe and cheap.
struct JobProgress {
  JobPhase phase = JobPhase::kSeeding;
  int candidate_iteration = 0;  ///< 1-based, 0 before the loop
  int level_iteration = 0;      ///< 1-based, 0 before the search
};

/// Execution context the Engine (or a test harness) threads into a
/// pipeline run. Default-constructed hooks reproduce the classic
/// blocking one-shot `verify()` exactly.
struct PipelineHooks {
  /// Cooperative cancellation: polled between pipeline steps and wired
  /// into every ICP query via IcpConfig::interrupt, so a cancel aborts
  /// even a long-running SMT check promptly. Result status: kCancelled.
  const parallel::CancellationToken* cancel = nullptr;
  /// Wall-clock deadline; each ICP query's time limit is clamped to the
  /// remaining budget. Result status: kDeadlineExceeded.
  std::chrono::steady_clock::time_point deadline{};
  bool has_deadline = false;
  std::function<void(const JobProgress&)> on_progress;
  /// Cross-run LP warm-basis slot (the Engine's per-shape store): read
  /// as the first candidate LP's starting basis, overwritten with the
  /// final basis on exit. Warm starts never change LP *results* —
  /// stale/singular bases silently cold-start — but with degenerate
  /// alternate optima a different (equally optimal) vertex may be
  /// reported than a cold solve would find.
  lp::LpBasis* warm_basis_io = nullptr;
  /// Per-job memory budget (the Engine's resource governor): the ICP
  /// frontier and UNSAT-tree recorder charge against it, and a latched
  /// quota breach surfaces as VerifyStatus::kResourceExhausted instead
  /// of unbounded growth. Null = unlimited.
  MemoryBudget* mem_budget = nullptr;
};

template <typename Form>
class BarrierPipeline;

/// What one candidate synthesis produced, template-independently shaped
/// (the traits adapt SynthesisResult / PolySynthesisResult onto this).
template <typename Form>
struct PipelineSynthesis {
  bool feasible = false;
  /// Engaged whenever the LP ran (the forms have no default state).
  std::optional<Form> candidate;
  double margin = 0.0;
  lp::LpBasis basis;
  bool lp_warm_started = false;
  /// States whose decrease constraint binds an infeasible LP (quadratic
  /// synthesis only — empty for polynomial templates).
  std::vector<linalg::Vector> binding_states;
};

/// The per-template specialization layer. Only these five operations
/// differ between certificate templates; see the file comment.
template <typename Form>
struct CertificateTraits;

template <>
struct CertificateTraits<QuadraticForm> {
  static constexpr const char* kName = "quadratic";
  static constexpr TemplateSpec::Kind kKind = TemplateSpec::Kind::kQuadratic;

  /// The quadratic template needs no synthesis state beyond the
  /// problem dimension.
  struct Context {
    Context(const BarrierProblem&, const TemplateSpec&) {}
  };

  static PipelineSynthesis<QuadraticForm> synthesize(
      const std::vector<FieldSample>& samples,
      const BarrierPipeline<QuadraticForm>& pipeline,
      const SynthesisOptions& options);
  static void store_generator(VerifyResult& result, const QuadraticForm& w);
  static bool certificate_admissible(const QuadraticForm& w, double level);
  /// Analytic ellipsoid window [ℓ_min, ℓ_max].
  static std::optional<std::pair<double, double>> level_window(
      const BarrierPipeline<QuadraticForm>& pipeline, const QuadraticForm& w);
  /// Condition (7): ∃x : W(x) ≤ ℓ ∧ x ∈ U over the level set's padded
  /// bounding box.
  static smt::IcpResult check_level_exclusion(
      const BarrierPipeline<QuadraticForm>& pipeline, const QuadraticForm& w,
      double level);
};

/// Polynomial templates of degree 2..max_degree (the paper's
/// "Sum-of-Squares polynomials" remark, §3). Two things differ from the
/// quadratic template:
///
///  * The level set {W ≤ ℓ} of a higher-degree W is not an ellipsoid, so
///    there is no closed-form ℓ window. Both ends come from the certified
///    global optimizer (smt/optimizer.h): ℓ must exceed the certified
///    max of W over X0 and stay below the certified min of W over every
///    *face* of the safe rectangle.
///  * Condition (7) is replaced by its face form (7′):
///        ∃x ∈ ∂(safe_rect) : W(x) ≤ ℓ      — must be UNSAT.
///    Soundness: a trajectory from X0 ⊂ {W ≤ ℓ} (by (6)) that reaches U
///    must cross ∂(safe_rect). Along the way W never exceeds ℓ — inside
///    X0 by (6), outside X0 by the strict decrease (5) — yet every
///    boundary point with W ≤ ℓ is excluded by (7′). Contradiction, so
///    U is unreachable. This is the same argument the paper makes with
///    L ∩ U = ∅, specialized to U = complement(safe_rect). Faces of
///    domain-only dimensions are covered by the flow-invariance check
///    (`BarrierPipeline::check_domain_invariance`) instead.
template <>
struct CertificateTraits<PolynomialForm> {
  static constexpr const char* kName = "polynomial";
  static constexpr TemplateSpec::Kind kKind = TemplateSpec::Kind::kPolynomial;

  struct Context {
    MonomialBasis basis;
    smt::OptimizeConfig optimize;
    Context(const BarrierProblem& p, const TemplateSpec& spec)
        : basis(p.dims(), 2, spec.max_degree), optimize(spec.optimize) {}
  };

  static PipelineSynthesis<PolynomialForm> synthesize(
      const std::vector<FieldSample>& samples,
      const BarrierPipeline<PolynomialForm>& pipeline,
      const SynthesisOptions& options);
  static void store_generator(VerifyResult& result, const PolynomialForm& w);
  static bool certificate_admissible(const PolynomialForm& w, double level);
  /// Certified optimizer window: ℓ above the certified max of W over
  /// X0, below the certified min over the boundary faces.
  static std::optional<std::pair<double, double>> level_window(
      const BarrierPipeline<PolynomialForm>& pipeline,
      const PolynomialForm& w);
  /// Condition (7′): ∃x on an unsafe-dimension face of the safe
  /// rectangle with W(x) ≤ ℓ.
  static smt::IcpResult check_level_exclusion(
      const BarrierPipeline<PolynomialForm>& pipeline,
      const PolynomialForm& w, double level);
};

/// The Figure-1 procedure, generic over the certificate template. The
/// sub-steps are public so tests, benches and ablations can drive them
/// independently.
template <typename Form>
class BarrierPipeline {
 public:
  using Traits = CertificateTraits<Form>;

  /// Validates the problem and installs per-run tape/UNSAT-tree caches
  /// when the options carry none (the Engine injects its shared caches
  /// instead).
  BarrierPipeline(BarrierProblem problem, VerifierOptions options,
                  TemplateSpec spec = {});

  /// Runs the full pipeline under the given execution hooks.
  VerifyResult run(PipelineHooks hooks = {});

  // --- exposed sub-steps -------------------------------------------------

  /// Simulates from \p x0 until the horizon or domain exit and returns
  /// in-domain LP samples.
  std::vector<FieldSample> simulate_samples(const linalg::Vector& x0) const;

  /// Random initial states across the safe rectangle.
  std::vector<linalg::Vector> random_initial_states(int count,
                                                    unsigned seed) const;

  /// SMT condition (5): ∃x ∈ D\X0 : ∇W·f(x) ≥ −γ. UNSAT ⇒ valid
  /// generator. \p delta overrides the configured ICP precision when
  /// positive.
  ///
  /// \p resume, when set, is the `suspension` of this query's answer at
  /// a larger δ (the solver keeps one on every δ-SAT answer; see
  /// src/smt/icp_solver.h). The solver then continues that depth-first
  /// search where doing so is bit-identical to a fresh solve — same
  /// verdict, witness bits, statistics, recorded trees and cache state
  /// as `check_decrease(w, delta)` — and solves afresh otherwise.
  smt::IcpResult check_decrease(
      const Form& w, double delta = 0.0,
      std::shared_ptr<smt::IcpSuspension> resume = nullptr) const;

  /// Condition (5) under the pipeline's δ-refinement policy, the one the
  /// candidate loop and check_certificate share: query at the configured
  /// δ, then — with `adaptive_delta` on, while the answer is δ-SAT, its
  /// witness is spurious (numeric ∇W·f below −γ) and δ is above
  /// `min_delta` — re-query at δ·`delta_shrink`, each step resuming the
  /// previous step's suspended search. Returns the last answer, its
  /// suspension dropped; adds the number of queries made to \p queries
  /// when non-null.
  smt::IcpResult refine_decrease(const Form& w, int* queries = nullptr) const;

  /// Numeric ∇W·f(x) at a point (used to classify δ-SAT witnesses).
  double numeric_lie(const Form& w, const linalg::Vector& x) const;

  /// SMT condition (6): ∃x ∈ X0 : W(x) > ℓ. UNSAT ⇒ X0 ⊂ L.
  smt::IcpResult check_initial_contained(const Form& w, double level) const;

  /// The template's condition-(7) variant (see CertificateTraits).
  smt::IcpResult check_level_exclusion(const Form& w, double level) const;

  /// For every domain-only dimension, proves the vector field points
  /// inward on both faces of the safe rectangle (∃x on face with
  /// outward flow must be UNSAT). Returns a kSat-style result on the
  /// first violation; an UNSAT result when all faces are invariant.
  smt::IcpResult check_domain_invariance() const;

  /// The template's ℓ window [ℓ_min, ℓ_max]; nullopt when none exists.
  std::optional<std::pair<double, double>> level_window(const Form& w) const;

  /// Independent certificate checking: re-proves conditions (5), (6)
  /// and (7)/(7′) for a *given* candidate pair (W, ℓ) without any
  /// synthesis — (5) under the same δ-refinement as the candidate loop
  /// (refine_decrease), so every certificate run() accepts re-checks.
  /// Returns kSafe only when all three queries are UNSAT.
  VerifyStatus check_certificate(const Form& w, double level) const;

  /// Writes the three SMT queries for the pair (W, ℓ) as SMT-LIB2
  /// benchmarks cross-checkable with dReal: `<prefix>_decrease.smt2`,
  /// `<prefix>_initial.smt2`, `<prefix>_unsafe.smt2`.
  void export_queries_smtlib(const Form& w, double level,
                             const std::string& prefix) const;

  /// Faces of the safe rectangle as degenerate boxes; when
  /// \p unsafe_only, restricted to unsafe dimensions.
  std::vector<interval::Box> safe_faces(bool unsafe_only) const;

  /// Solves a query with this pipeline's effective ICP configuration
  /// (caches, hooks interrupt/pool, deadline-clamped time limit).
  smt::IcpResult solve(const smt::Conjunction& query,
                       const interval::Box& box) const;
  smt::IcpResult solve(const smt::Dnf& query, const interval::Box& box) const;

  const BarrierProblem& problem() const { return problem_; }
  const VerifierOptions& options() const { return options_; }
  const TemplateSpec& spec() const { return spec_; }
  const typename Traits::Context& context() const { return context_; }

 private:
  /// Effective ICP config for one query: hooks wired in, δ overridden
  /// when positive, time limit clamped to the remaining deadline.
  smt::IcpConfig icp_config(double delta = 0.0) const;
  /// Sets the status and returns true when the run should stop (cancel
  /// fired or deadline passed).
  bool interrupted(VerifyResult& result) const;
  /// What a kUnknown ICP verdict means for this run: kResourceExhausted
  /// when the job's memory budget latched (the query wound down because
  /// admission stopped, not because the solver budget ran out),
  /// kSolverBudget otherwise.
  VerifyStatus unknown_status() const;
  /// The procedure body; run() wraps it to stamp the degradation
  /// snapshot and the typed error onto every exit path.
  VerifyResult run_impl();
  void report_progress(JobPhase phase, int candidate_iteration,
                       int level_iteration) const;

  BarrierProblem problem_;
  VerifierOptions options_;
  TemplateSpec spec_;
  typename Traits::Context context_;
  PipelineHooks hooks_;  ///< live during run(); defaults otherwise
  /// Per-run fallback tallies (jit→tape, tape→tree, cold starts),
  /// shared with the ICP workers via IcpConfig::degrade. Mutable: the
  /// const query helpers hand out a non-const pointer.
  mutable DegradationCounters degrade_;
};

extern template class BarrierPipeline<QuadraticForm>;
extern template class BarrierPipeline<PolynomialForm>;

}  // namespace bcert::core
