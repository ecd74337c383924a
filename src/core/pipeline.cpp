#include "src/core/pipeline.h"

#include <chrono>
#include <cmath>
#include <fstream>
#include <limits>
#include <memory>
#include <random>

#include "src/expr/derivative.h"
#include "src/parallel/thread_pool.h"
#include "src/smt/smtlib_export.h"

namespace bcert::core {

namespace {

using clock = std::chrono::steady_clock;

double seconds_since(clock::time_point t0) {
  return std::chrono::duration<double>(clock::now() - t0).count();
}

}  // namespace

const char* job_phase_name(JobPhase p) {
  switch (p) {
    case JobPhase::kSeeding: return "seeding";
    case JobPhase::kCandidateLoop: return "candidate-loop";
    case JobPhase::kLevelSet: return "level-set";
    case JobPhase::kDone: return "done";
  }
  return "?";
}

// --- CertificateTraits<QuadraticForm> ---------------------------------------

PipelineSynthesis<QuadraticForm> CertificateTraits<QuadraticForm>::synthesize(
    const std::vector<FieldSample>& samples,
    const BarrierPipeline<QuadraticForm>& pipeline,
    const SynthesisOptions& options) {
  SynthesisResult r =
      synthesize_candidate(samples, pipeline.problem().dims(), options);
  PipelineSynthesis<QuadraticForm> out;
  out.feasible = r.feasible;
  out.candidate = std::move(r.candidate);
  out.margin = r.margin;
  out.basis = std::move(r.basis);
  out.lp_warm_started = r.lp_warm_started;
  out.binding_states = std::move(r.binding_states);
  return out;
}

void CertificateTraits<QuadraticForm>::store_generator(
    VerifyResult& result, const QuadraticForm& w) {
  result.generator = w;
}

bool CertificateTraits<QuadraticForm>::certificate_admissible(
    const QuadraticForm& w, double level) {
  return w.positive_definite() && level > 0.0;
}

std::optional<std::pair<double, double>>
CertificateTraits<QuadraticForm>::level_window(
    const BarrierPipeline<QuadraticForm>& pipeline, const QuadraticForm& w) {
  const BarrierProblem& problem = pipeline.problem();
  if (!w.positive_definite()) return std::nullopt;
  const double lo = w.min_level_containing(problem.initial_set);
  double hi = std::numeric_limits<double>::infinity();
  for (const Halfspace& hs : complement_halfspaces(problem.safe_rect)) {
    if (!problem.dim_unsafe(hs.dim)) continue;
    const std::optional<double> cap = w.max_level_avoiding(hs);
    if (!cap) return std::nullopt;
    hi = std::min(hi, *cap);
  }
  if (!std::isfinite(hi)) return std::nullopt;
  if (!(lo < hi) || lo <= 0.0) return std::nullopt;
  return std::make_pair(lo, hi);
}

smt::IcpResult CertificateTraits<QuadraticForm>::check_level_exclusion(
    const BarrierPipeline<QuadraticForm>& pipeline, const QuadraticForm& w,
    double level) {
  const BarrierProblem& problem = pipeline.problem();
  expr::ExprPool& pool = *problem.pool;

  // The level set L = {W ≤ ℓ} is bounded (W must be PD to get here);
  // search its padded bounding box intersected with each unsafe
  // halfspace of U = complement(safe_rect).
  const std::optional<Rect> bbox = w.level_set_bounding_box(level);
  if (!bbox) {
    // Not PD — report as a (spurious) SAT so the caller rejects ℓ.
    smt::IcpResult r;
    r.verdict = smt::SatResult::kDeltaSat;
    return r;
  }
  Rect padded = *bbox;
  for (std::size_t i = 0; i < padded.dims(); ++i) {
    const double pad = 1e-6 + 1e-6 * (padded.hi[i] - padded.lo[i]);
    padded.lo[i] -= pad;
    padded.hi[i] += pad;
  }

  smt::Conjunction in_level_set;
  in_level_set.add(pool.sub(w.to_expr(pool), pool.constant(level)),
                   smt::Rel::kLe);
  // Only the unsafe dimensions' halfspaces constitute U.
  smt::Dnf outside;
  for (const Halfspace& hs : complement_halfspaces(problem.safe_rect)) {
    if (!problem.dim_unsafe(hs.dim)) continue;
    smt::Conjunction c;
    c.constraints.push_back(halfspace_constraint(pool, hs));
    outside.disjuncts.push_back(std::move(c));
  }
  const smt::Dnf query = outside.conjoin(smt::Dnf::single(in_level_set));
  return pipeline.solve(query, padded.as_box());
}

// --- CertificateTraits<PolynomialForm> --------------------------------------

PipelineSynthesis<PolynomialForm>
CertificateTraits<PolynomialForm>::synthesize(
    const std::vector<FieldSample>& samples,
    const BarrierPipeline<PolynomialForm>& pipeline,
    const SynthesisOptions& options) {
  PolySynthesisResult r = synthesize_polynomial_candidate(
      samples, pipeline.context().basis, options);
  PipelineSynthesis<PolynomialForm> out;
  out.feasible = r.feasible;
  out.candidate = std::move(r.candidate);
  out.margin = r.margin;
  out.basis = std::move(r.basis);
  out.lp_warm_started = r.lp_warm_started;
  return out;
}

void CertificateTraits<PolynomialForm>::store_generator(
    VerifyResult& result, const PolynomialForm& w) {
  result.poly_generator = w;
}

bool CertificateTraits<PolynomialForm>::certificate_admissible(
    const PolynomialForm&, double level) {
  return level > 0.0;
}

std::optional<std::pair<double, double>>
CertificateTraits<PolynomialForm>::level_window(
    const BarrierPipeline<PolynomialForm>& pipeline, const PolynomialForm& w) {
  const BarrierProblem& problem = pipeline.problem();
  expr::ExprPool& pool = *problem.pool;
  const expr::ExprId w_expr = w.to_expr(pool);
  const smt::OptimizeConfig& optimize = pipeline.context().optimize;

  // ℓ_min: certified *upper* bound of max W over X0 (so X0 ⊂ L holds
  // for any ℓ above it).
  const smt::OptimizeResult over_x0 =
      smt::maximize(pool, w_expr, problem.initial_set.as_box(), optimize);
  const double lo = over_x0.upper;

  // ℓ_max: certified *lower* bound of min W over the boundary faces.
  double hi = std::numeric_limits<double>::infinity();
  for (const interval::Box& face : pipeline.safe_faces(true)) {
    const smt::OptimizeResult on_face =
        smt::minimize(pool, w_expr, face, optimize);
    hi = std::min(hi, on_face.lower);
  }
  if (!(lo < hi) || lo <= 0.0 || !std::isfinite(hi)) return std::nullopt;
  return std::make_pair(lo, hi);
}

smt::IcpResult CertificateTraits<PolynomialForm>::check_level_exclusion(
    const BarrierPipeline<PolynomialForm>& pipeline, const PolynomialForm& w,
    double level) {
  // Condition (7′): ∃x ∈ ∂(safe_rect) with W(x) ≤ ℓ — must be UNSAT.
  // Faces of domain-only dimensions are covered by the flow-invariance
  // check instead (BarrierProblem::unsafe_dims).
  const BarrierProblem& problem = pipeline.problem();
  expr::ExprPool& pool = *problem.pool;
  smt::Conjunction in_level_set;
  in_level_set.add(pool.sub(w.to_expr(pool), pool.constant(level)),
                   smt::Rel::kLe);

  smt::IcpResult aggregate;
  aggregate.verdict = smt::SatResult::kUnsat;
  for (const interval::Box& face : pipeline.safe_faces(true)) {
    smt::IcpResult r = pipeline.solve(in_level_set, face);
    aggregate.stats.boxes_processed += r.stats.boxes_processed;
    aggregate.stats.solve_time_s += r.stats.solve_time_s;
    if (r.is_sat()) return r;
    if (r.verdict == smt::SatResult::kUnknown) {
      aggregate.verdict = smt::SatResult::kUnknown;
    }
  }
  return aggregate;
}

// --- BarrierPipeline --------------------------------------------------------

template <typename Form>
BarrierPipeline<Form>::BarrierPipeline(BarrierProblem problem,
                                       VerifierOptions options,
                                       TemplateSpec spec)
    : problem_(std::move(problem)),
      options_(std::move(options)),
      spec_(spec),
      context_(problem_, spec_) {
  problem_.validate();
  // Multi-query ICP: every δ-SAT check in the LP ↔ SMT refinement loop
  // goes through this pipeline's pool, and the adaptive-δ re-checks
  // repeat identical (hash-consed) conjunctions, so one shared tape
  // cache lets the solvers reuse compiled HC4 schedules across queries.
  // The Engine injects longer-lived caches here to extend the reuse
  // across whole scenario campaigns; a standalone pipeline's caches die
  // with it, well before the ExprPool.
  if (!options_.icp.tape_cache) {
    options_.icp.tape_cache = std::make_shared<smt::TapeCache>();
  }
  // UNSAT-tree warm-starting (IcpConfig::warm_start): successive candidates
  // differ only in W's coefficients, so their decrease/level queries
  // share structural signatures and each refutation seeds the next
  // query's frontier from the previous proof's leaf partition. Sound by
  // construction — replayed leaves partition the same search box, and a
  // stale seed silently cold-starts — so verdicts never change.
  if (!options_.icp.unsat_cache) {
    options_.icp.unsat_cache = std::make_shared<smt::UnsatTreeCache>();
  }
}

template <typename Form>
smt::IcpConfig BarrierPipeline<Form>::icp_config(double delta) const {
  smt::IcpConfig config = options_.icp;
  if (delta > 0.0) config.delta = delta;
  if (hooks_.cancel != nullptr) config.interrupt = hooks_.cancel;
  if (hooks_.has_deadline) {
    const double remaining =
        std::chrono::duration<double>(hooks_.deadline - clock::now())
            .count();
    config.time_limit_s = std::min(config.time_limit_s,
                                   std::max(0.0, remaining));
  }
  config.mem_budget = hooks_.mem_budget;
  config.degrade = &degrade_;
  return config;
}

template <typename Form>
bool BarrierPipeline<Form>::interrupted(VerifyResult& result) const {
  if (hooks_.cancel != nullptr && hooks_.cancel->cancelled()) {
    result.status = VerifyStatus::kCancelled;
    return true;
  }
  if (hooks_.has_deadline && clock::now() >= hooks_.deadline) {
    result.status = VerifyStatus::kDeadlineExceeded;
    return true;
  }
  return false;
}

template <typename Form>
VerifyStatus BarrierPipeline<Form>::unknown_status() const {
  if (hooks_.mem_budget != nullptr && hooks_.mem_budget->exhausted()) {
    return VerifyStatus::kResourceExhausted;
  }
  return VerifyStatus::kSolverBudget;
}

template <typename Form>
void BarrierPipeline<Form>::report_progress(JobPhase phase,
                                            int candidate_iteration,
                                            int level_iteration) const {
  if (!hooks_.on_progress) return;
  JobProgress progress;
  progress.phase = phase;
  progress.candidate_iteration = candidate_iteration;
  progress.level_iteration = level_iteration;
  hooks_.on_progress(progress);
}

template <typename Form>
smt::IcpResult BarrierPipeline<Form>::solve(const smt::Conjunction& query,
                                            const interval::Box& box) const {
  smt::IcpSolver solver(*problem_.pool, icp_config());
  return solver.solve(query, box);
}

template <typename Form>
smt::IcpResult BarrierPipeline<Form>::solve(const smt::Dnf& query,
                                            const interval::Box& box) const {
  smt::IcpSolver solver(*problem_.pool, icp_config());
  return solver.solve(query, box);
}

template <typename Form>
std::vector<FieldSample> BarrierPipeline<Form>::simulate_samples(
    const linalg::Vector& x0) const {
  ode::IntegrateOptions iopts;
  iopts.step = options_.trace_dt;
  iopts.t_end = options_.trace_duration;
  const Rect& domain = problem_.safe_rect;
  // Stop once the state leaves a slightly padded domain — such states
  // are in U and contribute no constraints.
  iopts.stop = [&domain](double, const linalg::Vector& x) {
    for (std::size_t i = 0; i < domain.dims(); ++i) {
      const double pad = 0.05 * (domain.hi[i] - domain.lo[i]);
      if (x[i] < domain.lo[i] - pad || x[i] > domain.hi[i] + pad) return true;
    }
    return false;
  };
  const ode::Trace trace =
      integrate_rk4(problem_.make_fast_field(), x0, iopts);
  return samples_from_trace(trace, problem_.sim_field, domain,
                            options_.samples_per_trace,
                            &problem_.initial_set);
}

template <typename Form>
std::vector<linalg::Vector> BarrierPipeline<Form>::random_initial_states(
    int count, unsigned seed) const {
  std::mt19937 rng(seed);
  const Rect& domain = problem_.safe_rect;
  std::vector<std::uniform_real_distribution<double>> dims;
  dims.reserve(domain.dims());
  for (std::size_t i = 0; i < domain.dims(); ++i) {
    dims.emplace_back(domain.lo[i], domain.hi[i]);
  }
  std::vector<linalg::Vector> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int k = 0; k < count; ++k) {
    linalg::Vector x(domain.dims());
    for (std::size_t i = 0; i < domain.dims(); ++i) x[i] = dims[i](rng);
    out.push_back(std::move(x));
  }
  return out;
}

template <typename Form>
smt::IcpResult BarrierPipeline<Form>::check_decrease(
    const Form& w, double delta,
    std::shared_ptr<smt::IcpSuspension> resume) const {
  expr::ExprPool& pool = *problem_.pool;
  const expr::ExprId w_expr = w.to_expr(pool);
  const expr::ExprId lie =
      expr::lie_derivative(pool, w_expr, problem_.sym_field);
  // ∇W·f + γ ≥ 0 — the satisfiability query whose UNSAT proves (3).
  smt::Conjunction decrease;
  decrease.add(pool.add(lie, pool.constant(options_.gamma)), smt::Rel::kGe);

  // x ∈ D \ X0 : search the safe rectangle, excluding X0 (DNF split).
  const smt::Dnf query =
      outside_rect(pool, problem_.initial_set)
          .conjoin(smt::Dnf::single(std::move(decrease)));

  smt::IcpSolver solver(pool, icp_config(delta));
  return solver.solve(query, problem_.safe_rect.as_box(), std::move(resume));
}

template <typename Form>
smt::IcpResult BarrierPipeline<Form>::refine_decrease(const Form& w,
                                                      int* queries) const {
  smt::IcpResult check = check_decrease(w);
  int made = 1;
  // δ-refinement: re-query with tighter δ while the witness is a
  // spurious artifact of interval slack (numeric Lie below −γ).
  double delta = options_.icp.delta;
  while (options_.adaptive_delta &&
         check.verdict == smt::SatResult::kDeltaSat &&
         delta > options_.min_delta &&
         numeric_lie(w, check.witness_point()) < -options_.gamma) {
    delta *= options_.delta_shrink;
    check = check_decrease(w, delta, std::move(check.suspension));
    ++made;
  }
  check.suspension.reset();
  if (queries != nullptr) *queries += made;
  return check;
}

template <typename Form>
double BarrierPipeline<Form>::numeric_lie(const Form& w,
                                          const linalg::Vector& x) const {
  return dot(w.gradient(x), problem_.sim_field(x));
}

template <typename Form>
smt::IcpResult BarrierPipeline<Form>::check_initial_contained(
    const Form& w, double level) const {
  expr::ExprPool& pool = *problem_.pool;
  smt::Conjunction query;
  // W(x) − ℓ > 0 somewhere in X0 would violate X0 ⊂ L.
  query.add(pool.sub(w.to_expr(pool), pool.constant(level)), smt::Rel::kGt);
  return solve(query, problem_.initial_set.as_box());
}

template <typename Form>
smt::IcpResult BarrierPipeline<Form>::check_level_exclusion(
    const Form& w, double level) const {
  return Traits::check_level_exclusion(*this, w, level);
}

template <typename Form>
smt::IcpResult BarrierPipeline<Form>::check_domain_invariance() const {
  expr::ExprPool& pool = *problem_.pool;
  smt::IcpSolver solver(pool, icp_config());

  smt::IcpResult aggregate;
  aggregate.verdict = smt::SatResult::kUnsat;
  for (std::size_t i = 0; i < problem_.dims(); ++i) {
    if (problem_.dim_unsafe(i)) continue;
    for (const int side : {-1, +1}) {
      // On the face x_i = bound, outward flow means side·f_i(x) > 0.
      interval::Box face = problem_.safe_rect.as_box();
      const double bound =
          side > 0 ? problem_.safe_rect.hi[i] : problem_.safe_rect.lo[i];
      face[i] = interval::Interval(bound);
      smt::Conjunction outward;
      const expr::ExprId fi = problem_.sym_field[i];
      outward.add(side > 0 ? fi : pool.neg(fi), smt::Rel::kGt);
      smt::IcpResult r = solver.solve(outward, face);
      aggregate.stats.boxes_processed += r.stats.boxes_processed;
      aggregate.stats.solve_time_s += r.stats.solve_time_s;
      if (r.is_sat()) return r;
      if (r.verdict == smt::SatResult::kUnknown) {
        aggregate.verdict = smt::SatResult::kUnknown;
      }
    }
  }
  return aggregate;
}

template <typename Form>
std::optional<std::pair<double, double>> BarrierPipeline<Form>::level_window(
    const Form& w) const {
  return Traits::level_window(*this, w);
}

template <typename Form>
std::vector<interval::Box> BarrierPipeline<Form>::safe_faces(
    bool unsafe_only) const {
  const Rect& s = problem_.safe_rect;
  std::vector<interval::Box> faces;
  faces.reserve(2 * s.dims());
  for (std::size_t i = 0; i < s.dims(); ++i) {
    if (unsafe_only && !problem_.dim_unsafe(i)) continue;
    for (const double pin : {s.lo[i], s.hi[i]}) {
      interval::Box face = s.as_box();
      face[i] = interval::Interval(pin);
      faces.push_back(std::move(face));
    }
  }
  return faces;
}

template <typename Form>
VerifyStatus BarrierPipeline<Form>::check_certificate(const Form& w,
                                                      double level) const {
  if (!Traits::certificate_admissible(w, level)) {
    return VerifyStatus::kLevelSetFailed;
  }
  const smt::IcpResult decrease = refine_decrease(w);
  if (decrease.verdict == smt::SatResult::kUnknown) {
    return VerifyStatus::kSolverBudget;
  }
  if (!decrease.is_unsat()) return VerifyStatus::kMaxCandidateIterations;

  const smt::IcpResult init = check_initial_contained(w, level);
  if (init.verdict == smt::SatResult::kUnknown) {
    return VerifyStatus::kSolverBudget;
  }
  if (!init.is_unsat()) return VerifyStatus::kLevelSetFailed;

  const smt::IcpResult unsafe = check_level_exclusion(w, level);
  if (unsafe.verdict == smt::SatResult::kUnknown) {
    return VerifyStatus::kSolverBudget;
  }
  if (!unsafe.is_unsat()) return VerifyStatus::kLevelSetFailed;

  return VerifyStatus::kSafe;
}

template <typename Form>
void BarrierPipeline<Form>::export_queries_smtlib(
    const Form& w, double level, const std::string& prefix) const {
  expr::ExprPool& pool = *problem_.pool;
  smt::SmtLibOptions sopts;
  sopts.precision = options_.icp.delta;

  // Condition (5): decrease over D \ X0.
  {
    const expr::ExprId lie =
        expr::lie_derivative(pool, w.to_expr(pool), problem_.sym_field);
    smt::Conjunction decrease;
    decrease.add(pool.add(lie, pool.constant(options_.gamma)), smt::Rel::kGe);
    const smt::Dnf query =
        outside_rect(pool, problem_.initial_set)
            .conjoin(smt::Dnf::single(std::move(decrease)));
    std::ofstream os(prefix + "_decrease.smt2");
    write_smtlib(os, pool, query, problem_.safe_rect.as_box(), sopts);
  }
  // Condition (6): X0 escapes the level set.
  {
    smt::Conjunction query;
    query.add(pool.sub(w.to_expr(pool), pool.constant(level)),
              smt::Rel::kGt);
    std::ofstream os(prefix + "_initial.smt2");
    write_smtlib(os, pool, query, problem_.initial_set.as_box(), sopts);
  }
  // Condition (7): the level set touches U.
  {
    smt::Conjunction in_level_set;
    in_level_set.add(pool.sub(w.to_expr(pool), pool.constant(level)),
                     smt::Rel::kLe);
    const smt::Dnf query = outside_rect(pool, problem_.safe_rect)
                               .conjoin(smt::Dnf::single(in_level_set));
    interval::Box search = problem_.safe_rect.as_box();
    if constexpr (std::is_same_v<Form, QuadraticForm>) {
      const std::optional<Rect> bbox = w.level_set_bounding_box(level);
      if (bbox) search = bbox->as_box();
    }
    std::ofstream os(prefix + "_unsafe.smt2");
    write_smtlib(os, pool, query, search, sopts);
  }
}

template <typename Form>
VerifyResult BarrierPipeline<Form>::run(PipelineHooks hooks) {
  hooks_ = std::move(hooks);
  degrade_.jit_to_tape.store(0, std::memory_order_relaxed);
  degrade_.tape_to_tree.store(0, std::memory_order_relaxed);
  degrade_.cache_cold.store(0, std::memory_order_relaxed);
  degrade_.lp_cold.store(0, std::memory_order_relaxed);

  VerifyResult result = run_impl();

  // Every exit path carries the fallback tally and a typed error, so
  // campaign JSON can tell a degraded-but-clean run from a failed one.
  result.degradation = degrade_.snapshot();
  switch (result.status) {
    case VerifyStatus::kCancelled:
      result.error = Status(ErrorCode::kCancelled, "job cancelled");
      break;
    case VerifyStatus::kDeadlineExceeded:
      result.error = Status(ErrorCode::kDeadlineExceeded,
                            "job deadline exceeded");
      break;
    case VerifyStatus::kResourceExhausted:
      result.error = Status(
          ErrorCode::kResourceExhausted,
          "memory quota exceeded (" +
              std::to_string(hooks_.mem_budget != nullptr
                                 ? hooks_.mem_budget->quota()
                                 : 0) +
              " bytes)");
      break;
    default:
      break;  // not an error-taxonomy status
  }
  hooks_ = PipelineHooks{};
  return result;
}

template <typename Form>
VerifyResult BarrierPipeline<Form>::run_impl() {
  VerifyResult result;
  result.template_kind = Traits::kKind;
  const auto t_start = clock::now();

  // ---- Seed simulations --------------------------------------------------
  report_progress(JobPhase::kSeeding, 0, 0);
  if (interrupted(result)) {
    result.timings.total_time_s = seconds_since(t_start);
    return result;
  }
  const auto t_seed = clock::now();
  std::vector<FieldSample> samples;
  for (const linalg::Vector& x0 :
       random_initial_states(options_.seed_traces, options_.seed)) {
    const auto s = simulate_samples(x0);
    samples.insert(samples.end(), s.begin(), s.end());
  }
  // Domain-wide positivity anchors (decrease-exempt).
  for (const linalg::Vector& x : random_initial_states(
           options_.positivity_samples, options_.seed + 7919)) {
    samples.push_back({x, problem_.sim_field(x), /*require_decrease=*/false});
  }
  result.timings.simulation_time_s += seconds_since(t_seed);

  // ---- Candidate loop: LP ↔ SMT(5) ---------------------------------------
  const auto t_gen = clock::now();
  std::optional<Form> generator;
  // Each refinement iteration re-solves the margin LP with the same
  // variables and all previous rows plus the new counterexample rows —
  // the append-only pattern basis warm-starting is built for. Thread the
  // previous optimal basis into the next solve
  // (SynthesisOptions::warm_start=false reverts to cold starts). The
  // Engine extends the chain across scenarios via hooks.warm_basis_io.
  const bool warm = options_.synthesis.warm_start;
  lp::LpBasis warm_basis;
  if (warm && hooks_.warm_basis_io != nullptr) {
    warm_basis = *hooks_.warm_basis_io;
  }
  const auto finish_generator_phase = [&](VerifyResult& r) {
    r.timings.generator_time_s = seconds_since(t_gen);
    r.timings.total_time_s = seconds_since(t_start);
  };
  for (int iter = 0; iter < options_.max_candidate_iterations; ++iter) {
    report_progress(JobPhase::kCandidateLoop, iter + 1, 0);
    if (interrupted(result)) {
      finish_generator_phase(result);
      return result;
    }
    ++result.timings.candidate_iterations;

    const auto t_lp = clock::now();
    SynthesisOptions sopts = options_.synthesis;
    if (warm) sopts.simplex.warm_start = std::move(warm_basis);
    // LP-heavy candidates honor the job's deadline/cancel from inside
    // the pivot loops: an interrupted solve reports infeasible-shaped
    // output, which the branch below re-attributes via interrupted().
    if (hooks_.cancel != nullptr || hooks_.has_deadline) {
      sopts.simplex.interrupt = [this] {
        if (hooks_.cancel != nullptr && hooks_.cancel->cancelled()) {
          return true;
        }
        return hooks_.has_deadline && clock::now() >= hooks_.deadline;
      };
    }
    const bool warm_supplied = warm && !sopts.simplex.warm_start.empty();
    const PipelineSynthesis<Form> synth =
        Traits::synthesize(samples, *this, sopts);
    if (warm_supplied && !synth.lp_warm_started) {
      // Ladder rung: the supplied basis was stale/singular and the
      // solver silently cold-started.
      degrade_.lp_cold.fetch_add(1, std::memory_order_relaxed);
    }
    warm_basis = synth.basis;
    if (warm && hooks_.warm_basis_io != nullptr) {
      *hooks_.warm_basis_io = warm_basis;
    }
    result.timings.lp_time_s += seconds_since(t_lp);
    ++result.timings.lp_solves;

    if (!synth.feasible) {
      // A deadline/cancel interrupt surfaces as an unfinished LP; check
      // it first so the result carries the real cause, not a spurious
      // kLpInfeasible.
      if (interrupted(result)) {
        finish_generator_phase(result);
        return result;
      }
      result.status = VerifyStatus::kLpInfeasible;
      // Surface the binding samples as counterexamples: they locate
      // where the closed loop resists *every* template candidate.
      result.counterexamples = synth.binding_states;
      finish_generator_phase(result);
      return result;
    }
    result.lp_margin = synth.margin;
    Traits::store_generator(result, *synth.candidate);

    const auto t_smt = clock::now();
    const smt::IcpResult check =
        refine_decrease(*synth.candidate, &result.timings.smt5_queries);
    result.timings.smt5_time_s += seconds_since(t_smt);

    if (check.verdict == smt::SatResult::kUnknown) {
      if (!interrupted(result)) result.status = unknown_status();
      finish_generator_phase(result);
      return result;
    }
    if (check.is_unsat()) {
      generator = *synth.candidate;
      break;
    }

    // CEX: simulate from the witness and extend the sample set.
    const linalg::Vector cex = check.witness_point();
    result.counterexamples.push_back(cex);
    const auto t_sim = clock::now();
    const auto s = simulate_samples(cex);
    result.timings.simulation_time_s += seconds_since(t_sim);
    samples.insert(samples.end(), s.begin(), s.end());
    if (s.empty()) {
      // Witness immediately left the domain; at least pin the point
      // itself so the LP sees the violation.
      samples.push_back({cex, problem_.sim_field(cex)});
    }
  }
  result.timings.generator_time_s = seconds_since(t_gen);

  if (!generator) {
    result.status = VerifyStatus::kMaxCandidateIterations;
    result.timings.total_time_s = seconds_since(t_start);
    return result;
  }

  // ---- Level-set selection + SMT (6) & (7) -------------------------------
  const auto t_level = clock::now();
  report_progress(JobPhase::kLevelSet, result.timings.candidate_iterations,
                  0);
  const auto finish_level_phase = [&](VerifyResult& r) {
    r.timings.level_set_time_s = seconds_since(t_level);
    r.timings.total_time_s = seconds_since(t_start);
  };
  if (interrupted(result)) {
    finish_level_phase(result);
    return result;
  }

  // Domain-only dimensions must be flow-invariant, otherwise
  // trajectories could leave the region where the decrease condition
  // was proven.
  if (problem_.has_invariant_dims()) {
    const smt::IcpResult inv = check_domain_invariance();
    if (inv.verdict == smt::SatResult::kUnknown) {
      if (!interrupted(result)) result.status = unknown_status();
      finish_level_phase(result);
      return result;
    }
    if (inv.is_sat()) {
      result.status = VerifyStatus::kDomainNotInvariant;
      finish_level_phase(result);
      return result;
    }
  }

  const auto window = level_window(*generator);
  if (!window) {
    result.status = VerifyStatus::kLevelSetFailed;
    finish_level_phase(result);
    return result;
  }
  // Shrink the analytic window slightly so both SMT queries have margin.
  double lo = window->first * (1.0 + options_.level_margin);
  double hi = window->second * (1.0 - options_.level_margin);
  if (!(lo < hi)) {
    result.status = VerifyStatus::kLevelSetFailed;
    finish_level_phase(result);
    return result;
  }

  double level = std::sqrt(lo * hi);  // geometric midpoint first
  bool proved = false;
  for (int iter = 0; iter < options_.max_level_iterations; ++iter) {
    report_progress(JobPhase::kLevelSet, result.timings.candidate_iterations,
                    iter + 1);
    if (interrupted(result)) break;
    const smt::IcpResult init_check =
        check_initial_contained(*generator, level);
    if (init_check.verdict == smt::SatResult::kUnknown) {
      if (!interrupted(result)) result.status = unknown_status();
      break;
    }
    if (init_check.is_sat()) {
      // Some initial state escapes L: raise ℓ.
      lo = level;
      level = std::sqrt(lo * hi);
      continue;
    }
    const smt::IcpResult unsafe_check =
        check_level_exclusion(*generator, level);
    if (unsafe_check.verdict == smt::SatResult::kUnknown) {
      if (!interrupted(result)) result.status = unknown_status();
      break;
    }
    if (unsafe_check.is_sat()) {
      // L reaches into U: lower ℓ.
      hi = level;
      level = std::sqrt(lo * hi);
      continue;
    }
    proved = true;
    break;
  }
  finish_level_phase(result);

  if (proved) {
    result.status = VerifyStatus::kSafe;
    result.level = level;
  } else if (result.status != VerifyStatus::kSolverBudget &&
             result.status != VerifyStatus::kResourceExhausted &&
             result.status != VerifyStatus::kCancelled &&
             result.status != VerifyStatus::kDeadlineExceeded) {
    result.status = VerifyStatus::kLevelSetFailed;
  }
  report_progress(JobPhase::kDone, result.timings.candidate_iterations, 0);
  return result;
}

template class BarrierPipeline<QuadraticForm>;
template class BarrierPipeline<PolynomialForm>;

}  // namespace bcert::core
